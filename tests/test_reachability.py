"""Every function, class and method in src/rankinv is reached from the
program, or named by the benchmark.

The scan parses each src/rankinv/*.py and follows names from cli.main and
from module-level code (class bodies, decorators and defaults included).  A
reached definition reaches every top-level definition whose name its body
mentions: as a name, an attribute, an imported name or a string that is an
identifier, which is how cli dispatches and classify.__getattr__ resolves.
A method, property or other definition in a class body is reached only
through an attribute access x.name in a reached body, so a local variable
or a string that shares its name does not keep it.  Matching by name
over-approximates what is reached, so the scan can miss dead code but never
flags live code.  Dunder definitions are reached by the language.

ALLOWED holds what only the benchmark reaches: the tracer's TARGETS (read
from bench/tracer.py, read-only) and the names that bench/make_refs.py,
bench/workloads.py and bench/microbench.py call.  They are roots too, and
each must exist, so the list cannot go stale."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rankinv"

_TRACER = ROOT / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

ALLOWED = tuple((modname, path) for _, modname, path in tracer.TARGETS) + (
    ("rankinv.codes", "min_distance_bruteforce"),      # bench/make_refs.py
    ("rankinv.linalg", "random_invertible_matrix_q"),  # bench/workloads.py
    ("rankinv.rng", "DetRNG.choice"),                  # bench/workloads.py
    ("rankinv.gf", "FieldTower.random_nonzero"),       # bench/microbench.py
)

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(nodes) -> set[str]:
    """The names that nodes mention, not descending into function bodies;
    an attribute access x.name gives both name and ".name"."""
    out = set()
    todo = list(nodes)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out |= {node.attr, "." + node.attr}
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            out.add(node.value)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo += [*node.decorator_list, node.args]
        else:
            todo += ast.iter_child_nodes(node)
    return out


def _body_names(node) -> set[str]:
    if isinstance(node, ast.ClassDef):
        return set()  # the class body is module-level code
    return _names([*node.body, node.args])


def definitions(sources: dict[str, str]) -> dict[str, ast.AST]:
    """module.qualname -> node for the top-level functions and classes, and
    the methods, of sources (module name -> text)."""
    defs = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, _DEFS):
                defs[f"{module}.{node.name}"] = node
                if isinstance(node, ast.ClassDef):
                    for sub in node.body:
                        if isinstance(sub, _DEFS):
                            defs[f"{module}.{node.name}.{sub.name}"] = sub
    return defs


def scan(sources: dict[str, str], roots=()) -> list[str]:
    """The definitions of sources that neither cli.main, module-level code
    nor the definitions in roots reach."""
    defs = definitions(sources)
    # what reaches each definition: its name, or ".name" for a class member
    wanted = {key: "." * (key.count(".") - 1) + node.name for key, node in defs.items()}
    names = {"main"}.union(*(_names(ast.parse(source).body) for source in sources.values()))
    reached = set()
    todo = [key for key in defs if key in roots]
    seen_names = set()
    while True:
        for key in todo:
            if key not in reached:
                reached.add(key)
                names |= _body_names(defs[key])
        fresh = names - seen_names
        if not fresh:
            break
        seen_names |= fresh
        todo = [key for key, node in defs.items()
                if wanted[key] in fresh or node.name.startswith("__") and node.name.endswith("__")]
    return sorted(key for key in defs if key not in reached)


def _allowed_keys() -> list[str]:
    """ALLOWED as module.qualname of the definition each entry resolves to;
    classify.census, for one, is census.census."""
    keys = []
    for modname, path in ALLOWED:
        obj = importlib.import_module(modname)
        for attr in path.split("."):
            obj = vars(obj)[attr] if isinstance(obj, type) else getattr(obj, attr)
        obj = getattr(obj, "__func__", obj)  # classmethod, staticmethod
        keys.append(f"{obj.__module__.removeprefix('rankinv.')}.{obj.__qualname__}")
    return keys


def _sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_every_definition_is_reached():
    assert scan(_sources(), _allowed_keys()) == []


def test_every_allowed_entry_exists():
    defs = definitions(_sources())
    assert [key for key in _allowed_keys() if key not in defs] == []


def test_the_scan_finds_unreached_definitions():
    sources = {
        "cli": ("import sys\n"
                "def main():\n    return dispatch('run')\n"
                "def dispatch(name):\n    return getattr(sys.modules[__name__], name)()\n"
                "def run():\n    return Box().used()\n"
                "def dead():\n    return 0\n"),
        "box": ("class Box:\n"
                "    def __init__(self):\n        self.x = helper()\n"
                "    def used(self):\n        return self.x\n"
                "    def unused(self):\n        return bench_only()\n"
                "    def tag(self):\n        return 3\n"
                "    @property\n    def label(self):\n        return 4\n"
                "def helper():\n    tag = 'label'\n    return 1\n"
                "def bench_only():\n    return 2\n"),
    }
    # a local name and a string do not reach the members tag and label
    assert scan(sources) == ["box.Box.label", "box.Box.tag", "box.Box.unused",
                             "box.bench_only", "cli.dead"]
    assert scan(sources, ["box.Box.unused"]) == ["box.Box.label", "box.Box.tag", "cli.dead"]
    sources["cli"] = sources["cli"].replace("Box().used()", "Box().used() + Box().tag() + Box().label")
    assert scan(sources) == ["box.Box.unused", "box.bench_only", "cli.dead"]
