"""Every module-level import in src/rankinv is used by its module.

A name bound by a module-level `import` or `from ... import` must be read
somewhere in the module: as a name, or inside a string annotation.  An
import statement marked `# noqa: F401` re-exports its names and is exempt,
as is `from __future__ import ...`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rankinv"


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a string annotation such as "Differences"
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
            except SyntaxError:
                pass
    return used


def unused_imports(source: str) -> list[str]:
    """The names that module-level imports of source bind and it never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(name)
    return unused


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import itertools\nimport json\nfrom functools import reduce\n"
              "from .gf import make_field  # noqa: F401 (re-exported)\n"
              "def f(x) -> \"json.JSONDecoder\":\n    return x\n")
    assert unused_imports(source) == ["itertools", "reduce"]
