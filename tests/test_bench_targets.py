"""The names the benchmark's tracer wraps (bench/tracer.py TARGETS and
COUNTED) must keep resolving, or a refactor silently breaks traced runs."""

import importlib
import importlib.util
from pathlib import Path

from rankinv.gf import FieldTower

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_traced_targets_resolve():
    missing = []
    for name, modname, path in tracer.TARGETS:
        module = importlib.import_module(modname)
        if "." in path:
            # the tracer reads methods from the class dict, not by lookup
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or attr not in vars(cls):
                missing.append(name)
        elif not callable(getattr(module, path, None)):
            missing.append(name)
    assert not missing, f"TARGETS name attributes that are gone: {missing}"


def test_counted_field_methods_resolve():
    missing = [attr for _, attr in tracer.COUNTED if not callable(vars(FieldTower).get(attr))]
    assert not missing, f"COUNTED names FieldTower methods that are gone: {missing}"
