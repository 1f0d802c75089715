"""The names the benchmark's tracer wraps (bench/tracer.py TARGETS and
COUNTED) must keep resolving, or a refactor silently breaks traced runs, and
the work they name must go through them."""

import importlib
import importlib.util
from pathlib import Path

import rankinv.classify as cl
import rankinv.codes as cd
from rankinv import linalg as la
from rankinv.gf import FieldTower, FullAut, make_field

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


def test_census_and_distinguish_fingerprints_are_traced():
    # the census reads its keys off the frame of g: no fingerprint call, one
    # draw of the triples
    with tracer.Tracer() as t:
        report, _ = cl.census(3, 6, 2, 1, trials=10)
    summary = t.summary()
    spans = summary["spans"]
    assert report.ub == 16
    assert spans["classify.census"]["calls"] == 1
    assert "invariants.fingerprint_consecutive" not in spans
    assert "invariants.fingerprint_random_triples" not in spans
    assert spans["invariants.random_triples"]["calls"] == 1
    assert summary["triple_trials"] == 10

    field = make_field(3, 1, 12)
    r, t_off, h = report.params[0]
    code = cd.build(field, cd.make_spec("GeneralizedTwisted", 6, 2, r, report.g,
                                        eta=(report.eta,), t=(t_off,), h=(h,)))
    swap = cd.SemilinearMap(1, la.identity(field, 6)[::-1], FullAut(field, 0))
    with tracer.Tracer() as t:
        verdict = cl.distinguish(code, cd.apply_semilinear(code, swap), trials=10)
    spans = t.summary()["spans"]
    assert verdict.status == "Unknown"
    assert spans["invariants.fingerprint_consecutive"]["calls"] == 2
    assert spans["invariants.fingerprint_random_triples"]["calls"] == 2
