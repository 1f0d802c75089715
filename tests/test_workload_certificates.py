"""The Gabidulin certificate on the benchmark's classify cases.

bench/workloads.py is loaded read-only, as tests/test_bench_targets.py loads
the tracer.  For every (code, theta, want) of the classify workload's
recognition cases, classify._gabidulin_generator recovers a generator exactly
when the planted answer is "Gabidulin", and tests/certify.py accepts each
generator it returns."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import certify
import rankinv.classify as cl

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    """The bench module name, loaded from its file; workloads imports the
    tracer by its plain name, so a module loaded here is registered under it
    unless one already is."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_load("tracer")
workloads = _load("workloads")
REFS = json.loads((_BENCH / "refs.json").read_text())


@pytest.mark.parametrize("seed", [1, 2])
def test_certificates_on_the_classify_workload(seed):
    cases = workloads.Classify(seed, REFS).recognition
    certified = 0
    for code, theta, want in cases:
        g = cl._gabidulin_generator(code, theta)
        assert (g is not None) is want, (code, theta)
        if g is not None:
            assert certify.check(code, theta, g), (code, theta)
            certified += 1
    assert 0 < certified < len(cases)
