"""Seed handling, output checks and the refusal to run without sources."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import rankinv.classify as cl  # noqa: E402

import workloads as wl  # noqa: E402

REFS = json.loads((BENCH / "refs.json").read_text())


def _gens(workload):
    return [(code.gen, theta, want) for code, theta, want in workload.recognition]


def test_classify_inputs_follow_the_seed():
    a, b, c = wl.Classify(5, REFS), wl.Classify(5, REFS), wl.Classify(6, REFS)
    assert _gens(a) == _gens(b)
    assert _gens(a) != _gens(c)
    assert [op.label for op in a.batch(0)] == [op.label for op in c.batch(0)]


def test_generic_order_follows_the_seed():
    a, b, c = wl.Generic(5, REFS), wl.Generic(5, REFS), wl.Generic(6, REFS)
    assert a.order == b.order != c.order
    assert sorted(a.order) == sorted(cl.census_param_classes(8, 3))
    assert (a.g, a.eta) == (c.g, c.eta)  # fixed, so every class has a reference


def test_census_passes_the_seed_to_the_census():
    def first_report(seed):
        workload = wl.Census(seed, REFS)
        op = workload.batch(0)[0]
        result = op.run()
        assert op.check(result) == 0
        return result[0]

    r1, r1_again, r2 = first_report(1), first_report(1), first_report(2)
    assert (r1.g, r1.eta) == (r1_again.g, r1_again.eta)
    assert r1.fingerprints1 == r1_again.fingerprints1
    assert (r1.g, r1.eta) != (r2.g, r2.eta)


def test_census_check_rejects_a_wrong_report():
    report = cl.CensusReport(q=3, n=6, m=12, k=2, seed=0, trials=100, g=(), eta=0,
                             ub=16, lb1=0, lb2=7, params=(), fingerprints1=(0,) * 16,
                             fingerprints2=(0,) * 16)
    workload = wl.Census.__new__(wl.Census)
    workload.seed, workload.refs = 0, REFS["census"]
    assert workload.check((3, 6, 2), (report, None)) == 16  # LB1 = 0 is out of range
    ok = dataclasses.replace(report, lb1=2)
    assert workload.check((3, 6, 2), (ok, None)) > 0  # fingerprints differ from the reference


def test_generic_check_compares_with_the_reference():
    workload = wl.Generic(0, REFS)
    cls = workload.order[0]
    assert workload.check(cls, ((), ())) == 1


def test_golden_rows():
    rows = "\n".join(
        ",".join(map(str, (r, *(row + (row[-1],) * 5)[:5], 0, 0, 0)))
        for r, row in wl.GOLDEN_GAB_ROWS.items())
    assert wl.golden_rows_ok("# config\n# columns\n" + rows, wl.GOLDEN_GAB_ROWS)
    assert not wl.golden_rows_ok(rows.replace("1,4,5,6,7,8", "1,4,5,6,7,7"), wl.GOLDEN_GAB_ROWS)


def test_cli_check_is_byte_exact():
    workload = wl.Cli.__new__(wl.Cli)
    workload.seed, workload.refs, workload.seen = 0, {"count": "0" * 64}, {}
    ok = subprocess.CompletedProcess([], 0, stdout=b"x\n")
    assert workload.check("count", None, False, ok) == 1  # sha256 differs
    workload.refs = {}
    assert workload.check("census-ub", None, False, ok) == 0
    changed = subprocess.CompletedProcess([], 0, stdout=b"y\n")
    assert workload.check("census-ub", None, False, changed) == 1  # not byte-identical
    assert workload.check("other", None, False, subprocess.CompletedProcess([], 1, b"")) == 1


@pytest.mark.parametrize("trace", ["0", "1"])
def test_refuses_to_run_without_sources(tmp_path, trace):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
