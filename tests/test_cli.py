"""End-to-end tests of the command-line interface (in-process)."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankinv.cli as cli
import rankinv.codes as cd
from conftest import (
    WORKED_EXAMPLE_ETA_POWER,
    WORKED_EXAMPLE_G_POWERS,
    WORKED_EXAMPLE_MODULUS,
)

SRC = Path(__file__).resolve().parents[1] / "src"
MODULUS_ARG = ":".join(str(c) for c in WORKED_EXAMPLE_MODULUS)
G_ARG = ",".join(f"a^{e}" for e in WORKED_EXAMPLE_G_POWERS)
ETA_ARG = f"a^{WORKED_EXAMPLE_ETA_POWER}"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture()
def stored_pair(tmp_path):
    """gab.json / tw.json for the [8,3] pair over F_{2^15}."""
    gab_path = str(tmp_path / "gab.json")
    tw_path = str(tmp_path / "tw.json")
    base = ["code", "build", "--m", "15", "--modulus", MODULUS_ARG,
            "--n", "8", "--k", "3", "--g", G_ARG]
    rc, _, _ = run_cli(*base, "--family", "Gabidulin", "--out", gab_path)
    assert rc == 0
    rc, _, _ = run_cli(*base, "--family", "Twisted", "--eta", ETA_ARG,
                       "--out", tw_path)
    assert rc == 0
    return gab_path, tw_path


def test_build_echoes_config_and_saves(tmp_path, worked_example_codes):
    out_path = str(tmp_path / "c.json")
    rc, out, err = run_cli(
        "code", "build", "--family", "Gabidulin", "--m", "15",
        "--modulus", MODULUS_ARG, "--n", "8", "--k", "3", "--g", G_ARG,
        "--out", out_path)
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("# config ")
    assert "family=Gabidulin" in lines[0] and "m=15" in lines[0]
    assert any(line.startswith("G[0] = ") for line in lines)
    assert f"saved = {out_path}" in lines
    stored, provenance = cd.load_code(out_path)
    gab, _ = worked_example_codes
    assert cd.code_equal(stored, gab)
    assert provenance["family"] == "Gabidulin"


def test_build_random_g_is_seed_deterministic(tmp_path):
    argv = ("code", "build", "--family", "Gabidulin", "--m", "6",
            "--n", "5", "--k", "2", "--random-g", "--seed", "9",
            "--format", "csv")
    rc1, out1, _ = run_cli(*argv)
    rc2, out2, _ = run_cli(*argv)
    assert rc1 == rc2 == 0
    assert out1 == out2  # byte-identical under identical arguments
    assert len(out1.splitlines()) == 3  # config + one row per generator


def test_invariants_golden_rows_pretty(stored_pair):
    gab_path, tw_path = stored_pair
    rc, out, _ = run_cli("invariants", "--file", gab_path, "--sigma", "1")
    assert rc == 0
    assert "s = 4,5,6,7,8" in out
    assert "t = 2,1,0" in out
    rc, out, _ = run_cli("invariants", "--file", tw_path, "--sigma", "1")
    assert rc == 0
    assert "s = 5,6,7,8,8" in out


def test_invariants_all_sigma_csv(stored_pair):
    gab_path, _ = stored_pair
    rc, out, _ = run_cli("invariants", "--file", gab_path, "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "# columns: sigma,s_1..s_5,t_1..t_3"
    data = lines[2:]
    assert len(data) == 14  # sigma = 1..14
    assert data[0] == "1,4,5,6,7,8,2,1,0"
    assert data[-1].startswith("14,4,5,6,7,8")


def test_invariants_json_and_i_max(stored_pair):
    gab_path, _ = stored_pair
    rc, out, _ = run_cli("invariants", "--file", gab_path, "--sigma", "2",
                         "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["config"]["sigma"] == "2"
    (profile,) = doc["profiles"]
    assert profile["sigma"] == 2 and profile["s"] == [5, 7, 8, 8, 8]
    rc, out, _ = run_cli("invariants", "--file", gab_path, "--sigma", "2",
                         "--i-max", "3", "--format", "json")
    assert json.loads(out)["profiles"][0]["s"] == [5, 7, 8]


@pytest.mark.parametrize("i_max", ["-1", "0"])
def test_invariants_rejects_i_max_below_one(stored_pair, i_max):
    gab_path, _ = stored_pair
    rc, out, err = run_cli("invariants", "--file", gab_path, "--i-max", i_max)
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "--i-max" in err


def test_invariants_computes_the_dual_once(stored_pair, monkeypatch):
    gab_path, _ = stored_pair
    calls = []
    dual = cd.dual

    def counting_dual(code):
        calls.append(code)
        return dual(code)

    monkeypatch.setattr(cd, "dual", counting_dual)
    rc, out, _ = run_cli("invariants", "--file", gab_path, "--format", "csv")
    assert rc == 0 and len(out.splitlines()) == 2 + 14  # sigma = 1..14
    assert len(calls) == 1


def test_compare_unknown_on_self(stored_pair):
    gab_path, _ = stored_pair
    rc, out, _ = run_cli("compare", gab_path, gab_path, "--trials", "5")
    assert rc == 0
    assert "Unknown (no invariant separates)" in out


def test_compare_separates_pair(stored_pair):
    gab_path, tw_path = stored_pair
    argv = ("compare", gab_path, tw_path, "--trials", "5")
    rc, out, _ = run_cli(*argv)
    assert rc == 0
    assert "Inequivalent" in out
    assert "witness: sigma=1" in out
    rc2, out2, _ = run_cli(*argv)
    assert out2 == out  # deterministic bytes
    rc, out, _ = run_cli(*argv, "--format", "json")
    doc = json.loads(out)
    assert doc["verdict"]["status"] == "Inequivalent"
    assert doc["verdict"]["witness"]["invariant"] == "consecutive"
    assert doc["verdict"]["witness"]["sigma"] == 1


def test_classify_gabidulin_both_ways(stored_pair):
    gab_path, tw_path = stored_pair
    rc, out, _ = run_cli("classify", "gabidulin", "--file", gab_path)
    assert rc == 0 and "is_gabidulin = true" in out
    rc, out, _ = run_cli("classify", "gabidulin", "--file", tw_path,
                         "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["is_gabidulin"] is False
    assert doc["criteria"]["systematic"] is False
    assert doc["criteria"]["mrd_plus_s1"] is None  # beyond the distance cap


def test_count_formats():
    rc, out, _ = run_cli("count", "--q", "2", "--k", "2", "--n", "4", "--m", "4")
    assert rc == 0
    doc = json.loads(out)  # json is the default format here
    by_name = {b["name"]: b for b in doc["bounds"]}
    assert by_name["gabidulin_fixed_theta"]["value"] == 1344
    assert by_name["twisted_fixed_theta"]["value"] == 0
    rc, out, _ = run_cli("count", "--q", "2", "--k", "2", "--n", "4",
                         "--m", "4", "--format", "pretty")
    assert rc == 0
    assert "gabidulin_fixed_theta [exact] = 1344" in out


def test_census_ub_only():
    rc, out, _ = run_cli("census", "--n", "6", "--k", "3", "--ub-only")
    assert rc == 0
    assert "UB = 18" in out
    assert "q=3" in out.splitlines()[0]  # default subfield size echoed
    rc2, out2, _ = run_cli("census", "--n", "6", "--k", "3", "--ub-only")
    assert out2 == out


def test_census_csv_and_json():
    argv = ("census", "--q", "2", "--n", "6", "--k", "2", "--seed", "1",
            "--trials", "4")
    rc, out, _ = run_cli(*argv, "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == "# columns: r,t,h,fp1,fp2"
    assert len(lines) == 2 + 16 + 1  # config, header, classes, summary
    summary = json.loads(lines[-1])
    assert summary["UB"] == 16
    assert 1 <= summary["LB1"] <= 16 and 1 <= summary["LB2"] <= 16
    rc, out, _ = run_cli(*argv, "--format", "json")
    doc = json.loads(out)
    assert doc["summary"]["UB"] == 16
    assert len(doc["classes"]) == 16
    assert all(len(c["fp1"]) == 12 for c in doc["classes"])


def test_code_dual_roundtrip(tmp_path, stored_pair, worked_example_codes):
    gab_path, _ = stored_pair
    dual_path = str(tmp_path / "dual.json")
    rc, out, _ = run_cli("code", "dual", "--file", gab_path, "--out", dual_path)
    assert rc == 0
    assert "[code] dual n=8 k=5" in out
    stored, _ = cd.load_code(dual_path)
    gab, _ = worked_example_codes
    assert cd.code_equal(stored, cd.dual(gab))
    rc, out, _ = run_cli("invariants", "--file", dual_path, "--sigma", "1")
    assert "s = 6,7,8" in out  # mirror of the primal t-row 2,1,0


def test_exit_codes(tmp_path):
    rc, _, _ = run_cli("frobnicate")
    assert rc == 2  # usage error
    rc, _, err = run_cli("code", "build", "--family", "Gabidulin", "--m", "4",
                         "--n", "6", "--k", "2", "--random-g")
    assert rc == 1 and err.startswith("error:")  # n > m is a domain error
    rc, _, err = run_cli("invariants", "--file", str(tmp_path / "missing.json"))
    assert rc == 1 and "error:" in err
    rc, _, err = run_cli("code", "build", "--family", "Twisted", "--m", "5",
                         "--n", "5", "--k", "2", "--random-g", "--eta", "a",
                         "--strict-norm")
    assert rc == 1  # every binary-field eta violates the norm condition
    rc, _, _ = run_cli("count", "--q", "2", "--k", "2", "--n", "4", "--m", "4",
                       "--format", "yaml")
    assert rc == 2


def test_installed_console_script():
    # the console script runs rankinv.cli as __main__; do the same from src/
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "rankinv.cli", "census", "--n", "6", "--k", "2", "--ub-only"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert "UB = 16" in proc.stdout


# --------------------------------------------------------------------------
# malformed input ends in a clean error
# --------------------------------------------------------------------------

def _assert_clean_error(rc, out, err, *needles):
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert all(needle in err for needle in needles)


@pytest.mark.parametrize("argv", [
    ("invariants", "--file", "{path}"),
    ("compare", "{path}", "{path}"),
    ("code", "dual", "--file", "{path}"),
    ("classify", "gabidulin", "--file", "{path}"),
])
def test_code_file_holding_a_json_list_is_a_clean_error(tmp_path, argv):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]\n")
    _assert_clean_error(*run_cli(*(a.format(path=path) for a in argv)), "malformed code")


@pytest.mark.parametrize("patch", [
    {"field": [2, 1, 4]},
    {"gen": 5},
    {"gen": [[5, 6]]},
    {"n": [2]},
])
def test_code_file_with_a_mistyped_value_is_a_clean_error(tmp_path, patch):
    field = {"p": 2, "e": 1, "m": 4, "modulus": [1, 1, 0, 0, 1]}
    doc = {"field": field, "n": 2, "k": 1, "gen": [[[1, 0, 0, 0], [0, 1, 0, 0]]]}
    path = tmp_path / "code.json"
    path.write_text(json.dumps(dict(doc, **patch)))
    _assert_clean_error(*run_cli("invariants", "--file", str(path)), "malformed code")


def test_negative_trials_are_a_clean_error(stored_pair):
    gab_path, tw_path = stored_pair
    _assert_clean_error(*run_cli("census", "--n", "6", "--k", "2", "--trials", "-1"),
                        "--trials")
    _assert_clean_error(*run_cli("compare", gab_path, tw_path, "--trials", "-5"),
                        "--trials")


@pytest.mark.parametrize("m", ["-1", "0"])
def test_count_rejects_m_below_one(m):
    _assert_clean_error(*run_cli("count", "--q", "2", "--k", "2", "--n", "4", "--m", m),
                        "m must be >= 1")


@pytest.mark.parametrize("k,n,needle", [
    ("2", "-1", "n must be >= 1"),
    ("2", "0", "n must be >= 1"),
    ("-1", "4", "k must lie in 1..n"),
    ("0", "4", "k must lie in 1..n"),
    ("5", "4", "k must lie in 1..n"),
])
def test_count_rejects_n_below_one_and_k_outside_one_to_n(k, n, needle):
    _assert_clean_error(*run_cli("count", "--q", "2", "--k", k, "--n", n, "--m", "4"), needle)


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("ub_only", [False, True])
def test_census_rejects_jobs_below_one(jobs, ub_only):
    argv = ["census", "--n", "6", "--k", "2", "--trials", "1", "--jobs", jobs]
    _assert_clean_error(*run_cli(*argv, *(["--ub-only"] if ub_only else [])), "--jobs")


@pytest.mark.parametrize("argv", [
    ("--q", "2", "--n", "6", "--k", "2", "--seed", "1", "--trials", "4", "--format", "pretty"),
    ("--q", "2", "--n", "6", "--k", "2", "--seed", "1", "--trials", "4", "--format", "csv"),
    ("--q", "2", "--n", "6", "--k", "2", "--seed", "1", "--trials", "4", "--format", "json"),
    ("--n", "6", "--k", "3", "--ub-only", "--format", "json"),
])
def test_census_timings_go_to_stderr(argv):
    rc, out, err = run_cli("census", *argv)
    assert rc == 0 and err == ""
    rc, timed_out, timed_err = run_cli("census", *argv, "--timings")
    assert rc == 0 and timed_out == out
    assert timed_err.startswith("runtime_s = ") and len(timed_err.splitlines()) == 1
