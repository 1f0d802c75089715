"""Frozen answers of Gabidulin recognition.

golden_recognition.json holds, for 244 (code, theta, dist_cap) cases, the
full (verdict, criteria) result of classify.is_theta_gabidulin as computed
at commit be43fcf, before recognition read d > 1 off the differences trie
and walked the MRD test on the smaller of C and C^perp.  The cases are all
73 [3, 2] codes over F_8 with theta in {1, 2}, the seeded codes of the
recognition tests in test_classify.py, and seeded Gabidulin, twisted and
planted rank-one codes with k >= n - k.  Each code is stored by its field
and its RREF generator in packed elements, so the table does not depend on
how the codes were built.  It is never regenerated: every criterion value,
every None included, must stay as it is.
"""

import json
from pathlib import Path

import rankinv.classify as cl
import rankinv.codes as cd
from rankinv.gf import field_from_dict

GOLDEN = Path(__file__).resolve().parent / "golden_recognition.json"


def test_recognition_matches_the_frozen_table():
    table = json.loads(GOLDEN.read_text(encoding="utf-8"))
    fields = {key: field_from_dict(doc) for key, doc in table["fields"].items()}
    cases = table["cases"]
    assert len(cases) == 244
    for case in cases:
        gen = tuple(map(tuple, case["gen"]))
        code = cd.LinearCode.from_rows(fields[case["field"]], gen, case["n"])
        assert code.gen == gen, case["label"]
        got = cl.is_theta_gabidulin(code, case["theta"], dist_cap=case["dist_cap"])
        assert got == (case["verdict"], case["crits"]), case["label"]
    assert {case["crits"]["mrd_plus_s1"] for case in cases} == {True, False, None}
    assert {case["verdict"] for case in cases} == {True, False}
