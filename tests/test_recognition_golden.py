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

import certify
import rankinv.classify as cl
import rankinv.codes as cd
import rankinv.linalg as la
from rankinv.gf import GaloisAut, field_from_dict, make_field

GOLDEN = Path(__file__).resolve().parent / "golden_recognition.json"


def _golden_cases():
    """(case, freshly built code) for every case of the table."""
    table = json.loads(GOLDEN.read_text(encoding="utf-8"))
    fields = {key: field_from_dict(doc) for key, doc in table["fields"].items()}
    cases = table["cases"]
    assert len(cases) == 244
    for case in cases:
        gen = tuple(map(tuple, case["gen"]))
        code = cd.LinearCode.from_rows(fields[case["field"]], gen, case["n"])
        assert code.gen == gen, case["label"]
        yield case, code


def test_recognition_matches_the_frozen_table():
    cases = []
    for case, code in _golden_cases():
        got = cl.is_theta_gabidulin(code, case["theta"], dist_cap=case["dist_cap"])
        assert got == (case["verdict"], case["crits"]), case["label"]
        cases.append(case)
    assert {case["crits"]["mrd_plus_s1"] for case in cases} == {True, False, None}
    assert {case["verdict"] for case in cases} == {True, False}


def _certificates():
    """(case, code, g') for every case, g' the recovered generator or None."""
    return [(case, code, cl._gabidulin_generator(code, case["theta"]))
            for case, code in _golden_cases()]


def test_certificate_exists_exactly_for_gabidulin_codes_and_checks():
    # the frozen verdict, every criterion included, is the independent
    # answer; the certificate must exist exactly when it is True, whatever
    # dist_cap made of mrd_plus_s1, and pass the oracle-only checker
    certified = 0
    for case, code, g in _certificates():
        assert (g is not None) == case["verdict"], case["label"]
        if g is not None:
            assert certify.check(code, case["theta"], g), case["label"]
            certified += 1
    assert certified == 85


def test_checker_rejects_a_corrupted_certificate():
    # g' with one entry moved by a nonzero field element: a multiple lam*g'
    # of g' differs from it in every entry if lam != 1 (all entries of g'
    # are nonzero, since rank_q(g') = n), and Gab_{theta,k}(g'') = C forces
    # g'' to be such a multiple (theta^(k-1)(g'') spans n theta^i(C)), so
    # every corruption is caught
    mutants = 0
    for case, code, g in _certificates():
        if g is None:
            continue
        field, theta = code.field, case["theta"]
        for i in range(code.n):
            for delta in {field.one, field.alpha_pow(case["n"] + i)}:
                bad = g[:i] + (field.add(g[i], delta),) + g[i + 1:]
                assert not certify.check(code, theta, bad), (case["label"], i)
                mutants += 1
    assert mutants >= 85 * 3


def test_checker_rejects_a_generator_below_full_rank():
    # the Moore rows of g = (a, b, c, a + b), of F_q-rank 3 < n = 4, span a
    # [4,2] code that is not Gabidulin: the span check alone would pass g
    field = make_field(2, 1, 5)
    a, b, c = (field.alpha_pow(i) for i in (0, 1, 2))
    g = (a, b, c, field.add(a, b))
    code = cd.LinearCode.from_rows(field, la.moore_matrix(field, g, 2, GaloisAut(field, 1)), 4)
    assert code.k == 2 and la.rank_q(field, g) == 3
    assert not certify.check(code, 1, g)
    assert cl._gabidulin_generator(code, 1) is None
