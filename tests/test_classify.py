"""Tests for recognition, equivalence decisions, counting, and the census."""

import pytest
import sympy

import certify
import oracles
from conftest import FP_FIELDS, FP_IDS, TOWER_FIELDS, TOWER_IDS
import rankinv.classify as cl
import rankinv.codes as cd
import rankinv.counting as ct
import rankinv.invariants as inv
import rankinv.linalg as la
from rankinv.gf import FullAut, GaloisAut, galois_generators, make_field
from rankinv.rng import DetRNG

# census upper bounds by (n, k), frozen from the closed-form class count
UB_TABLE = {
    (6, 2): 16, (6, 3): 18, (6, 4): 16,
    (7, 2): 30, (7, 3): 36, (7, 4): 36, (7, 5): 30,
    (8, 2): 48, (8, 3): 60, (8, 4): 64, (8, 5): 60, (8, 6): 48,
}


def _gab(field, n, k, rng, theta_exp=1):
    g = la.random_full_rank_vector(field, n, rng)
    return cd.build(field, cd.make_spec("Gabidulin", n, k, theta_exp=theta_exp, g=g))


def _nonzero(field, rng):
    return field.alpha_pow(rng.randbelow(field.Qm1))


def _random_smap(field, n, rng):
    return cd.SemilinearMap(
        lam=_nonzero(field, rng),
        A=la.random_invertible_matrix_q(field, n, rng),
        tau=FullAut(field, rng.randbelow(field.d)),
    )


# --------------------------------------------------------------------------
# census parameter classes
# --------------------------------------------------------------------------


def test_census_ub_table():
    for (n, k), ub in UB_TABLE.items():
        assert ct.census_ub(n, k) == ub
        # closed form: every class has exactly two members
        m = 2 * n
        phi = len(galois_generators(m))
        assert ub == phi * (n - k) * k // 2
    # symmetric under k -> n-k
    for n in (6, 7, 8):
        for k in range(2, n - 1):
            assert ct.census_ub(n, k) == ct.census_ub(n, n - k)


@pytest.mark.parametrize("n,k", [(6, 2), (7, 3)])
def test_census_classes_partition(n, k):
    m = 2 * n
    reps = ct.census_param_classes(n, k)
    covered = set()
    for (r, t, h) in reps:
        partner = ((-r) % m, n - k + 1 - t, k - 1 - h)
        assert partner != (r, t, h)  # -r is never a unit's own negative here
        assert not {(r, t, h), partner} & covered
        covered |= {(r, t, h), partner}
    full = {
        (r, t, h)
        for r in galois_generators(m)
        for t in range(1, n - k + 1)
        for h in range(k)
    }
    assert covered == full


def test_census_param_guards():
    with pytest.raises(ValueError):
        ct.census_param_classes(6, 0)
    with pytest.raises(ValueError):
        ct.census_param_classes(6, 6)


# --------------------------------------------------------------------------
# counting formulas
# --------------------------------------------------------------------------


def test_gaussian_binomial_values():
    assert ct.gaussian_binomial(4, 2, 2) == 35
    assert ct.gaussian_binomial(4, 2, 3) == 130
    assert ct.gaussian_binomial(5, 2, 2) == 155
    assert ct.gaussian_binomial(5, 3, 2) == 155  # symmetry
    assert ct.gaussian_binomial(7, 0, 2) == 1
    assert ct.gaussian_binomial(7, 7, 3) == 1


def test_counting_gabidulin_fixed_theta():
    r = ct.counting(2, 2, 4, 4)
    b = r.get("gabidulin_fixed_theta")
    assert b.kind == "exact" and b.applicable and b.value == 1344
    assert ct.counting(3, 2, 4, 4).get("gabidulin_fixed_theta").value == 303264


def test_counting_twisted_fixed_theta():
    # no admissible twist scalar exists over the binary field
    b2 = ct.counting(2, 2, 4, 4).get("twisted_fixed_theta")
    assert b2.value == 0 and "zero at q=2" in b2.note
    b3 = ct.counting(3, 2, 4, 4).get("twisted_fixed_theta")
    assert b3.value == 12130560 and b3.applicable


def test_counting_class_bounds():
    r = ct.counting(3, 2, 4, 4)
    b = r.get("gabidulin_classes_m_eq_n")
    assert b.value == 1            # phi(4)/2
    assert not b.applicable        # k = 2 is outside 2 < k < n-2
    assert r.get("gabidulin_classes_m_gt_n_lower").value is None  # needs m > n
    assert r.get("twisted_classes_m_eq_n").value == 11  # orbit count * phi/2

    big = ct.counting(2, 3, 8, 12)
    lo = big.get("gabidulin_all_theta_lower")
    hi = big.get("gabidulin_all_theta_upper")
    assert lo.applicable and hi.applicable and lo.value <= hi.value
    clo = big.get("gabidulin_classes_m_gt_n_lower")
    chi = big.get("gabidulin_classes_m_gt_n_upper")
    assert clo.applicable and chi.applicable and 1 <= clo.value <= chi.value


def test_counting_mrd_lower():
    b = ct.counting(2, 2, 4, 6).get("inequivalent_mrd_lower")
    assert b.applicable and b.value == 2
    with pytest.raises(KeyError):
        ct.counting(2, 2, 4, 6).get("no_such_bound")


@pytest.mark.parametrize("case", FP_FIELDS, ids=FP_IDS)
@pytest.mark.parametrize("k", [1, 2])
def test_eta_orbit_count_matches_the_field_walk(case, k):
    # exponents against every element's norm and Frobenius orbit; k*m is odd
    # for k = 1 and m = 3 or 5, where the walk excludes the norm -1 at odd p
    backend, p, e, m = case
    field = make_field(p, e, m, backend=backend)
    assert ct.count_aut_orbits_eta(p**e, m, k) == oracles.aut_orbits_eta(field, k)


def test_eta_orbit_count():
    assert ct.count_aut_orbits_eta(3, 2, 1) == 3
    # over F_2 every nonzero scalar has norm 1, leaving only eta = 0
    assert ct.count_aut_orbits_eta(2, 4, 2) == 1
    assert ct.count_aut_orbits_eta(2, 30, 1) is None  # beyond the field cap
    with pytest.raises(ValueError):
        ct.count_aut_orbits_eta(6, 2, 1)
    with pytest.raises(ValueError, match="m must be"):
        ct.count_aut_orbits_eta(3, 0, 1)


def test_q_to_pe_matches_sympy_factorint():
    for q in [*range(-2, 3001), 2**31 - 1, 2**61 - 1, (2**31 - 1) ** 2, 3**40, 2**89 - 1]:
        factors = sympy.factorint(q) if q > 1 else {}
        if len(factors) == 1:
            assert ct._q_to_pe(q) == next(iter(factors.items())), q
        else:
            with pytest.raises(ValueError, match=rf"^q = {q} is not a prime power$"):
                ct._q_to_pe(q)


def test_q_to_pe_rejects_a_hard_composite_without_factoring_it():
    # a small factor beside two 81-bit primes: splitting the cofactor by
    # Pollard rho would take about 2^40 steps
    p1, p2 = sympy.nextprime(2**80), sympy.nextprime(2**80 + 2**40)
    for q in [2 * p1 * p2, p1 * p2, (p1 * p2) ** 2, p1**3 * p2]:
        with pytest.raises(ValueError, match=rf"^q = {q} is not a prime power$"):
            ct._q_to_pe(q)
    assert ct._q_to_pe(p1**3) == (p1, 3)


# --------------------------------------------------------------------------
# distinguish
# --------------------------------------------------------------------------


def test_distinguish_worked_pair(worked_example_codes):
    gab, tw = worked_example_codes
    v = cl.distinguish(gab, tw, trials=10)
    assert v.status == "Inequivalent"
    assert v.witness["invariant"] == "consecutive"
    assert v.witness["sigma"] == 1


def test_distinguish_self_unknown(worked_example_codes):
    gab, _ = worked_example_codes
    v = cl.distinguish(gab, gab, trials=10)
    assert v.status == "Unknown" and v.witness is None


def test_distinguish_dimension_witness(f16):
    rng = DetRNG(2, "cls-dim")
    c1 = _gab(f16, 4, 2, rng.spawn("a"))
    c2 = _gab(f16, 4, 3, rng.spawn("b"))
    v = cl.distinguish(c1, c2)
    assert v.status == "Inequivalent" and v.witness["invariant"] == "dimension"


def test_distinguish_guards(f16, f2_8):
    rng = DetRNG(3, "cls-guards")
    c1 = _gab(f16, 4, 2, rng.spawn("a"))
    c2 = _gab(f2_8, 4, 2, rng.spawn("b"))
    with pytest.raises(ValueError):
        cl.distinguish(c1, c2)  # different fields
    c3 = _gab(f16, 3, 2, rng.spawn("c"))
    with pytest.raises(ValueError):
        cl.distinguish(c1, c3)  # different lengths


def test_distinguish_never_flags_equivalent_pairs(f16):
    for seed in range(3):
        rng = DetRNG(seed, "cls-equiv-pairs")
        code = _gab(f16, 4, 2, rng.spawn("code"))
        image = cd.apply_semilinear(code, _random_smap(f16, 4, rng.spawn("map")))
        v = cl.distinguish(code, image, trials=25, seed=seed)
        assert v.status == "Unknown"


# --------------------------------------------------------------------------
# brute-force equivalence
# --------------------------------------------------------------------------


def test_bruteforce_recovers_planted_map(f16):
    rng = DetRNG(7, "cls-bf-pos")
    code = _gab(f16, 4, 2, rng.spawn("code"))
    image = cd.apply_semilinear(code, _random_smap(f16, 4, rng.spawn("map")))
    v = cl.bruteforce_equivalent(code, image)
    assert v.status == "Equivalent"
    assert cd.code_equal(cd.apply_semilinear(code, v.witness["map"]), image)
    assert v.witness["tau"] == v.witness["map"].tau.j


def test_bruteforce_negative_agrees_with_invariants():
    f8 = make_field(2, 1, 3)
    g = (f8.alpha, f8.pow(f8.alpha, 2), f8.one)
    assert la.rank_q(f8, g) == 3
    mrd = cd.build(f8, cd.make_spec("Gabidulin", 3, 1, g=g))
    flat = cd.LinearCode.from_rows(f8, ((1, 1, 0),), 3)
    bf = cl.bruteforce_equivalent(mrd, flat)
    quick = cl.distinguish(mrd, flat)
    assert bf.status == "Inequivalent"
    assert bf.witness["invariant"] == "exhaustive-sweep"
    assert quick.status == "Inequivalent"


def test_bruteforce_trivial_and_budget(f16):
    rng = DetRNG(9, "cls-bf-budget")
    full = cd.LinearCode.from_rows(f16, la.identity(f16, 3), 3)
    v = cl.bruteforce_equivalent(full, full)
    assert v.status == "Equivalent"
    code = _gab(f16, 4, 2, rng.spawn("code"))
    image = cd.apply_semilinear(code, _random_smap(f16, 4, rng.spawn("map")))
    with pytest.raises(cd.BudgetExceeded):
        cl.bruteforce_equivalent(code, image, cap=1)


def _search_outcome(search, c1, c2, cap):
    """(status, detail, A, tau) of one search, or its BudgetExceeded message."""
    try:
        v = search(c1, c2, cap=cap)
    except cd.BudgetExceeded as exc:
        return "BudgetExceeded", str(exc)
    return v.status, v.detail, v.witness.get("A"), v.witness.get("tau")


def _random_pair(F, n, k, r):
    """A random [n, k] code c1 and a random [n, k] code c2 with an F_q row."""
    rows = [[F.random_element(r) for _ in range(n)] for _ in range(2 * k)]
    c1 = cd.LinearCode.from_rows(F, rows[:k], n)
    # a row over F_q gives c2 a rank-one word, which c1 mostly lacks
    flat = list(la.random_invertible_matrix_q(F, n, r)[:1])
    c2 = cd.LinearCode.from_rows(F, (flat + rows[k + 1:])[:k], n)
    return c1, c2


@pytest.mark.parametrize("case", FP_FIELDS, ids=FP_IDS)
def test_bruteforce_matches_former_search(case):
    """Semilinear images, random pairs and the trivial dimensions 0 and n,
    under the default cap and under caps of 0 and 1: the same verdict,
    detail, witness A and tau, or the same BudgetExceeded message, as the
    former search."""
    backend, p, e, m = case
    F = make_field(p, e, m, backend=backend)
    rng = DetRNG(83, f"bf-oracle/{backend}/{p}/{e}/{m}")
    n = 3
    seen = set()
    for k in range(n + 1):
        r = rng.spawn(f"k{k}")
        c1, c2 = _random_pair(F, n, k, r)
        image = cd.apply_semilinear(c1, _random_smap(F, n, r))
        for pair in ((c1, image), (c1, c2)):
            for cap in (1 << 22, 0, 1):
                got = _search_outcome(cl.bruteforce_equivalent, *pair, cap)
                assert got == _search_outcome(oracles.bruteforce_equivalent, *pair, cap)
                seen.add(got[0])
    assert seen == {"Equivalent", "Inequivalent", "BudgetExceeded"}


def test_bruteforce_skips_kernels_of_singular_matrices(monkeypatch):
    # c2 is spanned by an F_q-rational word, and for every tau the kernel
    # basis matrices of this pair share a right null vector: no combination
    # is invertible, so the search decides without a determinant
    F = make_field(3, 2, 3, backend="table")
    c1, c2 = _random_pair(F, 3, 1, DetRNG(83, "bf-oracle/table/3/2/3").spawn("k1"))
    calls = []
    det = la.det
    monkeypatch.setattr(la, "det", lambda field, A: calls.append(A) or det(field, A))
    v = cl.bruteforce_equivalent(c1, c2)
    assert v.status == "Inequivalent"
    assert calls == []
    # the skip keeps the budget: the kernels are still sized first
    with pytest.raises(cd.BudgetExceeded):
        cl.bruteforce_equivalent(c1, c2, cap=1)


# --------------------------------------------------------------------------
# orbits
# --------------------------------------------------------------------------


def test_orbit_size_and_membership(f16):
    rng = DetRNG(11, "cls-orbit")
    code = _gab(f16, 4, 2, rng.spawn("code"))
    orbit = oracles.orbit_of_code(code)
    # all Gabidulin codes at m = n = 4 form a single class of size 1344
    assert len(orbit) == 1344
    image = cd.apply_semilinear(code, _random_smap(f16, 4, rng.spawn("map")))
    assert image.gen in orbit
    with pytest.raises(cd.BudgetExceeded):
        oracles.orbit_of_code(code, cap=10)


# --------------------------------------------------------------------------
# Gabidulin recognition and decomposition
# --------------------------------------------------------------------------


def test_recognition_accepts_gabidulin(f16, worked_example_codes):
    rng = DetRNG(13, "cls-rec-gab")
    small = _gab(f16, 4, 2, rng)
    ok, crits = cl.is_theta_gabidulin(small, 1)
    assert ok and crits["mrd_plus_s1"] is True
    gab, _ = worked_example_codes
    ok, crits = cl.is_theta_gabidulin(gab, 1)
    assert ok
    assert crits["mrd_plus_s1"] is None  # codeword count beyond the cap
    assert crits["systematic"] is True


def test_recognition_rejects_twisted(worked_example_codes):
    _, tw = worked_example_codes
    ok, crits = cl.is_theta_gabidulin(tw, 1)
    assert not ok and crits["s_full_ladder"] is False


def test_recognition_accepts_both_reshaped_families():
    field = make_field(3, 1, 7)
    rng = DetRNG(17, "cls-rec-newgab")
    for family, k in (("NewGabI", 2), ("NewGabII", 4)):
        g = la.random_full_rank_vector(field, 5, rng.spawn(family))
        eta = next(
            a for a in range(1, field.Q)
            if cd.norm_condition_ok(field, k, a)
        )
        code = cd.build(field, cd.make_spec(family, 5, k, g=g, eta=eta))
        ok, _ = cl.is_theta_gabidulin(code, 1)
        assert ok


def test_recognition_rejects_generalized_twisted():
    field = make_field(3, 1, 9)
    rng = DetRNG(19, "cls-rec-gtw")
    g = la.random_full_rank_vector(field, 8, rng)
    spec = cd.make_spec("GeneralizedTwisted", 8, 3, g=g,
                        eta=(_nonzero(field, rng),), t=(2,), h=(0,))
    code = cd.build(field, spec)
    ok, crits = cl.is_theta_gabidulin(code, 1)
    assert not ok and crits["systematic"] is False


def _recognition_against_oracle(code, theta, dist_cap=1 << 20):
    """is_theta_gabidulin(code, theta), checked against mrd_plus_s1 computed
    from the oracle distance and the naive s_1: every criterion dict equals
    the tested one with that entry replaced, and the verdict is its one
    value."""
    verdict, crits = cl.is_theta_gabidulin(code, theta, dist_cap=dist_cap)
    n, k, Q = code.n, code.k, code.field.Q
    if (Q**k - 1) // (Q - 1) > dist_cap:
        want = None
    else:
        s1 = oracles.s_naive(code, theta, i_max=1)[1]
        want = oracles.min_distance_bruteforce(code) == n - k + 1 and s1 == k + 1
    expected = dict(crits, mrd_plus_s1=want)
    assert crits == expected
    assert {v for v in expected.values() if v is not None} == {verdict}
    return verdict, crits


def _every_f8_code():
    """Every [3, 2] code over F_8, by the rows of its RREF, freshly built."""
    f8 = make_field(2, 1, 3)
    rows = [((1, 0, a), (0, 1, b)) for a in range(8) for b in range(8)]
    rows += [((1, a, 0), (0, 0, 1)) for a in range(8)] + [((0, 1, 0), (0, 0, 1))]
    return [cd.LinearCode.from_rows(f8, r, 3) for r in rows]


def test_recognition_matches_oracle_on_every_f8_code():
    codes = _every_f8_code()
    verdicts = set()
    for code in codes:
        for theta in (1, 2):
            verdicts.add(_recognition_against_oracle(code, theta)[0])
    assert len(codes) == 73 and verdicts == {True, False}


def test_recognition_builds_no_basis(monkeypatch):
    # d > 1 is read off the ranks of the differences trie, and the MRD test
    # on the n-k = 1 side reads the dual row off the RREF: recognition at
    # min(k, n-k) = 1, which recovers no certificate, forms no intersection
    # basis and no kernel.  The [3,2] codes over F_8 take that test
    # whenever s_1 = 3; the [5,4] code over F_{3^7} is over the distance
    # cap, and the [4,3] code over F_{3^4} takes the test at odd p
    def refuse(*args, **kwargs):
        raise AssertionError("recognition formed a basis")

    monkeypatch.setattr(cd.Differences, "meet", refuse)
    monkeypatch.setattr(la, "nullspace", refuse)
    verdicts = set()
    for code in _every_f8_code():
        for theta in (1, 2):
            verdicts.add(cl.is_theta_gabidulin(code, theta)[0])
    assert verdicts == {True, False}
    rng = DetRNG(101, "cls-rec-no-basis")
    ok, crits = cl.is_theta_gabidulin(_gab(make_field(3, 1, 7), 5, 4, rng), 1)
    assert ok and crits["mrd_plus_s1"] is None
    ok, crits = cl.is_theta_gabidulin(_gab(make_field(3, 1, 4), 4, 3, rng), 1)
    assert ok and crits["mrd_plus_s1"] is True


def test_recognition_matches_oracle_on_twisted_and_offset_twists():
    seen = set()
    for (p, e, m, n, k) in ((2, 1, 6, 5, 2), (3, 1, 4, 4, 2), (2, 2, 3, 3, 2), (2, 1, 5, 5, 3)):
        field = make_field(p, e, m)
        rng = DetRNG(71, f"cls-rec-oracle/{p}/{e}/{m}/{n}/{k}")
        g = la.random_full_rank_vector(field, n, rng)
        specs = [cd.make_spec("Gabidulin", n, k, 1, g)]
        specs += [cd.make_spec("Twisted", n, k, 1, g, eta=_nonzero(field, rng)) for _ in range(3)]
        specs += [cd.make_spec("GeneralizedTwisted", n, k, 1, g, eta=(_nonzero(field, rng),),
                               t=(t,), h=(0,)) for t in range(1, n - k + 1)]
        for spec in specs:
            code = cd.build(field, spec)
            for theta in galois_generators(m):
                verdict, crits = _recognition_against_oracle(code, theta)
                seen.add((spec.family, verdict))
    assert ("Gabidulin", True) in seen and ("Twisted", False) in seen
    assert ("GeneralizedTwisted", False) in seen


def test_recognition_over_the_distance_cap_stays_none(f16):
    code = _gab(f16, 4, 2, DetRNG(73, "cls-rec-cap"))
    words = (f16.Q**2 - 1) // (f16.Q - 1)
    _, crits = _recognition_against_oracle(code, 1, dist_cap=words - 1)
    assert crits["mrd_plus_s1"] is None
    _, crits = _recognition_against_oracle(code, 1, dist_cap=words)
    assert crits["mrd_plus_s1"] is True


def _counted_mrd_decisions(monkeypatch):
    """The list that each MRD decision of is_theta_gabidulin appends its way
    to: "words" for codes._least_rank, "line" for codes._is_mrd_line,
    and "certificate" (or "no certificate", when it returns None) for
    classify._gabidulin_generator."""
    decisions = []
    for module, walk, name in ((cd, "words", "_least_rank"),
                               (cd, "line", "_is_mrd_line"),
                               (cl, "certificate", "_gabidulin_generator")):
        def counted(*args, walk=walk, decide=getattr(module, name)):
            out = decide(*args)
            decisions.append(walk if out is not None else "no " + walk)
            return out
        monkeypatch.setattr(module, name, counted)
    return decisions


def test_recognition_sweeps_only_when_s1_is_k_plus_1(f2_8, monkeypatch):
    # s_1 != k+1 settles mrd_plus_s1 with neither a certificate nor a rank
    # test; a Gabidulin code with min(k, n-k) >= 2 is certified, one with
    # min(k, n-k) = 1 takes one rank test, and one over the distance cap
    # (k = 4: 256^4/255 words) does neither
    decisions = _counted_mrd_decisions(monkeypatch)
    rng = DetRNG(79, "cls-rec-count")
    g = la.random_full_rank_vector(f2_8, 5, rng)
    for k, want in ((2, ["certificate"]), (3, ["certificate"]), (1, ["line"]), (4, [])):
        decisions.clear()
        if k in (2, 3):
            tw = cd.build(f2_8, cd.make_spec("Twisted", 5, k, 1, g, eta=_nonzero(f2_8, rng)))
            assert inv.s_sequence(tw, 1, i_max=1)[1] != k + 1
            ok, crits = cl.is_theta_gabidulin(tw, 1)
            assert not ok and crits["mrd_plus_s1"] is False and decisions == []
        gab = cd.build(f2_8, cd.make_spec("Gabidulin", 5, k, 1, g))
        ok, crits = cl.is_theta_gabidulin(gab, 1)
        assert ok and crits["mrd_plus_s1"] is (True if want else None) and decisions == want


def test_recognition_certifies_or_takes_the_subspace_walk(f2_8, f3_5, monkeypatch):
    # k = 1 takes the one rank test; [5,2] over F_{3^5} and over F_{2^8},
    # and [6,3] over F_{2^8}, are certified by a recovered generator and take
    # no rank test; no MRD decision sweeps codewords
    decisions = _counted_mrd_decisions(monkeypatch)
    rng = DetRNG(83, "cls-rec-walk")
    for field, n, k in ((f2_8, 4, 1), (f3_5, 5, 2), (f2_8, 5, 2), (f2_8, 6, 3)):
        decisions.clear()
        ok, crits = cl.is_theta_gabidulin(_gab(field, n, k, rng), 1)
        want = ["certificate"] if min(k, n - k) >= 2 else ["line"]
        assert ok and crits["mrd_plus_s1"] is True and decisions == want


def test_recognition_walks_the_smaller_side(f16, f2_8, f3_5, monkeypatch):
    # the rank test decides C itself, on the side of dimension one: k = 1,
    # or n-k = 1 through the dual row read off the RREF (test_codes checks
    # both sides).  It runs only when min(k, n-k) = 1: otherwise the
    # certificate answers
    walked = []
    walk = cd._is_mrd_line
    monkeypatch.setattr(cd, "_is_mrd_line", lambda code: walked.append(code.k) or walk(code))
    certified = []
    recover = cl._gabidulin_generator
    monkeypatch.setattr(cl, "_gabidulin_generator",
                        lambda code, theta: certified.append(code.k) or recover(code, theta))
    rng = DetRNG(89, "cls-rec-side")
    for field, n, k in ((make_field(2, 1, 3), 3, 2), (f16, 4, 3), (f16, 4, 2), (f2_8, 5, 2),
                        (f3_5, 5, 3), (make_field(3, 1, 4), 4, 3), (make_field(2, 1, 5), 5, 4),
                        (make_field(2, 1, 6), 6, 4)):
        walked.clear()
        certified.clear()
        ok, crits = cl.is_theta_gabidulin(_gab(field, n, k, rng), 1)
        assert ok and crits["mrd_plus_s1"] is True
        if min(k, n - k) == 1:
            assert walked == [k] and certified == []
        else:
            assert walked == [] and certified == [k]


def test_recognition_without_a_certificate_does_not_walk(f2_8, monkeypatch):
    # the Moore rows of g of F_q-rank r < n, k + 1 <= r: s_1 = k+1, but the
    # code is not Gabidulin, so by Horlemann-Trautmann and Marshall not MRD.
    # With min(k, n-k) >= 2 the missing certificate says so, and no rank
    # test runs; the determinant oracle agrees
    decisions = _counted_mrd_decisions(monkeypatch)
    rng = DetRNG(107, "cls-rec-no-certificate")
    for n, k, r in ((5, 2, 3), (6, 2, 4), (6, 3, 4), (6, 3, 5)):
        basis = la.random_full_rank_vector(f2_8, r, rng)
        g = basis + tuple(f2_8.add(basis[i], basis[i + 1]) for i in range(n - r))
        code = cd.LinearCode.from_rows(f2_8, la.moore_matrix(f2_8, g, k, GaloisAut(f2_8, 1)), n)
        assert code.k == k and la.rank_q(f2_8, g) == r
        assert inv.s_sequence(code, 1, i_max=1)[1] == k + 1
        assert not oracles.is_mrd_by_determinants(code)
        decisions.clear()
        ok, crits = cl.is_theta_gabidulin(code, 1)
        assert not ok and crits["mrd_plus_s1"] is False and decisions == ["no certificate"]


@pytest.mark.parametrize("case", FP_FIELDS + TOWER_FIELDS, ids=FP_IDS + TOWER_IDS)
def test_gabidulin_generator_matches_the_definition(case):
    """classify._gabidulin_generator for every generating theta, 2 <= n <= m
    and 1 <= k <= n-1.  On Gab_{theta,k}(g) it returns a multiple of g.  On
    twisted, planted rank-one and random codes it returns a generator exactly
    when the code is theta-Gabidulin by the characterization of
    Horlemann-Trautmann and Marshall (MRD by the determinant oracle, and
    s_1 = k+1 by s_naive), and None otherwise, never raising.  Every
    generator returned passes the oracle-only checker."""
    backend, p, e, m = case
    F = make_field(p, e, m, backend=backend)
    rng = DetRNG(97, f"gab-generator/{backend}/{p}/{e}/{m}")
    meet_dims, verdicts = set(), set()
    for theta in galois_generators(m):
        for n in range(2, m + 1):
            g = la.random_full_rank_vector(F, n, rng)
            for k in range(1, n):
                gab = cd.build(F, cd.make_spec("Gabidulin", n, k, theta, g))
                got = cl._gabidulin_generator(gab, theta)
                assert got is not None and la.rank(F, (g, got)) == 1
                assert certify.check(gab, theta, got)
                tw = cd.build(F, cd.make_spec("Twisted", n, k, theta, g, eta=_nonzero(F, rng)))
                # r >= 1 rows over F_q, which every theta^i(C) contains, on
                # top of k - r Moore rows of g
                planted = [cd.LinearCode.from_rows(
                    F, la.random_invertible_matrix_q(F, n, rng)[:r]
                    + la.moore_matrix(F, g, k - r, GaloisAut(F, theta)), n) for r in range(1, k + 1)]
                rows = [[F.random_element(rng) for _ in range(n)] for _ in range(k)]
                # never Gabidulin: a twist with 2 <= k <= n-2 (s_1 = k+2), and
                # a code holding an F_q-row (F_q-rank 1 < n-k+1)
                cases = [(tw, 2 <= k <= n - 2), *((c, True) for c in planted),
                         (cd.LinearCode.from_rows(F, rows, n), False)]
                for code, never in cases:
                    got = cl._gabidulin_generator(code, theta)
                    # a random code may come out of dimension below k
                    want = (oracles.is_mrd_by_determinants(code)
                            and oracles.s_naive(code, theta, i_max=1)[1] == code.k + 1)
                    assert (got is not None) == want and not (never and want), (code.gen, theta)
                    if want:
                        assert certify.check(code, theta, got)
                    exps = [theta * i for i in range(1, code.k)]
                    meet_dims.add(min(len(code.diffs.meet(exps)), 2))
                    verdicts.add(want)
    # V = 0 needs a k >= 2 code with 2k <= n, so m >= 4
    assert meet_dims == ({0, 1, 2} if m >= 4 else {1, 2}) and verdicts == {True, False}


def test_gabidulin_generator_checks_the_intersection_it_is_given(f2_8, monkeypatch):
    # with V read off the trie correctly, rank_q(g') = n already puts the k
    # Moore rows of g' in C; the span check is what still rejects a V that a
    # faulty trie got wrong, here theta^2(h) for another full-rank h in
    # place of the line of theta^2(g)
    rng = DetRNG(103, "cls-gab-generator-check")
    g = la.random_full_rank_vector(f2_8, 6, rng)
    code = cd.build(f2_8, cd.make_spec("Gabidulin", 6, 3, 1, g))
    meet = cd.Differences.meet
    right = meet(code.diffs, [1, 2])
    assert len(right) == 1 and cl._gabidulin_generator(code, 1) is not None
    h = la.random_full_rank_vector(f2_8, 6, rng)
    wrong = GaloisAut(f2_8, 2).on_vector(h)
    assert la.rank(f2_8, (wrong, right[0])) == 2
    monkeypatch.setattr(cd.Differences, "meet", lambda self, exps: (wrong,))
    assert cl._gabidulin_generator(code, 1) is None


def test_recognition_guards(f16):
    rng = DetRNG(23, "cls-rec-guards")
    code = _gab(f16, 4, 2, rng)
    with pytest.raises(ValueError):
        cl.is_theta_gabidulin(code, 2)  # gcd(2, 4) != 1
    full = cd.LinearCode.from_rows(f16, la.identity(f16, 4), 4)
    with pytest.raises(ValueError):
        cl.is_theta_gabidulin(full, 1)  # k = n
    long_row = cd.LinearCode.from_rows(f16, ((1, 0, 0, 0, 0),), 5)
    with pytest.raises(ValueError):
        cl.is_theta_gabidulin(long_row, 1)  # n > m


def test_rank_one_decomposition_pure_gabidulin(f2_8):
    rng = DetRNG(29, "cls-dec-pure")
    code = _gab(f2_8, 6, 3, rng)
    c1, t, g = oracles.rank_one_decomposition(code, 1)
    assert c1.k == 0 and t == 3 and g is not None
    rebuilt = cd.LinearCode.from_rows(
        f2_8, la.moore_matrix(f2_8, g, 3, GaloisAut(f2_8, 1)), 6)
    assert cd.code_equal(rebuilt, code)


def test_rank_one_decomposition_flat_code(f16):
    flat = cd.LinearCode.from_rows(f16, ((1, 0, 0, 0), (0, 1, 1, 0)), 4)
    c1, t, g = oracles.rank_one_decomposition(flat, 1)
    assert t == 0 and g is None and cd.code_equal(c1, flat)


def test_rank_one_decomposition_mixed(f2_8):
    rng = DetRNG(31, "cls-dec-mixed")
    g = la.random_full_rank_vector(f2_8, 6, rng)
    rows = ((1, 1, 0, 0, 0, 0),) + la.moore_matrix(f2_8, g, 2, GaloisAut(f2_8, 1))
    code = cd.LinearCode.from_rows(f2_8, rows, 6)
    assert code.k == 3
    c1, t, g_out = oracles.rank_one_decomposition(code, 1)
    assert c1.k == 1 and t == 2 and g_out is not None
    assert la.rank(f2_8, code.gen + (g_out,)) == code.k


@pytest.mark.parametrize("case", FP_FIELDS, ids=FP_IDS)
def test_rank_one_decomposition_matches_iterate_oracle(case):
    """F_q-rows plus a t-row Gabidulin part, for every generator theta: C1,
    t and the chosen generator g are those of the iterated intersections."""
    backend, p, e, m = case
    F = make_field(p, e, m, backend=backend)
    rng = DetRNG(79, f"rank-one-iterates/{backend}/{p}/{e}/{m}")
    seen_t = set()
    for r in galois_generators(m):
        theta = GaloisAut(F, r)
        for n in range(2, m + 1):
            flat = la.random_invertible_matrix_q(F, n, rng.spawn(f"A/{r}/{n}"))
            g = la.random_full_rank_vector(F, n, rng.spawn(f"g/{r}/{n}"))
            for k in range(1, n + 1):
                for t in range(k + 1):
                    code = cd.LinearCode.from_rows(
                        F, flat[: k - t] + la.moore_matrix(F, g, t, theta), n)
                    iterates = oracles.rank_one_iterates(code, r)
                    c1, t_out, g_out = oracles.rank_one_decomposition(code, r)
                    assert c1.gen == iterates[-1]
                    assert t_out == code.k - c1.k == len(iterates) - 1
                    seen_t.add(t_out)
                    if t_out == 0:
                        assert g_out is None
                        continue
                    # the first row of T_(t-1) outside C1, shifted back
                    v = next(row for row in iterates[t_out - 1]
                             if la.rank(F, c1.gen + (row,)) > c1.k)
                    assert g_out == theta.power(-(t_out - 1)).on_vector(v)
    assert seen_t == set(range(m))


def test_rank_one_decomposition_guards(f2_8):
    rng = DetRNG(37, "cls-dec-guards")
    g = la.random_full_rank_vector(f2_8, 6, rng)
    spec = cd.make_spec("Twisted", 6, 2, g=g, eta=f2_8.alpha)
    wide = cd.build(f2_8, spec)  # s_1 = k + 2 for this construction
    with pytest.raises(ValueError):
        oracles.rank_one_decomposition(wide, 1)
    code = _gab(f2_8, 6, 2, rng.spawn("x"))
    with pytest.raises(ValueError):
        oracles.rank_one_decomposition(code, 2)  # gcd(2, 8) != 1


# --------------------------------------------------------------------------
# the set of generators a Gabidulin code answers to
# --------------------------------------------------------------------------


def _generator_exponents_with_minimal_growth(code):
    """{r coprime to m : dim(C + theta^r C) = k+1}.  For an MRD code this
    pins exactly the generators it is Gabidulin for."""
    m = code.field.m
    return {
        r for r in galois_generators(m)
        if inv.s_sequence(code, r, i_max=1)[1] == code.k + 1
    }


def test_generator_set_of_worked_example(worked_example_codes):
    gab, _ = worked_example_codes
    found = _generator_exponents_with_minimal_growth(gab)
    assert found == {1, 14}


def test_generator_set_window_property():
    # dim-growth exponent sets avoid {2..n-2} and meet any n-1 consecutive
    # residues in at most two points
    field = make_field(2, 1, 14)
    n, k, m = 7, 3, 14
    for seed in range(3):
        rng = DetRNG(seed, "cls-aset")
        code = _gab(field, n, k, rng)
        found = _generator_exponents_with_minimal_growth(code)
        assert 1 in found and m - 1 in found
        assert not found & set(range(2, n - 1))
        for b in range(m):
            window = {(b + i) % m for i in range(n - 1)}
            assert len(found & window) <= 2


# --------------------------------------------------------------------------
# computed inequivalence facts
# --------------------------------------------------------------------------


def test_twist_always_separates_from_gabidulin():
    # [8,3] over F_{2^13}: every twist scalar changes the fingerprint
    field = make_field(2, 1, 13)
    for seed in range(3):
        rng = DetRNG(seed, "cls-sep-tw")
        g = la.random_full_rank_vector(field, 8, rng)
        gab = cd.build(field, cd.make_spec("Gabidulin", 8, 3, g=g))
        eta = _nonzero(field, rng)
        tw = cd.build(field, cd.make_spec("Twisted", 8, 3, g=g, eta=eta))
        assert inv.fingerprint_consecutive(gab) != inv.fingerprint_consecutive(tw)


def test_offset_twist_separates_from_both():
    # [8,3] over F_{3^9}, twist offset 2: distinct from the Gabidulin and
    # plain-twisted codes on the same evaluation vector
    field = make_field(3, 1, 9)
    for seed in range(3):
        rng = DetRNG(seed, "cls-sep-gtw")
        g = la.random_full_rank_vector(field, 8, rng)
        gab = cd.build(field, cd.make_spec("Gabidulin", 8, 3, g=g))
        eta_bar = next(
            a for a in range(1, field.Q)
            if cd.norm_condition_ok(field, 3, a)
        )
        tw = cd.build(field, cd.make_spec("Twisted", 8, 3, g=g, eta=eta_bar))
        gtw = cd.build(field, cd.make_spec(
            "GeneralizedTwisted", 8, 3, g=g,
            eta=(_nonzero(field, rng),), t=(2,), h=(0,)))
        fp = inv.fingerprint_consecutive(gtw)
        assert fp != inv.fingerprint_consecutive(gab)
        assert fp != inv.fingerprint_consecutive(tw)


# --------------------------------------------------------------------------
# census
# --------------------------------------------------------------------------


def test_census_small_run():
    report, field = cl.census(3, 6, 2, seed=42, trials=8)
    assert (report.q, report.n, report.m, report.k) == (3, 6, 12, 2)
    assert report.ub == 16 == len(report.params)
    assert 1 <= report.lb1 <= report.ub
    assert 1 <= report.lb2 <= report.ub
    assert all(field.in_subfield(a, 6) for a in report.g)
    assert not field.in_subfield(report.eta, 6)
    again, _ = cl.census(3, 6, 2, seed=42, trials=8)
    assert again == report


@pytest.mark.parametrize("jobs", [0, -3])
def test_census_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        cl.census(3, 6, 2, seed=1, trials=1, jobs=jobs)


def test_census_jobs_run_in_process(monkeypatch):
    # jobs is validated and echoed, but the classes run in this process: a
    # process pool made to fail is never started, and the report is the same
    import concurrent.futures

    serial, _ = cl.census(2, 6, 2, seed=1, trials=4, jobs=1)

    def refuse(*args, **kwargs):
        raise AssertionError("census started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    again, _ = cl.census(2, 6, 2, seed=1, trials=4, jobs=2)
    assert again == serial


def test_census_guards():
    with pytest.raises(ValueError):
        cl.census(3, 5, 2, seed=0)
    with pytest.raises(ValueError):
        cl.census(3, 6, 1, seed=0)
    with pytest.raises(ValueError):
        cl.census(3, 6, 5, seed=0)


def test_census_never_computes_a_dual(monkeypatch):
    """Nor builds a code or eliminates: the keys come off the frame of g."""
    calls = []
    targets = [(cd, "dual"), (cd, "build"), (cd.Differences, "ranks"),
               (la.IncrementalRank, "add_row")]

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in targets:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    for q in (2, 3):
        report, field = cl.census(q, 6, 2, seed=1, trials=4)
    assert calls == []
    monkeypatch.undo()
    # the keys are the ones the public fingerprints give
    for (r, t, h), fp1, fp2 in zip(report.params, report.fingerprints1, report.fingerprints2):
        spec = cd.make_spec("GeneralizedTwisted", 6, 2, r, report.g,
                            eta=(report.eta,), t=(t,), h=(h,))
        code = cd.build(field, spec)
        assert fp1 == inv.fingerprint_consecutive(code).key
        assert fp2 == inv.fingerprint_random_triples(code, trials=4, seed=1).key


def test_each_code_computes_its_differences_once(monkeypatch, f2_8):
    made = []
    real_init = cd.Differences.__init__

    def counting_init(self, code):
        made.append(code)
        real_init(self, code)

    monkeypatch.setattr(cd.Differences, "__init__", counting_init)
    rng = DetRNG(83, "diffs-once")
    gab = _gab(f2_8, 6, 3, rng.spawn("gab"))
    g = la.random_full_rank_vector(f2_8, 6, rng.spawn("g"))
    tw = cd.build(f2_8, cd.make_spec("Twisted", 6, 3, 1, g, eta=f2_8.alpha))
    assert made == []
    # the s-row, the stable part and the systematic criterion share one cache
    cl.is_theta_gabidulin(gab, 1)
    assert made == [gab]
    cl.distinguish(gab, tw, trials=10)
    image = cd.apply_semilinear(tw, _random_smap(f2_8, 6, rng.spawn("map")))
    assert cl.distinguish(tw, image, trials=10).status == "Unknown"
    oracles.rank_one_decomposition(gab, 1)
    assert len(made) == 3 and all(c is d for c, d in zip(made, (gab, tw, image)))
    # C1 of a mixed code is a new code, which gets its own cache
    rows = ((1, 1, 0, 0, 0, 0),) + la.moore_matrix(f2_8, g, 2, GaloisAut(f2_8, 1))
    mixed = cd.LinearCode.from_rows(f2_8, rows, 6)
    c1, _, _ = oracles.rank_one_decomposition(mixed, 1)
    assert made[3] is mixed and made[4] is c1 and len(made) == 5
    assert len({id(c) for c in made}) == len(made)
