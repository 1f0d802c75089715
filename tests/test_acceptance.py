"""Blocking acceptance suite.

Nine criteria, one test function each (``test_criterion_<N>_...``), so
``pytest -v`` emits exactly one PASS/FAIL line per criterion.  All asserted
quantities are integers, so every comparison is exact; each criterion with a
wall-clock budget asserts it and prints a one-line summary (visible with
``pytest -s`` and in failure output).
"""

import itertools
import math
import time

from conftest import (
    WORKED_EXAMPLE_ETA_POWER,
    WORKED_EXAMPLE_G_POWERS,
    WORKED_EXAMPLE_MODULUS,
)

import oracles
import rankinv.classify as cl
import rankinv.codes as cd
import rankinv.counting as ct
import rankinv.invariants as inv
import rankinv.linalg as la
from rankinv.gf import FullAut, GaloisAut, galois_generators, make_field
from rankinv.rng import DetRNG

SEED = 20260817


def _finish(num, t0, budget, detail):
    elapsed = time.monotonic() - t0
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {num} exceeded its budget: {elapsed:.1f}s >= {budget}s"
        )
        print(f"[criterion {num}] PASS - {detail} ({elapsed:.2f}s < {budget:.0f}s budget)")
    else:
        print(f"[criterion {num}] PASS - {detail} ({elapsed:.2f}s)")


# --------------------------------------------------------------------------
# criterion 1: the worked [8, 3] pair reproduces every golden s-row
# --------------------------------------------------------------------------

# s_1, s_2, ... up to and including the first repeated value, per sigma = theta^r.
GOLDEN_GAB_ROWS = {
    1: (4, 5, 6, 7, 8, 8),
    2: (5, 7, 8, 8),
    3: (6, 8, 8),
    4: (6, 8, 8),
    5: (6, 8, 8),
    6: (6, 8, 8),
    7: (6, 7, 8, 8),
    8: (6, 7, 8, 8),
    9: (6, 8, 8),
    10: (6, 8, 8),
    11: (6, 8, 8),
    12: (6, 8, 8),
    13: (5, 7, 8, 8),
    14: (4, 5, 6, 7, 8, 8),
}
GOLDEN_TW_ROWS = {r: (5, 6, 7, 8, 8) if r in (1, 14) else (6, 8, 8) for r in range(1, 15)}


def test_criterion_1_golden_sequence_tables():
    t0 = time.monotonic()
    field = make_field(2, 1, 15, modulus=WORKED_EXAMPLE_MODULUS)
    g = tuple(field.alpha_pow(j) for j in WORKED_EXAMPLE_G_POWERS)
    eta = field.alpha_pow(WORKED_EXAMPLE_ETA_POWER)
    gab = cd.build(field, cd.make_spec("Gabidulin", 8, 3, 1, g))
    tw = cd.build(field, cd.make_spec("Twisted", 8, 3, 1, g, eta=eta))
    for r in range(1, 15):
        seq = inv.s_sequence(gab, r)
        assert seq[0] == 3 and tuple(seq[1:]) == GOLDEN_GAB_ROWS[r], (r, seq)
        seq = inv.s_sequence(tw, r)
        assert seq[0] == 3 and tuple(seq[1:]) == GOLDEN_TW_ROWS[r], (r, seq)
    _finish(1, t0, 5.0, "28 golden s-rows reproduced exactly")


# --------------------------------------------------------------------------
# criterion 2: census upper-bound table for n = 6, 7, 8
# --------------------------------------------------------------------------

UB_TABLE = {
    6: (16, 18, 16),
    7: (30, 36, 36, 30),
    8: (48, 60, 64, 60, 48),
}


def test_criterion_2_census_upper_bounds():
    t0 = time.monotonic()
    for n, row in UB_TABLE.items():
        got = tuple(ct.census_ub(n, k) for k in range(2, n - 1))
        assert got == row, (n, got)
    _finish(2, t0, 1.0, "census UB rows for n=6,7,8 match the frozen table")


# --------------------------------------------------------------------------
# criterion 3: closed-form s/t laws on random evaluation vectors
# --------------------------------------------------------------------------


def _ceil_div(a, b):
    return -(-a // b)


def _check_gabidulin_laws(code, r):
    """Asserts every applicable closed-form case; returns how many applied."""
    n, k, m = code.n, code.k, code.field.m
    applied = 0
    s1 = inv.s_sequence(code, r, i_max=1)[1]
    t1 = inv.t_sequence(code, r, i_max=1)[1]
    if r <= k or r >= m - k:
        rr = r if r <= k else m - r
        s = inv.s_sequence(code, r, i_max=n - k + 1)
        t = inv.t_sequence(code, r, i_max=k + 1)
        assert s == [min(k + i * rr, n) for i in range(n - k + 2)], (r, s)
        assert t == [max(k - i * rr, 0) for i in range(k + 2)], (r, t)
        applied += 1
    if (k < r <= n - k) or (m - n + k <= r < m - k):
        assert s1 == 2 * k and t1 == 0, (r, s1, t1)
        applied += 1
    if r > k and r > n - k:
        assert s1 >= k + n - r and t1 <= k - n + r, (r, s1, t1)
        applied += 1
    if r < m - k and r < m - n + k:
        assert s1 >= k + n - m + r and t1 <= k - n + m - r, (r, s1, t1)
        applied += 1
    return applied


def _check_twisted_laws(code, r):
    n, k, m = code.n, code.k, code.field.m
    applied = 0
    s1 = inv.s_sequence(code, r, i_max=1)[1]
    t1 = inv.t_sequence(code, r, i_max=1)[1]
    if 1 <= r <= k - 1 or m - k + 1 <= r <= m - 1:
        rr = r if r <= k - 1 else m - r
        s = inv.s_sequence(code, r, i_max=n - k + 1)
        t = inv.t_sequence(code, r, i_max=k + 1)
        assert s[0] == k and t[0] == k
        for i in range(1, n - k + 2):
            assert s[i] == min(k + i * rr + 1, n), (r, i, s)
        for i in range(1, k + 2):
            assert t[i] == max(k - i * rr - 1, 0), (r, i, t)
        applied += 1
    if (k <= r <= n - k) or (m - n + k <= r <= m - k):
        assert s1 == 2 * k and t1 == 0, (r, s1, t1)
        applied += 1
    if r >= k and r > n - k:
        assert s1 >= k + n - r and t1 <= k - n + r, (r, s1, t1)
        applied += 1
    if r <= m - k and r < m - n + k:
        assert s1 >= k + n - m + r and t1 <= k - n + m - r, (r, s1, t1)
        applied += 1
    return applied


def _check_offset_twist_laws(code, r, tw):
    """Hook position 0, twist offset tw: the s-side laws (no t-side law)."""
    n, k, m = code.n, code.k, code.field.m
    applied = 0
    s1 = inv.s_sequence(code, r, i_max=1)[1]
    if 1 <= r <= k - 1 or m - k + 1 <= r <= m - 1:
        rr = r if r <= k - 1 else m - r
        s = inv.s_sequence(code, r, i_max=n - k + 1)
        for i in range(1, n - k + 2):
            assert s[i] >= min(k + i * rr, n), (r, i, s)
            if tw + i * rr <= n - k:
                assert s[i] == min(k + i * rr + min(i, _ceil_div(tw, rr)), n), (r, i, s)
        applied += 1
    if (k <= r <= n - k - 1) or (m - n + k + 1 <= r <= m - k):
        assert s1 == 2 * k, (r, s1)
        applied += 1
    if r >= k and r >= n - k:
        assert s1 >= k + n - r - 1, (r, s1)
        applied += 1
    if r <= m - k and r <= m - n + k:
        assert s1 >= k + n - m + r - 1, (r, s1)
        applied += 1
    return applied


def test_criterion_3_closed_form_laws_on_random_codes():
    t0 = time.monotonic()
    trials = 20
    for (q, m, n, k) in [(2, 15, 8, 3), (2, 12, 6, 2), (3, 10, 5, 2)]:
        field = make_field(q, 1, m)
        rng = DetRNG(SEED, f"accept-c3/{q}/{m}/{n}/{k}")
        for _ in range(trials):
            g = la.random_full_rank_vector(field, n, rng)
            eta = field.alpha_pow(rng.randbelow(field.Qm1))
            gab = cd.build(field, cd.make_spec("Gabidulin", n, k, 1, g))
            twc = cd.build(field, cd.make_spec("Twisted", n, k, 1, g, eta=eta))
            gtw = cd.build(field, cd.make_spec("GeneralizedTwisted", n, k, 1, g,
                                               eta=(eta,), t=(2,), h=(0,)))
            for r in range(m):
                assert _check_gabidulin_laws(gab, r) >= 1, ("gab uncovered", r)
            for r in range(1, m):
                assert _check_twisted_laws(twc, r) >= 1, ("tw uncovered", r)
                assert _check_offset_twist_laws(gtw, r, 2) >= 1, ("gtw uncovered", r)

    # subfield evaluation vector: hooked offset twist forces s_1 >= k + 3
    field = make_field(2, 1, 20)
    rng = DetRNG(SEED, "accept-c3/subfield")
    units = galois_generators(20)
    for _ in range(trials):
        g = la.random_full_rank_vector(field, 10, rng, subfield_size=2**10)
        eta = field.alpha_pow(rng.randbelow(field.Qm1))
        code = cd.build(field, cd.make_spec("GeneralizedTwisted", 10, 5, 1, g,
                                            eta=(eta,), t=(3,), h=(2,)))
        for r in units:
            assert inv.s_sequence(code, r, i_max=1)[1] >= 5 + 3, r
    _finish(3, t0, 120.0,
            f"{trials} random vectors per parameter set match every applicable law")


# --------------------------------------------------------------------------
# criterion 4: structural property suite on random codes
# --------------------------------------------------------------------------


def _random_family_code(field, rng, n_hi=None):
    m = field.m
    n_hi = n_hi or min(m, 6)
    n = 3 + rng.randbelow(n_hi - 2)
    k = 1 + rng.randbelow(n - 1)
    units = galois_generators(m)
    th = units[rng.randbelow(len(units))]
    g = la.random_full_rank_vector(field, n, rng)
    eta = field.alpha_pow(rng.randbelow(field.Qm1))
    fam = cd.FAMILIES[rng.randbelow(len(cd.FAMILIES))]
    try:
        if fam == "Gabidulin":
            spec = cd.make_spec("Gabidulin", n, k, th, g)
        elif fam == "Twisted":
            spec = cd.make_spec("Twisted", n, k, th, g, eta=eta)
        elif fam == "GeneralizedTwisted":
            t = 1 + rng.randbelow(n - k)
            spec = cd.make_spec("GeneralizedTwisted", n, k, th, g,
                                eta=(eta,), t=(t,), h=(rng.randbelow(k),))
        else:
            spec = cd.make_spec(fam, n, k, th, g, eta=eta)
        return cd.build(field, spec)
    except cd.BuildError:
        return cd.build(field, cd.make_spec("Gabidulin", n, k, th, g))


def _random_plain_code(field, n, k, rng):
    rows = [tuple(rng.randbelow(field.Q) for _ in range(n)) for _ in range(k)]
    code = cd.LinearCode.from_rows(field, rows, n)
    if not 1 <= code.k <= n - 1:
        return _random_plain_code(field, n, k, rng)
    return code


def _deficient_row_code(field, n, k, w, rng):
    base = la.random_full_rank_vector(field, w, rng)
    g = list(base)
    i = 0
    while len(g) < n:
        g.append(field.add(base[i % w], base[(i + 1) % w]))
        i += 1
    rows = la.moore_matrix(field, tuple(g), k, GaloisAut(field, 1))
    return cd.LinearCode.from_rows(field, rows, n)


def test_criterion_4_structural_property_suite():
    t0 = time.monotonic()
    fields = [make_field(2, 1, 4), make_field(2, 1, 8), make_field(3, 1, 5),
              make_field(2, 2, 3)]
    assert len({f.Q for f in fields}) >= 3
    n_codes = 0
    n_nonvacuous_plateaus = 0
    for field in fields:
        m = field.m
        rng = DetRNG(SEED, f"accept-c4/{field.q}/{m}")
        units = galois_generators(m)
        codes = [_random_family_code(field, rng) for _ in range(13)]
        codes += [_random_plain_code(field, 3 + rng.randbelow(min(m, 5) - 2),
                                     2, rng) for _ in range(9)]
        nd = min(m, 5)
        codes += [_deficient_row_code(field, nd, 2, nd - 2, rng) for _ in range(4)]
        for code in codes:
            n_codes += 1
            n, k = code.n, code.k
            r_unit = units[rng.randbelow(len(units))]
            r_any = rng.randbelow(m)
            for r in {r_unit, r_any}:
                # intersection/sum duality
                sd = inv.s_sequence(cd.dual(code), r, i_max=3)
                td = oracles.t_direct(code, r, i_max=3)
                assert td == [n - v for v in sd], (r, td, sd)
                # first-step dimension identity
                s = inv.s_sequence(code, r, i_max=n - k + 1)
                t = inv.t_sequence(code, r, i_max=k + 1)
                assert t[1] == 2 * k - s[1]
                # monotone increments, equal at the first step
                prof = inv.invariant_profile(code, r)
                for seq in (prof.delta, prof.lam):
                    assert all(seq[i] >= seq[i + 1] for i in range(len(seq) - 1))
                assert prof.delta[0] == prof.lam[0] == s[1] - k
                # stabilization indices
                assert s[n - k] == s[n - k + 1]
                assert t[k] == t[k + 1]
            # plateau value is spanned by vectors with subfield entries
            # (generator exponents only)
            seq = inv.s_sequence(code, r_unit)
            plateau = len(seq) - 1
            sig = GaloisAut(field, r_unit)
            stable = inv.sum_code(code, [sig.power(j) for j in range(plateau + 1)])
            assert stable.k == seq[-1]
            dim_sub, rows = oracles.subfield_subcode(stable)
            assert dim_sub == stable.k
            assert all(field.in_subfield(a, 1) for row in rows for a in row)
            assert rows == la.rref(field, oracles.subfield_kernel(stable))[0]
            if stable.k < n:
                n_nonvacuous_plateaus += 1
            # composing sum operators adds their depths
            i, j = 1 + rng.randbelow(2), 1 + rng.randbelow(2)
            inner = inv.sum_code(code, [sig.power(b) for b in range(i + 1)])
            outer = inv.sum_code(inner, [sig.power(a) for a in range(j + 1)])
            direct = inv.sum_code(code, [sig.power(c) for c in range(i + j + 1)])
            assert cd.code_equal(outer, direct)
    assert n_codes >= 100
    assert n_nonvacuous_plateaus >= 8  # the deficient-rank codes bite
    _finish(4, t0, 120.0,
            f"six structural properties hold on {n_codes} codes over 4 field sizes")


# --------------------------------------------------------------------------
# criterion 5: fast and naive sum-sequence computations agree
# --------------------------------------------------------------------------


def test_criterion_5_fast_equals_naive():
    t0 = time.monotonic()
    fields = [make_field(2, 1, 4), make_field(2, 1, 8), make_field(3, 1, 5),
              make_field(2, 2, 3)]
    pairs = 0
    for field in fields:
        rng = DetRNG(SEED, f"accept-c5/{field.q}/{field.m}")
        for _ in range(42):
            code = _random_family_code(field, rng)
            for _ in range(3):
                r = 1 + rng.randbelow(field.m - 1)
                fast = inv.s_sequence(code, r)
                naive = oracles.s_naive(code, r)
                assert fast == naive, (field.q, field.m, r, fast, naive)
                pairs += 1
    assert pairs >= 500
    _finish(5, t0, 120.0, f"fast == naive on {pairs} (code, sigma) pairs")


# --------------------------------------------------------------------------
# criterion 6: exhaustive counts at q = 2, m = n = 4, k = 2
# --------------------------------------------------------------------------


def test_criterion_6_exhaustive_counts():
    t0 = time.monotonic()
    field = make_field(2, 1, 4)

    codes_theta1 = set()
    codes_theta3 = set()
    n_full_rank = 0
    for g in itertools.product(range(16), repeat=4):
        if la.rank_q(field, g) != 4:
            continue
        n_full_rank += 1
        row1 = tuple(field.frob_q(x, 1) for x in g)
        codes_theta1.add(cd.LinearCode.from_rows(field, (g, row1)).gen)
        row3 = tuple(field.frob_q(x, 3) for x in g)
        codes_theta3.add(cd.LinearCode.from_rows(field, (g, row3)).gen)
    assert n_full_rank == 20160
    assert len(codes_theta1) == 1344
    # the two generators yield the same family of codes here
    assert codes_theta3 == codes_theta1

    by_name = {b.name: b for b in ct.counting(2, 2, 4, 4).bounds}
    fixed = by_name["gabidulin_fixed_theta"]
    assert fixed.value == 1344 and fixed.applicable

    # single equivalence class: the orbit of one member under the full
    # equivalence group covers the whole family
    one = cd.build(field, cd.make_spec("Gabidulin", 4, 2, 1, (1, 2, 4, 8)))
    orbit = oracles.orbit_of_code(one)
    assert set(orbit) == codes_theta1
    n_classes = 1
    assert n_classes == len(galois_generators(4)) // 2  # phi(4) / 2
    cls_bound = by_name["gabidulin_classes_m_eq_n"]
    assert cls_bound.value == 1 and not cls_bound.applicable  # outside stated range

    # orbit count of the automorphism group on admissible twist coefficients
    assert ct.count_aut_orbits_eta(3, 2, 1) == 3
    _finish(6, t0, 600.0,
            "1344 codes by exhaustion = closed form; one class; 3 coefficient orbits")


# --------------------------------------------------------------------------
# criterion 7: recognition accepts every Gabidulin-type build and rejects
# twisted builds inside the proven inequivalence ranges
# --------------------------------------------------------------------------


def _all_rref_codes_dim2_len3(field):
    codes = []
    for a in range(field.Q):
        for b in range(field.Q):
            codes.append(cd.LinearCode.from_rows(field, ((1, 0, a), (0, 1, b)), 3))
    for a in range(field.Q):
        codes.append(cd.LinearCode.from_rows(field, ((1, a, 0), (0, 0, 1)), 3))
    codes.append(cd.LinearCode.from_rows(field, ((0, 1, 0), (0, 0, 1)), 3))
    return codes


def _all_rref_codes_dim1_len3(field):
    codes = []
    for a in range(field.Q):
        for b in range(field.Q):
            codes.append(cd.LinearCode.from_rows(field, ((1, a, b),), 3))
    for a in range(field.Q):
        codes.append(cd.LinearCode.from_rows(field, ((0, 1, a),), 3))
    codes.append(cd.LinearCode.from_rows(field, ((0, 0, 1),), 3))
    return codes


def test_criterion_7_recognition():
    t0 = time.monotonic()

    # accepts: plain Gabidulin over assorted towers and generator exponents
    for (p, e, m, n, k, th) in [(2, 1, 4, 4, 2, 1), (2, 1, 4, 4, 2, 3),
                                (2, 1, 8, 6, 3, 1), (2, 1, 8, 6, 3, 5),
                                (3, 1, 5, 5, 2, 2), (2, 2, 3, 3, 1, 1)]:
        field = make_field(p, e, m)
        rng = DetRNG(SEED, f"accept-c7/gab/{p}/{e}/{m}/{n}/{k}/{th}")
        for _ in range(5):
            g = la.random_full_rank_vector(field, n, rng)
            code = cd.build(field, cd.make_spec("Gabidulin", n, k, th, g))
            ok, _ = cl.is_theta_gabidulin(code, th)
            assert ok, (p, e, m, n, k, th)

    # accepts: both reduced-twist constructions with admissible coefficients
    f7 = make_field(3, 1, 7)
    rng = DetRNG(SEED, "accept-c7/newgab")
    for fam, k in (("NewGabI", 2), ("NewGabII", 4)):
        eta = next(a for a in range(2, f7.Q) if cd.norm_condition_ok(f7, k, a))
        for _ in range(5):
            g = la.random_full_rank_vector(f7, 5, rng)
            code = cd.build(f7, cd.make_spec(fam, 5, k, 1, g, eta=eta))
            ok, _ = cl.is_theta_gabidulin(code, 1)
            assert ok, (fam, k)

    # rejects: twisted with m < 2n - 2 is never recognized, any generator
    f13 = make_field(2, 1, 13)
    rng = DetRNG(SEED, "accept-c7/tw")
    for _ in range(3):
        g = la.random_full_rank_vector(f13, 8, rng)
        eta = f13.alpha_pow(rng.randbelow(f13.Qm1))
        twc = cd.build(f13, cd.make_spec("Twisted", 8, 3, 1, g, eta=eta))
        for r in range(1, 13):
            ok, _ = cl.is_theta_gabidulin(twc, r)
            assert not ok, ("twisted recognized", r)

    # rejects: hook-0 offset twist with 1 < k < n - t and m < 2n - 4
    f9 = make_field(3, 1, 9)
    rng = DetRNG(SEED, "accept-c7/gtw")
    for _ in range(3):
        g = la.random_full_rank_vector(f9, 8, rng)
        eta = f9.alpha_pow(rng.randbelow(f9.Qm1))
        gtw = cd.build(f9, cd.make_spec("GeneralizedTwisted", 8, 3, 1, g,
                                        eta=(eta,), t=(2,), h=(0,)))
        for r in galois_generators(9):
            ok, _ = cl.is_theta_gabidulin(gtw, r)
            assert not ok, ("offset twist recognized", r)

    # tiny length-3 case: among ALL [3, 2] codes over F_8, recognized == MRD,
    # for both generator exponents
    f8 = make_field(2, 1, 3)
    universe = _all_rref_codes_dim2_len3(f8)
    assert len(universe) == ct.gaussian_binomial(3, 2, 8) == 73
    n_mrd = 0
    for code in universe:
        mrd = cd.min_distance_bruteforce(code) == 2
        n_mrd += mrd
        for th in (1, 2):
            ok, _ = cl.is_theta_gabidulin(code, th)
            assert ok == mrd, (code.gen, th, mrd)
    assert n_mrd == 24
    _finish(7, t0, 600.0,
            "recognition exact on all planted builds and on all 73 tiny MRD candidates")


# --------------------------------------------------------------------------
# criterion 8: the inequivalence verdict is sound
# --------------------------------------------------------------------------


def test_criterion_8_soundness():
    t0 = time.monotonic()

    # exhaustive: partition every [3, 1] and [3, 2] code over F_8 into
    # equivalence classes, then compare all same-class pairs
    f8 = make_field(2, 1, 3)
    n_pairs = 0
    for k, universe in ((1, _all_rref_codes_dim1_len3(f8)),
                        (2, _all_rref_codes_dim2_len3(f8))):
        assert len(universe) == ct.gaussian_binomial(3, k, 8) == 73
        by_gen = {c.gen: c for c in universe}
        unassigned = set(by_gen)
        orbits = []
        while unassigned:
            orb = oracles.orbit_of_code(by_gen[next(iter(unassigned))])
            assert orb <= unassigned
            orbits.append([by_gen[x] for x in orb])
            unassigned -= orb
        assert sorted(len(o) for o in orbits) == [7, 24, 42]
        for orb in orbits:
            for c1, c2 in itertools.combinations(orb, 2):
                v = cl.distinguish(c1, c2, trials=10, seed=SEED)
                assert v.status != "Inequivalent", (c1.gen, c2.gen, v.witness)
                n_pairs += 1
    assert n_pairs == 2316

    # random semilinear images over larger towers
    fields = [make_field(2, 1, 4), make_field(2, 1, 8), make_field(3, 1, 5),
              make_field(2, 2, 3)]
    n_random = 0
    for field in fields:
        rng = DetRNG(SEED, f"accept-c8/{field.q}/{field.m}")
        for _ in range(50):
            code = _random_family_code(field, rng)
            smap = cd.SemilinearMap(
                lam=field.alpha_pow(rng.randbelow(field.Qm1)),
                A=la.random_invertible_matrix_q(field, code.n, rng),
                tau=FullAut(field, rng.randbelow(field.d)),
            )
            image = cd.apply_semilinear(code, smap)
            v = cl.distinguish(code, image, trials=25, seed=SEED)
            assert v.status != "Inequivalent", (field.q, field.m, v.witness)
            n_random += 1
    assert n_random == 200
    _finish(8, t0, 600.0,
            f"no false verdict on {n_pairs} exhaustive + {n_random} random pairs")


# --------------------------------------------------------------------------
# criterion 9: census reruns with a fresh seed
# --------------------------------------------------------------------------


def test_criterion_9_census_rerun():
    t0 = time.monotonic()
    runs = [(3, 6, k) for k in (2, 3, 4)] + [(2, 7, k) for k in (2, 3, 4, 5)]
    lines = []
    for q, n, k in runs:
        report, _ = cl.census(q, n, k, seed=SEED, trials=100)
        assert report.ub == ct.census_ub(n, k) == UB_TABLE[n][k - 2]
        assert 1 <= report.lb1 <= report.ub
        assert 1 <= report.lb2 <= report.ub
        assert ct.census_ub(n, k) == ct.census_ub(n, n - k)
        lines.append(f"q={q} n={n} k={k}: {report.lb1}/{report.lb2}/{report.ub}")
    _finish(9, t0, None,
            "census lb1/lb2/ub in range on 7 runs [" + "; ".join(lines) + "]")
