"""Tests for the sum/intersection dimension sequences and fingerprints."""

import itertools

import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import FP_FIELDS, FP_IDS, TOWER_FIELDS, TOWER_IDS
import rankinv.codes as cd
import rankinv.invariants as inv
import rankinv.linalg as la
from rankinv.gf import FullAut, GaloisAut, make_field
from rankinv.rng import DetRNG

# Frozen dimension rows for the [8,3] pair over F_{2^15} (see conftest).
# Each row is s_1..s_last with the first repeated value included.
GOLDEN_GAB_ROWS = {
    1: (4, 5, 6, 7, 8, 8),
    2: (5, 7, 8, 8),
    7: (6, 7, 8, 8),
}
GOLDEN_TW_ROWS = {
    1: (5, 6, 7, 8, 8),
    14: (5, 6, 7, 8, 8),
}


def _random_code(field, family, n, k, rng, theta_exp=1, **kw):
    g = la.random_full_rank_vector(field, n, rng)
    if family == "Twisted" and "eta" not in kw:
        kw["eta"] = field.alpha_pow(rng.randbelow(field.Qm1))
    spec = cd.make_spec(family, n, k, theta_exp=theta_exp, g=g, **kw)
    return cd.build(field, spec)


def _sigma_powers(field, r, i):
    sigma = GaloisAut(field, r)
    return [sigma.power(j) for j in range(i + 1)]


# --------------------------------------------------------------------------
# golden rows and sequence conventions
# --------------------------------------------------------------------------


def test_worked_example_golden_rows(worked_example_codes):
    gab, tw = worked_example_codes
    for r, row in GOLDEN_GAB_ROWS.items():
        seq = inv.s_sequence(gab, r)
        assert seq[0] == gab.k
        assert tuple(seq[1:]) == row
    for r, row in GOLDEN_TW_ROWS.items():
        seq = inv.s_sequence(tw, r)
        assert seq[0] == tw.k
        assert tuple(seq[1:]) == row


def test_default_length_stops_at_first_repeat(worked_example_codes):
    gab, _ = worked_example_codes
    for r in range(1, gab.field.m):
        seq = inv.s_sequence(gab, r)
        assert seq[-1] == seq[-2]
        # strictly increasing up to the single trailing repeat
        for a, b in zip(seq[:-2], seq[1:-1]):
            assert a < b


def test_i_max_gives_fixed_length(worked_example_codes):
    gab, _ = worked_example_codes
    default = inv.s_sequence(gab, 2)
    fixed = inv.s_sequence(gab, 2, i_max=7)
    assert len(fixed) == 8
    assert fixed[: len(default)] == default
    # constant after stabilization
    assert len(set(fixed[len(default) - 1:])) == 1
    assert inv.s_sequence(gab, 2, i_max=0) == inv.s_sequence(gab, 2, i_max=-1) == [gab.k]


@pytest.mark.parametrize("family,n,k", [("Gabidulin", 6, 2), ("Twisted", 5, 3)])
def test_s_methods_agree(f2_8, family, n, k):
    rng = DetRNG(11, f"inv-fastnaive/{family}")
    for trial in range(4):
        code = _random_code(f2_8, family, n, k, rng.spawn(str(trial)))
        for r in (1, 3, 5):
            assert inv.s_sequence(code, r) == oracles.s_naive(code, r)
            assert inv.s_sequence(code, r, i_max=4) == oracles.s_naive(code, r, i_max=4)


@pytest.mark.parametrize("family,n,k", [("Gabidulin", 6, 3), ("Twisted", 6, 2)])
def test_t_methods_agree(f2_8, family, n, k):
    rng = DetRNG(12, f"inv-tmethods/{family}")
    for trial in range(4):
        code = _random_code(f2_8, family, n, k, rng.spawn(str(trial)))
        for r in (1, 3, 7):
            assert inv.t_sequence(code, r) == oracles.t_direct(code, r)
            assert inv.t_sequence(code, r, i_max=4) == oracles.t_direct(code, r, i_max=4)


# --------------------------------------------------------------------------
# structural identities
# --------------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=10**6))
def test_t1_equals_2k_minus_s1(f3_5, seed):
    rng = DetRNG(seed, "inv-t1")
    code = _random_code(f3_5, "Gabidulin", 4, 2, rng)
    for r in range(f3_5.m):
        s = inv.s_sequence(code, r, i_max=1)
        t = inv.t_sequence(code, r, i_max=1)
        assert t[1] == 2 * code.k - s[1]


@given(seed=st.integers(min_value=0, max_value=10**6))
def test_duality_ties_t_to_dual_s(f2_8, seed):
    rng = DetRNG(seed, "inv-duality")
    family = rng.choice(["Gabidulin", "Twisted"])
    code = _random_code(f2_8, family, 6, 3, rng)
    dual = cd.dual(code)
    for r in (1, 3, 5):
        p = inv.invariant_profile(code, r)
        pd = inv.invariant_profile(dual, r)
        # t_i(C) = n - s_i(C_perp)  and  Lambda_i(C) = Delta_i(C_perp)
        assert all(p.t[i] == code.n - pd.s[i] for i in range(len(p.t)))
        assert p.lam == pd.delta


def test_intersection_is_dual_of_dual_sum(f2_8):
    rng = DetRNG(5, "inv-dual-code-level")
    code = _random_code(f2_8, "Gabidulin", 6, 3, rng)
    auts = _sigma_powers(f2_8, 3, 2)
    lhs = inv.intersect_code(code, auts)
    rhs = cd.dual(inv.sum_code(cd.dual(code), auts))
    assert cd.code_equal(lhs, rhs)


@given(seed=st.integers(min_value=0, max_value=10**6))
def test_profile_increments_monotone(f2_8, seed):
    rng = DetRNG(seed, "inv-increments")
    family = rng.choice(["Gabidulin", "Twisted"])
    code = _random_code(f2_8, family, 6, 2, rng)
    for r in range(f2_8.m):
        p = inv.invariant_profile(code, r)
        assert all(a >= b for a, b in zip(p.delta, p.delta[1:]))
        assert all(a >= b for a, b in zip(p.lam, p.lam[1:]))
        assert p.delta[0] == p.lam[0] == p.s[1] - code.k
        assert p.delta[0] <= code.k
        assert p.delta[-1] == 0 and p.lam[-1] == 0


def test_stabilization_indices(f2_8, f3_5):
    cases = [
        (f2_8, "Gabidulin", 6, 2),
        (f2_8, "Twisted", 5, 3),
        (f3_5, "Gabidulin", 5, 2),
    ]
    for field, family, n, k in cases:
        rng = DetRNG(17, f"inv-stab/{family}/{field.q}")
        code = _random_code(field, family, n, k, rng)
        for r in (1, 2, 3):
            s = inv.s_sequence(code, r, i_max=n - k + 2)
            assert s[n - k] == s[n - k + 1] == s[n - k + 2]
            t = inv.t_sequence(code, r, i_max=k + 2)
            assert t[k] == t[k + 1] == t[k + 2]


def test_sum_and_intersection_match_sequences(f2_8):
    rng = DetRNG(23, "inv-match-seq")
    code = _random_code(f2_8, "Twisted", 6, 2, rng)
    s = inv.s_sequence(code, 3, i_max=3)
    t = inv.t_sequence(code, 3, i_max=3)
    for i in range(4):
        auts = _sigma_powers(f2_8, 3, i)
        assert inv.sum_code(code, auts).k == s[i]
        assert inv.intersect_code(code, auts).k == t[i]


def test_sum_composition(f2_8):
    # applying the i-step sum to the j-step sum gives the (i+j)-step sum
    rng = DetRNG(29, "inv-compose")
    code = _random_code(f2_8, "Gabidulin", 6, 2, rng)
    for r in (1, 5):
        for i, j in [(1, 1), (1, 2), (2, 1)]:
            inner = inv.sum_code(code, _sigma_powers(f2_8, r, j))
            outer = inv.sum_code(inner, _sigma_powers(f2_8, r, i))
            direct = inv.sum_code(code, _sigma_powers(f2_8, r, i + j))
            assert cd.code_equal(outer, direct)


# --------------------------------------------------------------------------
# plateau => basis over the ground field (generator sigma only)
# --------------------------------------------------------------------------


def _deficient_row_code(field, n, k, w, rng):
    """k Frobenius-power rows of a vector whose coordinates span only a
    w-dimensional F_q-space, so every sigma-sum stays below dimension n."""
    base = la.random_full_rank_vector(field, w, rng)
    g = list(base)
    i = 0
    while len(g) < n:
        g.append(field.add(base[i % w], base[(i + 1) % w]))
        i += 1
    assert la.rank_q(field, g) == w
    rows = la.moore_matrix(field, tuple(g), k, GaloisAut(field, 1))
    return cd.LinearCode.from_rows(field, rows, n)


@pytest.mark.parametrize("make_args", [("f2_8", 6, 2, 4), ("f3_5", 4, 2, 3)])
def test_plateau_value_has_subfield_basis(request, make_args):
    fixture, n, k, w = make_args
    field = request.getfixturevalue(fixture)
    rng = DetRNG(31, f"inv-plateau/{field.q}/{field.m}")
    code = _deficient_row_code(field, n, k, w, rng)
    from rankinv.gf import galois_generators

    for r in galois_generators(field.m):
        seq = inv.s_sequence(code, r)
        plateau = len(seq) - 1  # index of the first repeated value
        stable = inv.sum_code(code, _sigma_powers(field, r, plateau))
        assert stable.k == seq[-1] < n  # below full length: non-vacuous
        dim_sub, rows = oracles.subfield_subcode(stable)
        assert dim_sub == stable.k
        assert all(field.in_subfield_q(a) for row in rows for a in row)
        assert rows == la.rref(field, oracles.subfield_kernel(stable))[0]


# --------------------------------------------------------------------------
# profiles and fingerprints
# --------------------------------------------------------------------------


def test_invariant_profile_shape(f2_8):
    rng = DetRNG(37, "inv-profile-shape")
    code = _random_code(f2_8, "Gabidulin", 6, 2, rng)
    p = inv.invariant_profile(code, 11)
    assert p.sigma == 11 % f2_8.m
    assert len(p.s) == code.n - code.k + 1 and p.s[0] == code.k
    assert len(p.t) == code.k + 1 and p.t[0] == code.k
    assert sum(p.delta) == p.s[-1] - code.k
    assert sum(p.lam) == code.k - p.t[-1]
    assert p.key == (p.s[1:], p.t[1:])


def test_fingerprints_invariant_under_equivalence(worked_example_codes):
    gab, tw = worked_example_codes
    field = gab.field
    rng = DetRNG(41, "inv-fp-semilinear")
    smap = cd.SemilinearMap(
        lam=field.alpha_pow(rng.randbelow(field.Qm1)),
        A=la.random_invertible_matrix_q(field, gab.n, rng),
        tau=FullAut(field, rng.randbelow(field.d)),
    )
    image = cd.apply_semilinear(gab, smap)
    assert inv.fingerprint_consecutive(gab) == inv.fingerprint_consecutive(image)
    assert inv.fingerprint_random_triples(gab, trials=15, seed=7) == \
        inv.fingerprint_random_triples(image, trials=15, seed=7)
    # and the pair the example was built to separate stays separated
    assert inv.fingerprint_consecutive(gab) != inv.fingerprint_consecutive(tw)


def test_fingerprint_equality_semantics(f16):
    rng = DetRNG(43, "inv-fp-sem")
    code = _random_code(f16, "Gabidulin", 4, 2, rng)
    fp1 = inv.fingerprint_consecutive(code)
    fp2 = inv.fingerprint_consecutive(code)
    assert fp1 == fp2 and hash(fp1) == hash(fp2)
    fp3 = inv.fingerprint_random_triples(code, trials=10, seed=1)
    assert fp1 != fp3  # different modes never compare equal
    assert fp3 == inv.fingerprint_random_triples(code, trials=10, seed=1)


def _fingerprint_codes(case):
    """A Gabidulin code, a random code and a code of deficient rank over one
    field of FP_FIELDS."""
    backend, p, e, m = case
    field = make_field(p, e, m, backend=backend)
    rng = DetRNG(47, f"inv-fp-diff/{backend}/{p}/{e}/{m}")
    n = m
    rows = [tuple(field.random_element(rng) for _ in range(n)) for _ in range(2)]
    return field, [
        _random_code(field, "Gabidulin", n, 2, rng),
        cd.LinearCode.from_rows(field, rows, n),
        _deficient_row_code(field, n, 2, n - 1, rng),
    ]


@pytest.mark.parametrize("case", FP_FIELDS, ids=FP_IDS)
def test_random_triples_fingerprint_matches_code_level_dimensions(case):
    field, codes = _fingerprint_codes(case)
    for code in codes:
        fp = inv.fingerprint_random_triples(code, trials=6, seed=2)
        expected = []
        for triple in inv.random_triples(field.m, 6, 2):
            auts = [GaloisAut(field, r) for r in triple]
            expected.append((inv.sum_code(code, auts).k, inv.intersect_code(code, auts).k))
        assert fp.detail == tuple(expected)


@pytest.mark.parametrize("case", FP_FIELDS, ids=FP_IDS)
def test_consecutive_fingerprint_matches_oracles(case):
    _, codes = _fingerprint_codes(case)
    for code in codes:
        n, k = code.n, code.k
        for prof in inv.fingerprint_consecutive(code).detail:
            s = oracles.s_naive(code, prof.sigma, i_max=n - k + 1)
            t = oracles.t_direct(code, prof.sigma, i_max=k + 1)
            assert prof.s == tuple(s[: n - k + 1]) and prof.t == tuple(t[: k + 1])
            assert prof.delta == tuple(b - a for a, b in zip(s, s[1:]))
            assert prof.lam == tuple(a - b for a, b in zip(t, t[1:]))
            assert inv.s_sequence(code, prof.sigma) == oracles.s_naive(code, prof.sigma)
            assert inv.t_sequence(code, prof.sigma) == oracles.t_direct(code, prof.sigma)


def _difference_codes(field, rng):
    """Codes of length n = m whose RREF is not (I | A) without a column
    permutation, plus the zero code and the full space, where A is empty.
    One kind has a zero first column, the other a second column that is
    alpha times the first (alpha is not in F_q), so it is no pivot."""
    n = field.m
    codes = [cd.LinearCode.from_rows(field, [], n), cd.LinearCode.from_rows(field, la.identity(field, n))]
    for k in range(1, n):
        for zero_first in (True, False):
            rows = []
            for _ in range(k):
                row = [field.random_element(rng) for _ in range(n)]
                if zero_first:
                    row[0] = 0
                row[1 + zero_first] = field.mul(field.alpha, row[zero_first])
                rows.append(row)
            codes.append(cd.LinearCode.from_rows(field, rows, n))
    return codes


@pytest.mark.parametrize("case", FP_FIELDS, ids=FP_IDS)
def test_differences_match_image_ranks_and_oracles(case):
    backend, p, e, m = case
    field = make_field(p, e, m, backend=backend)
    rng = DetRNG(67, f"inv-diff/{backend}/{p}/{e}/{m}")
    codes = _difference_codes(field, rng)
    assert {c.k for c in codes} >= {0, 1, m - 1, m}
    leading = [c for c in codes
               if [next(j for j, a in enumerate(row) if a) for row in c.gen] == list(range(c.k))]
    assert len(leading) <= 3  # k = 0, k = n and at most the k = 1 alpha code
    for code in codes:
        n, k = code.n, code.k
        i_max = n + 2  # past both stabilisation indices: the rows are padded
        for r in range(m):
            s = inv.s_sequence(code, r, i_max=i_max)
            t = inv.t_sequence(code, r, i_max=i_max)
            assert s == oracles.s_naive(code, r, i_max=i_max)
            assert t == oracles.t_direct(code, r, i_max=i_max)
            assert inv.s_sequence(code, r) == oracles.s_naive(code, r)
            assert inv.t_sequence(code, r) == oracles.t_direct(code, r)
            for i in range(i_max + 1):
                auts = _sigma_powers(field, r, i)
                assert inv.sum_code(code, auts).k == s[i]
                assert inv.intersect_code(code, auts).k == t[i]
            prof = inv.invariant_profile(code, r)
            assert prof.s == tuple(s[: n - k + 1]) and prof.t == tuple(t[: k + 1])
            assert prof.delta == tuple(b - a for a, b in zip(s[: n - k + 1], s[1:]))
            assert prof.lam == tuple(a - b for a, b in zip(t[: k + 1], t[1:]))
        fp = inv.fingerprint_random_triples(code, trials=8, seed=5)
        for triple, pair in zip(inv.random_triples(m, 8, 5), fp.detail):
            auts = [GaloisAut(field, x) for x in triple]
            assert pair == (oracles.sum_dims(code, triple), oracles.intersection_dims(code, triple))
            assert pair == (inv.sum_code(code, auts).k, inv.intersect_code(code, auts).k)


# --------------------------------------------------------------------------
# the shortcuts the fingerprints take (proofs in the invariants docstring)
# --------------------------------------------------------------------------


def _property_code(case, seed):
    """Random rows, a Gabidulin code or a code of deficient rank over one
    field of FP_FIELDS, with 2 <= n <= m and 1 <= k < n."""
    backend, p, e, m = case
    field = make_field(p, e, m, backend=backend)
    rng = DetRNG(seed, f"inv-shortcut/{backend}/{p}/{e}/{m}")
    n = 2 + rng.randbelow(m - 1)
    k = 1 + rng.randbelow(n - 1)
    kind = rng.randbelow(3)
    if kind == 1:
        return _random_code(field, "Gabidulin", n, k, rng)
    if kind == 2:
        return _deficient_row_code(field, n, k, 1 + rng.randbelow(n - 1), rng)
    rows = [tuple(field.random_element(rng) for _ in range(n)) for _ in range(k)]
    return cd.LinearCode.from_rows(field, rows, n)


SHORTCUT_CASES = st.sampled_from(FP_FIELDS)
SHORTCUT_SEEDS = st.integers(min_value=0, max_value=10**6)
EXPONENTS = st.integers(min_value=0, max_value=60)


@given(case=SHORTCUT_CASES, seed=SHORTCUT_SEEDS,
       triple=st.lists(EXPONENTS, min_size=3, max_size=3), shift=EXPONENTS,
       order=st.permutations(range(3)))
def test_triple_dimensions_ignore_common_shift_and_order(case, seed, triple, shift, order):
    code = _property_code(case, seed)

    def dims(exps):
        auts = [GaloisAut(code.field, r) for r in exps]
        return inv.sum_code(code, auts).k, inv.intersect_code(code, auts).k

    assert dims([triple[i] + shift for i in order]) == dims(triple)


@given(case=SHORTCUT_CASES, seed=SHORTCUT_SEEDS, r=EXPONENTS)
def test_mirror_exponents_have_equal_rows(case, seed, r):
    code = _property_code(case, seed)
    m = code.field.m
    for sequence in (inv.s_sequence, inv.t_sequence):
        assert sequence(code, r) == sequence(code, m - r)
        assert sequence(code, r, i_max=code.n + 1) == sequence(code, m - r, i_max=code.n + 1)
    # the consecutive fingerprint's profiles are the directly computed ones
    assert inv.fingerprint_consecutive(code).detail == tuple(
        inv.invariant_profile(code, j) for j in range(m))


@given(case=SHORTCUT_CASES, seed=SHORTCUT_SEEDS, r=EXPONENTS,
       i_max=st.integers(min_value=0, max_value=12))
def test_fixed_length_rows_match_oracles_past_first_repeat(case, seed, r, i_max):
    code = _property_code(case, seed)
    assert inv.s_sequence(code, r, i_max=i_max) == oracles.s_naive(code, r, i_max=i_max)
    assert inv.t_sequence(code, r, i_max=i_max) == oracles.t_direct(code, r, i_max=i_max)


def _fed_rows(field, width, blocks, prefix):
    """The rows an elimination of the blocks at prefix[:-1], continued by the
    block at prefix[-1], feeds for that last block: its nonzero rows until
    the rank reaches width, or none when the earlier blocks reach it."""
    earlier = [row for j in prefix[:-1] for row in blocks(j)]
    rank, fed = la.rank(field, earlier), []
    for row in blocks(prefix[-1]):
        if rank == width:
            break
        if any(row):
            fed.append(tuple(row))
            rank = la.rank(field, earlier + fed)
    return fed


def test_random_triples_build_one_rank_pair_per_translation_class(monkeypatch, f2_8):
    # each translation class's (sum, intersection) pair is eliminated once:
    # every (side, exponent prefix) of the class keys gets its own
    # IncrementalRank, fed exactly the rows of its last block that a fresh
    # elimination continued from the prefix before it would feed, and a
    # second fingerprint of the code feeds no row at all
    code = _random_code(f2_8, "Twisted", 6, 3, DetRNG(59, "inv-fp-classes"))
    m, n, k = f2_8.m, code.n, code.k
    classes = {min(tuple(sorted((x - s) % m for x in triple)) for s in range(m))
               for triple in inv.random_triples(m, 100, 3)}
    assert len(classes) < 100
    fed = {}
    real_add_row = la.IncrementalRank.add_row

    def counting_add_row(self, row):
        fed.setdefault(id(self), []).append(tuple(row))
        return real_add_row(self, row)

    monkeypatch.setattr(la.IncrementalRank, "add_row", counting_add_row)
    fp = inv.fingerprint_random_triples(code, trials=100, seed=3)
    assert len(fp.detail) == 100
    diffs = code.diffs
    prefixes = {cls[:i] for cls in classes for i in range(1, 4)}
    expected = []
    for blocks, width in ((diffs.rows, n - k), (diffs.cols, k)):
        expected += [rows for prefix in prefixes
                     if (rows := _fed_rows(f2_8, width, blocks, prefix))]
    assert len({cls[:2] for cls in classes}) < len(classes)  # prefixes are shared
    assert sorted(fed.values()) == sorted(expected)
    fed.clear()
    assert inv.fingerprint_random_triples(code, trials=100, seed=3) == fp
    assert fed == {}


@pytest.mark.parametrize("case", FP_FIELDS + TOWER_FIELDS, ids=FP_IDS + TOWER_IDS)
@given(data=st.data())
def test_prefix_shared_ranks_equal_fresh_ranks(case, data):
    # one code answers many exponent sequences, some only partly consumed,
    # in any order; every rank read off its elimination trie equals the rank
    # of the stacked blocks computed from scratch
    backend, p, e, m = case
    field = make_field(p, e, m, backend=backend)
    n = data.draw(st.integers(1, m), label="n")
    elem = st.integers(0, field.Q - 1)
    rows = data.draw(st.lists(st.lists(elem, min_size=n, max_size=n), max_size=n), label="rows")
    code = cd.LinearCode.from_rows(field, rows, n)
    passes = data.draw(st.lists(st.tuples(st.sampled_from(("rows", "cols")),
                                          st.lists(st.integers(-m, 2 * m), min_size=1, max_size=5),
                                          st.integers(1, 5)),
                                min_size=1, max_size=8), label="passes")
    for side, exps, take in passes:
        blocks = code.diffs.rows if side == "rows" else code.diffs.cols
        got = list(itertools.islice(code.diffs.ranks(side, exps), take))
        fresh = [la.rank(field, [row for j in exps[: i + 1] for row in blocks(j)])
                 for i in range(len(exps))]
        assert got == fresh[:take]


def test_translation_classes_are_keyed_once_per_triple_set(f2_8):
    rng = DetRNG(71, "inv-fp-class-keys")
    codes = [_random_code(f2_8, "Twisted", 6, 3, rng), _random_code(f2_8, "Gabidulin", 6, 2, rng)]
    inv._translation_classes.cache_clear()
    fps = [inv.fingerprint_random_triples(code, trials=20, seed=8) for code in codes]
    info = inv._translation_classes.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    m = f2_8.m
    triples = inv.random_triples(m, 20, 8)
    assert inv._translation_classes(triples, m) == tuple(
        min(tuple(sorted((x - s) % m for x in triple)) for s in range(m)) for triple in triples)
    assert all(len(fp.detail) == 20 for fp in fps)


def test_sequences_and_fingerprints_never_compute_the_dual(monkeypatch, f2_8):
    code = _random_code(f2_8, "Twisted", 6, 3, DetRNG(53, "inv-fp-dual-once"))
    calls = []
    real_dual = cd.dual

    def counting_dual(c):
        calls.append(c)
        return real_dual(c)

    monkeypatch.setattr(cd, "dual", counting_dual)
    inv.fingerprint_consecutive(code)
    inv.fingerprint_random_triples(code, trials=10, seed=1)
    inv.t_sequence(code, 1)
    inv.intersect_code(code, [GaloisAut(f2_8, 1), GaloisAut(f2_8, 3)])
    assert calls == []


def test_random_triples_deterministic():
    a = inv.random_triples(15, 20, 9)
    b = inv.random_triples(15, 20, 9)
    assert a == b and len(a) == 20
    for triple in a:
        assert len(set(triple)) == 3
        assert all(0 <= r < 15 for r in triple)
    assert inv.random_triples(15, 20, 10) != a
    with pytest.raises(ValueError):
        inv.random_triples(2, 5, 0)
