"""Code families: construction, identities, duals, distances, serialization."""

import itertools

import pytest

import oracles
from conftest import FP_FIELDS, FP_IDS, TOWER_FIELDS, TOWER_IDS
from rankinv import codes as cd
from rankinv import invariants as iv
from rankinv import linalg as la
from rankinv.gf import FieldTower, FullAut, GaloisAut, galois_generators, make_field
from rankinv.rng import DetRNG


def _random_code(field, family, n, k, rng, theta_exp=1, **kw):
    g = la.random_full_rank_vector(field, n, oracles.spawn(rng, "g"))
    eta = field.alpha_pow(rng.randbelow(field.Qm1))
    if family == "Gabidulin":
        spec = cd.make_spec(family, n, k, theta_exp, g)
    elif family in ("Twisted", "NewGabI", "NewGabII"):
        spec = cd.make_spec(family, n, k, theta_exp, g, eta=eta)
    else:
        spec = cd.make_spec(family, n, k, theta_exp, g,
                            eta=(eta,), t=(kw.get("t", 2),), h=(kw.get("h", 0),))
    return cd.build(field, spec)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_build_rejects_bad_parameters(f2_8):
    F = f2_8
    rng = DetRNG(0, "val")
    g6 = la.random_full_rank_vector(F, 6, rng)
    with pytest.raises(cd.BuildError):
        cd.build(F, cd.make_spec("Nope", 6, 2, 1, g6))
    with pytest.raises(cd.BuildError):
        cd.build(F, cd.make_spec("Gabidulin", 9, 2, 1, g6 + (0,) * 3))  # n > m
    with pytest.raises(cd.BuildError):
        cd.build(F, cd.make_spec("Gabidulin", 6, 7, 1, g6))  # k > n
    with pytest.raises(cd.BuildError):
        cd.build(F, cd.make_spec("Gabidulin", 6, 2, 2, g6))  # gcd(2, 8) != 1
    with pytest.raises(cd.BuildError):
        cd.build(F, cd.make_spec("Gabidulin", 6, 2, 1, g6[:5]))  # wrong length
    bad = (F.one, F.one) + g6[2:]  # q-rank < n
    with pytest.raises(cd.BuildError):
        cd.build(F, cd.make_spec("Gabidulin", 6, 2, 1, bad))
    with pytest.raises(cd.BuildError):
        cd.build(F, cd.make_spec("Twisted", 6, 2, 1, g6))  # eta missing
    with pytest.raises(cd.BuildError):
        cd.build(F, cd.make_spec("Twisted", 6, 6, 1, g6, eta=3))  # k > n-1


def test_generalized_twisted_parameter_checks(f2_8):
    F = f2_8
    g = la.random_full_rank_vector(F, 6, DetRNG(1, "gtwval"))
    ok = cd.make_spec("GeneralizedTwisted", 6, 3, 1, g, eta=(3, 5), t=(1, 2), h=(0, 2))
    assert cd.build(F, ok).k == 3
    with pytest.raises(cd.BuildError):  # duplicate hook
        cd.build(F, cd.make_spec("GeneralizedTwisted", 6, 3, 1, g,
                                 eta=(3, 5), t=(1, 2), h=(0, 0)))
    with pytest.raises(cd.BuildError):  # hook out of range
        cd.build(F, cd.make_spec("GeneralizedTwisted", 6, 3, 1, g,
                                 eta=(3,), t=(1,), h=(3,)))
    with pytest.raises(cd.BuildError):  # duplicate twist
        cd.build(F, cd.make_spec("GeneralizedTwisted", 6, 3, 1, g,
                                 eta=(3, 5), t=(2, 2), h=(0, 1)))
    with pytest.raises(cd.BuildError):  # mixed low/high twist ranges
        cd.build(F, cd.make_spec("GeneralizedTwisted", 6, 3, 1, g,
                                 eta=(3, 5), t=(1, 5), h=(0, 1)))
    with pytest.raises(cd.BuildError):  # missing tuples
        cd.build(F, cd.make_spec("GeneralizedTwisted", 6, 3, 1, g))
    # zero twist coefficients are allowed (degenerates towards Gabidulin)
    z = cd.build(F, cd.make_spec("GeneralizedTwisted", 6, 3, 1, g,
                                 eta=(0,), t=(2,), h=(0,)))
    assert cd.code_equal(z, cd.build(F, cd.make_spec("Gabidulin", 6, 3, 1, g)))


def test_newgab_range_checks(f2_8):
    F = f2_8  # m = 8
    g = la.random_full_rank_vector(F, 6, DetRNG(2, "ng"))
    with pytest.raises(cd.BuildError):  # NewGabI needs m-k > k
        cd.build(F, cd.make_spec("NewGabI", 6, 4, 1, g, eta=3))
    with pytest.raises(cd.BuildError):  # NewGabII needs m-k <= k
        cd.build(F, cd.make_spec("NewGabII", 6, 3, 1, g, eta=3))
    assert cd.build(F, cd.make_spec("NewGabI", 6, 3, 1, g, eta=3)).k == 3
    assert cd.build(F, cd.make_spec("NewGabII", 6, 4, 1, g, eta=3)).k == 4


def test_all_families_have_the_requested_dimension(f2_8, f3_5):
    rng = DetRNG(3, "dims")
    for F, n in ((f2_8, 6), (f3_5, 4)):
        for family in cd.FAMILIES:
            for k in (1, 2, 3):
                if family == "Twisted" and k > n - 1:
                    continue
                if family == "NewGabI" and not F.m - k > k:
                    continue
                if family == "NewGabII" and not F.m - k <= k:
                    continue
                if family == "GeneralizedTwisted" and k > n - 1:
                    continue
                c = _random_code(F, family, n, k, oracles.spawn(rng, f"{F.m}/{family}/{k}"))
                assert c.k == k and c.n == n


def _family_specs(field, rng):
    """Specs of every family for each 1 <= k < n <= m: each single twist (t, h)
    of the generalized-twisted family with t in either range, and a two-row
    twist in each range with two offsets."""
    m = field.m
    gens = galois_generators(m)
    specs = []
    for n in range(2, m + 1):
        g = la.random_full_rank_vector(field, n, oracles.spawn(rng, f"g/{n}"))
        for k in range(1, n):
            r = gens[(n + k) % len(gens)]
            eta, eta2 = (field.alpha_pow(rng.randbelow(field.Qm1)) for _ in range(2))
            specs.append(cd.make_spec("Gabidulin", n, k, r, g))
            specs.append(cd.make_spec("Twisted", n, k, r, g, eta=eta))
            newgab = "NewGabI" if m - k > k else "NewGabII"
            specs.append(cd.make_spec(newgab, n, k, r, g, eta=eta))
            low, high = range(1, n - k + 1), range(m - n + 1, m - k + 1)
            for t in sorted(set(low) | set(high)):
                specs += [cd.make_spec("GeneralizedTwisted", n, k, r, g, eta=eta, t=t, h=h)
                          for h in range(k)]
            for t_range in (low, high):
                if k >= 2 and len(t_range) >= 2:
                    specs.append(cd.make_spec("GeneralizedTwisted", n, k, r, g, eta=(eta, eta2),
                                              t=(t_range[-1], t_range[0]), h=(0, k - 1)))
    return specs


@pytest.mark.parametrize("case", FP_FIELDS + TOWER_FIELDS + [("table", 2, 1, 8)],
                         ids=FP_IDS + TOWER_IDS + ["table-p2e1m8"])
def test_build_matches_the_family_row_oracle(case):
    backend, p, e, m = case
    F = make_field(p, e, m, backend=backend)
    specs = _family_specs(F, DetRNG(71, f"family-rows/{backend}/{p}/{e}/{m}"))
    built = set()
    for spec in specs:
        expected = cd.LinearCode.from_rows(F, oracles.family_rows(F, spec), spec.n)
        if expected.k < spec.k:
            with pytest.raises(cd.BuildError, match="degenerated"):
                cd.build(F, spec)
            continue
        assert cd.build(F, spec).gen == expected.gen, spec
        # the high range of offsets, t in [m-n+1, m-k] above n-k
        built.add("high t" if spec.t and spec.t[0] > spec.n - spec.k else spec.family)
    assert built == set(cd.FAMILIES) | {"high t"}


def test_build_matches_the_family_row_oracle_at_the_generic_shape():
    # [8,3] codes over F_{3^16}, which takes the tower backend: build makes
    # the Moore rows, the twists and the RREF on logs, the oracle on packed
    # elements; one and two twists in either range of t, every family
    F = make_field(3, 1, 16)
    assert F.backend == "tower"
    rng = DetRNG(79, "family-rows/generic-shape")
    g = la.random_full_rank_vector(F, 8, oracles.spawn(rng, "g"))
    eta, eta2 = F.random_element(rng), F.random_nonzero(rng)
    specs = [cd.make_spec("Gabidulin", 8, 3, 3, g),
             cd.make_spec("Twisted", 8, 3, 5, g, eta=eta),
             cd.make_spec("NewGabI", 8, 3, 7, g, eta=eta2),
             cd.make_spec("GeneralizedTwisted", 8, 3, 1, g, eta=(eta, eta2), t=(1, 5), h=(0, 2))]
    specs += [cd.make_spec("GeneralizedTwisted", 8, 3, r, g, eta=eta2, t=t, h=h)
              for r, t, h in ((1, 2, 1), (3, 9, 0), (11, 13, 2), (15, 5, 2))]
    for spec in specs:
        expected = cd.LinearCode.from_rows(F, oracles.family_rows(F, spec), spec.n)
        assert expected.k == 3 and cd.build(F, spec).gen == expected.gen, spec


@pytest.mark.parametrize("case", TOWER_FIELDS, ids=TOWER_IDS)
def test_zero_twist_coefficients_on_the_tower(case):
    # a twist by 0, whose row form is 0 too, leaves the Moore row as it is
    backend, p, e, m = case
    F = make_field(p, e, m, backend=backend)
    n, k = m, m // 2
    g = la.random_full_rank_vector(F, n, DetRNG(81, f"zero-twist/{p}/{e}/{m}"))
    gab = cd.build(F, cd.make_spec("Gabidulin", n, k, 1, g))
    newgab = "NewGabI" if m - k > k else "NewGabII"
    for spec in (cd.make_spec("Twisted", n, k, 1, g, eta=0),
                 cd.make_spec(newgab, n, k, 1, g, eta=0),
                 cd.make_spec("GeneralizedTwisted", n, k, 1, g, eta=(0,), t=(1,), h=(0,))):
        assert cd.code_equal(cd.build(F, spec), gab), spec


@pytest.mark.parametrize("case", FP_FIELDS + TOWER_FIELDS, ids=FP_IDS + TOWER_IDS)
def test_differences_from_the_kept_rref_match_a_fresh_code(case):
    # build and from_rows keep the RREF in the row form, and Differences
    # reads A off it; a code made from gen alone converts A itself.  Both
    # give the same blocks, ranks and meets.
    backend, p, e, m = case
    F = make_field(p, e, m, backend=backend)
    rng = DetRNG(83, f"kept-rref/{backend}/{p}/{e}/{m}")
    n = m
    g = la.random_full_rank_vector(F, n, oracles.spawn(rng, "g"))
    codes = [cd.build(F, cd.make_spec("Gabidulin", n, 2, 1, g)),
             cd.build(F, cd.make_spec("Twisted", n, n - 1, 1, g, eta=F.random_nonzero(rng))),
             cd.LinearCode.from_rows(F, [[F.random_element(rng) for _ in range(n)]
                                         for _ in range(2)], n)]
    for code in codes:
        fresh = cd.LinearCode(F, code.n, code.k, code.gen)
        assert code._row_gen is not None and fresh._row_gen is None
        assert code.diffs._A == fresh.diffs._A
        for j in range(m):
            assert code.diffs.rows(j) == fresh.diffs.rows(j)
            assert list(zip(*code.diffs.rows(j))) == list(zip(*fresh.diffs.rows(j)))
        for side in ("rows", "cols"):
            for exps in ((0, 1, 2, 3), (0, m - 1, 1), tuple(range(m))):
                assert list(code.diffs.ranks(side, exps)) == list(fresh.diffs.ranks(side, exps))
        for exps in ((1,), (1, 2), tuple(range(1, m))):
            assert code.diffs.meet(exps) == fresh.diffs.meet(exps)


def test_a_generic_class_makes_no_packed_field_operation(monkeypatch):
    # a (3,8,3) census class over F_{3^16} on the tower backend: from g to
    # its consecutive fingerprint nothing is packed but gen, so no frob_p,
    # mul, add or inv runs
    F = make_field(3, 1, 16)
    rng = DetRNG(85, "packed-free class")
    g = la.random_full_rank_vector(F, 8, oracles.spawn(rng, "g"), subfield_size=F.q ** 8)
    eta = F.alpha_pow(rng.randbelow(F.Qm1))
    spec = cd.make_spec("GeneralizedTwisted", 8, 3, 3, g, eta=(eta,), t=(2,), h=(1,))
    counts = dict.fromkeys(("frob_p", "mul", "add", "inv"), 0)
    for name in counts:
        def counted(self, *args, _name=name, _real=getattr(FieldTower, name)):
            counts[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(FieldTower, name, counted)
    code = cd.build(F, spec)
    iv.fingerprint_consecutive(code)
    assert counts == dict.fromkeys(counts, 0)
    monkeypatch.undo()
    expected = cd.LinearCode.from_rows(F, oracles.family_rows(F, spec), 8)
    assert code.gen == expected.gen


@pytest.mark.parametrize("case", FP_FIELDS, ids=FP_IDS)
def test_twisted_is_generalized_twisted_with_one_twist(case):
    backend, p, e, m = case
    F = make_field(p, e, m, backend=backend)
    rng = DetRNG(73, f"twisted-as-gtw/{backend}/{p}/{e}/{m}")
    for n in range(2, m + 1):
        g = la.random_full_rank_vector(F, n, oracles.spawn(rng, f"g/{n}"))
        for k in range(1, n):
            eta = F.random_element(rng)
            tw = cd.build(F, cd.make_spec("Twisted", n, k, 1, g, eta=eta))
            gtw = cd.build(F, cd.make_spec("GeneralizedTwisted", n, k, 1, g,
                                           eta=eta, t=1, h=0))
            assert cd.code_equal(tw, gtw)


def test_norm_condition(f3_5, f2_8):
    # q = 2: the norm onto F_2 hits only 1 = (-1)^(k*m), so the MRD
    # condition is unsatisfiable and strict building must fail
    F = f2_8
    g = la.random_full_rank_vector(F, 5, DetRNG(4, "nc"))
    for j in (1, 7, 100):
        assert not cd.norm_condition_ok(F, 2, F.alpha_pow(j))
    with pytest.raises(cd.BuildError):
        cd.build(F, cd.make_spec("Twisted", 5, 2, 1, g, eta=F.alpha_pow(7)),
                 strict_norm=True)
    # lenient default still builds it
    assert cd.build(F, cd.make_spec("Twisted", 5, 2, 1, g, eta=F.alpha_pow(7))).k == 2
    # q = 3: both outcomes occur
    F3 = f3_5
    oks = {eta for eta in range(1, F3.Q) if cd.norm_condition_ok(F3, 2, eta)}
    assert oks and len(oks) < F3.Q - 1


# ---------------------------------------------------------------------------
# theta <-> theta^{-1} identities
# ---------------------------------------------------------------------------

def _pow_vec(field, g, r, j):
    """theta^j(g) for theta = frob_q^r."""
    return GaloisAut(field, r).power(j).on_vector(g)


@pytest.mark.parametrize("r", [1, 3])
def test_gabidulin_theta_inverse_identity(f2_8, r):
    F = f2_8
    n, k = 6, 3
    g = la.random_full_rank_vector(F, n, DetRNG(5, f"gid{r}"))
    lhs = cd.build(F, cd.make_spec("Gabidulin", n, k, r, g))
    rhs = cd.build(F, cd.make_spec("Gabidulin", n, k, F.m - r, _pow_vec(F, g, r, k - 1)))
    assert cd.code_equal(lhs, rhs)


@pytest.mark.parametrize("r", [1, 3])
def test_twisted_theta_inverse_identity(f2_8, r):
    F = f2_8
    n, k = 6, 3
    rng = DetRNG(6, f"tid{r}")
    g = la.random_full_rank_vector(F, n, rng)
    eta = F.alpha_pow(1 + rng.randbelow(F.Qm1 - 1))
    lhs = cd.build(F, cd.make_spec("Twisted", n, k, r, g, eta=eta))
    rhs = cd.build(F, cd.make_spec("Twisted", n, k, F.m - r,
                                   _pow_vec(F, g, r, k), eta=F.inv(eta)))
    assert cd.code_equal(lhs, rhs)


@pytest.mark.parametrize("r,t,h", [(1, 2, 1), (3, 3, 0), (1, 1, 2)])
def test_generalized_twisted_theta_inverse_identity(f2_8, r, t, h):
    F = f2_8
    n, k = 6, 3
    rng = DetRNG(7, f"gid{r}{t}{h}")
    g = la.random_full_rank_vector(F, n, rng)
    eta = F.alpha_pow(rng.randbelow(F.Qm1))
    lhs = cd.build(F, cd.make_spec("GeneralizedTwisted", n, k, r, g,
                                   eta=(eta,), t=(t,), h=(h,)))
    rhs = cd.build(F, cd.make_spec("GeneralizedTwisted", n, k, F.m - r,
                                   _pow_vec(F, g, r, k - 1),
                                   eta=(eta,), t=(F.m - (k + t - 1),), h=(k - h - 1,)))
    assert cd.code_equal(lhs, rhs)


def test_hook0_twist1_identity_chain(f2_8):
    F = f2_8
    n, k, m = 6, 3, F.m
    rng = DetRNG(8, "chain")
    g = la.random_full_rank_vector(F, n, rng)
    eta = F.alpha_pow(1 + rng.randbelow(F.Qm1 - 1))
    c0 = cd.build(F, cd.make_spec("GeneralizedTwisted", n, k, 1, g,
                                  eta=(eta,), t=(1,), h=(0,)))
    c1 = cd.build(F, cd.make_spec("GeneralizedTwisted", n, k, m - 1,
                                  _pow_vec(F, g, 1, k - 1),
                                  eta=(eta,), t=(m - k,), h=(k - 1,)))
    c2 = cd.build(F, cd.make_spec("GeneralizedTwisted", n, k, m - 1,
                                  _pow_vec(F, g, 1, k),
                                  eta=(F.inv(eta),), t=(1,), h=(0,)))
    # fourth member: re-applying the inversion identity to c2 shifts the
    # evaluation vector by theta^{-(k-1)} o theta^k = theta
    c3 = cd.build(F, cd.make_spec("GeneralizedTwisted", n, k, 1,
                                  _pow_vec(F, g, 1, 1),
                                  eta=(F.inv(eta),), t=(m - k,), h=(k - 1,)))
    assert cd.code_equal(c0, c1) and cd.code_equal(c1, c2) and cd.code_equal(c2, c3)
    # hook 0 / twist 1 is exactly the narrow-sense twisted construction
    tw = cd.build(F, cd.make_spec("Twisted", n, k, 1, g, eta=eta))
    assert cd.code_equal(c0, tw)


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------

DUAL_N = 5


@pytest.mark.parametrize("k", [0, 1, DUAL_N - 1, DUAL_N], ids=lambda k: f"k{k}")
@pytest.mark.parametrize("case", FP_FIELDS + TOWER_FIELDS, ids=FP_IDS + TOWER_IDS)
def test_generic_dual_properties(case, k):
    """dual reads C^perp off the stored RREF; la.nullspace, which eliminates
    the generator afresh, is the oracle."""
    backend, p, e, m = case
    F = make_field(p, e, m, backend=backend)
    rng = DetRNG(9, f"dual/{backend}/{p}/{e}/{m}/{k}")
    c = cd.LinearCode.from_rows(F, [], DUAL_N)
    while c.k < k:
        row = tuple(rng.randbelow(F.Q) for _ in range(DUAL_N))
        c = cd.LinearCode.from_rows(F, c.gen + (row,), DUAL_N)
    d = cd.dual(c)
    assert d.gen == la.nullspace(F, c.gen, DUAL_N)
    assert d.k == c.n - c.k and d.n == c.n
    for row in c.gen:
        assert all(oracles.dot(F, row, h) == 0 for h in d.gen)
    assert cd.code_equal(cd.dual(d), c)


@pytest.mark.parametrize("theta_exp", [1, 3])
def test_gabidulin_dual_closed_form(f2_8, theta_exp):
    F = f2_8
    rng = DetRNG(10, f"gdual{theta_exp}")
    g = la.random_full_rank_vector(F, 6, rng)
    spec = cd.make_spec("Gabidulin", 6, 2, theta_exp, g)
    dspec = oracles.gabidulin_dual_params(F, spec)
    assert dspec.family == "Gabidulin" and dspec.k == 4
    assert cd.code_equal(cd.dual(cd.build(F, spec)), cd.build(F, dspec))


@pytest.mark.parametrize("field_args,n,k", [((3, 1, 5), 5, 2), ((3, 2, 4), 4, 2)])
def test_twisted_dual_params_agree_across_backends(field_args, n, k):
    # twisted_dual_params reads the value of det, not only whether it is 0;
    # the generic backend at odd p takes it from the fraction-free
    # elimination, dividing out the row scales, the table one from pivots
    Ft, Fg = (make_field(*field_args, backend=b) for b in ("table", "generic"))
    rng = DetRNG(12, f"tdual-backends{field_args}{n}{k}")
    g = la.random_full_rank_vector(Ft, n, rng)
    eta = Ft.alpha_pow(1 + rng.randbelow(Ft.Qm1 - 1))
    spec = cd.make_spec("Twisted", n, k, 1, g, eta=eta)
    theta = GaloisAut(Ft, 1)
    D = la.det(Ft, la.moore_matrix(Ft, g, n, theta))
    assert D not in (0, 1) and la.det(Fg, la.moore_matrix(Fg, g, n, GaloisAut(Fg, 1))) == D
    assert oracles.twisted_dual_params(Fg, spec) == oracles.twisted_dual_params(Ft, spec)


@pytest.mark.parametrize("field_args,n,k", [((2, 1, 8), 6, 2), ((3, 1, 5), 5, 2), ((2, 1, 8), 5, 3)])
def test_twisted_dual_closed_form_and_eta_norm(field_args, n, k):
    F = make_field(*field_args)
    rng = DetRNG(11, f"tdual{field_args}{n}{k}")
    g = la.random_full_rank_vector(F, n, rng)
    eta = F.alpha_pow(1 + rng.randbelow(F.Qm1 - 1))
    spec = cd.make_spec("Twisted", n, k, 1, g, eta=eta)
    dspec = oracles.twisted_dual_params(F, spec)
    assert dspec.family == "Twisted" and dspec.k == n - k
    assert cd.code_equal(cd.dual(cd.build(F, spec)), cd.build(F, dspec))
    # norm relation between eta and the dual twist coefficient
    sign = F.one if (n * F.m) % 2 == 0 else F.neg(F.one)
    assert F.norm_q(dspec.eta[0]) == F.mul(sign, F.norm_q(eta))


# ---------------------------------------------------------------------------
# distances (frozen oracles)
# ---------------------------------------------------------------------------

def test_gabidulin_is_mrd_small():
    for (p, e, m, n, k) in ((2, 1, 5, 5, 2), (2, 1, 6, 4, 2), (3, 1, 4, 4, 2)):
        F = make_field(p, e, m)
        g = la.random_full_rank_vector(F, n, DetRNG(12, f"mrd{m}{n}{k}"))
        c = cd.build(F, cd.make_spec("Gabidulin", n, k, 1, g))
        assert cd.min_distance_bruteforce(c) == n - k + 1


def test_twisted_distance_q2_never_mrd():
    # over F_{2^5} with n=5, k=2 the twist coefficient can never satisfy the
    # norm condition, and every twisted code has distance exactly 3 < 4
    F = make_field(2, 1, 5)
    g = la.random_full_rank_vector(F, 5, DetRNG(13, "q2tw"))
    for j in range(F.Qm1):
        eta = F.alpha_pow(j)
        c = cd.build(F, cd.make_spec("Twisted", 5, 2, 1, g, eta=eta))
        assert cd.min_distance_bruteforce(c) == 3


def test_twisted_distance_q3_matches_norm_condition():
    # q=3, m=n=4, k=2: MRD (d = 3) exactly when norm(eta) != (-1)^(km)
    F = make_field(3, 1, 4)
    g = la.random_full_rank_vector(F, 4, DetRNG(14, "q3tw"))
    mrd_count = 0
    for eta in range(1, F.Q):
        c = cd.build(F, cd.make_spec("Twisted", 4, 2, 1, g, eta=eta))
        d = cd.min_distance_bruteforce(c)
        if cd.norm_condition_ok(F, 2, eta):
            assert d == 3
            mrd_count += 1
        else:
            assert d < 3
    assert mrd_count == sum(
        cd.norm_condition_ok(F, 2, eta) for eta in range(1, F.Q)
    )


def test_min_distance_budget_guard(f2_15, worked_example_codes):
    gab, _ = worked_example_codes
    with pytest.raises(cd.BudgetExceeded):
        cd.min_distance_bruteforce(gab, cap=10_000)


def _projective_count(F, k):
    return (F.Q**k - 1) // (F.Q - 1)


def _low_rank_word(F, n, r, rng):
    """A word whose entries lie in the F_q-span of r random elements, drawn
    until its F_q-rank is exactly r."""
    while True:
        span = [F.random_nonzero(rng) for _ in range(r)]
        word = []
        for _ in range(n):
            acc = 0
            for b in span:
                acc = F.add(acc, F.mul(F.subfield_element(F.q, rng.randbelow(F.q)), b))
            word.append(acc)
        if la.rank_q(F, word) == r:
            return tuple(word)


def _distance_oracle_codes(F, rng, max_words=1100):
    """For each n <= m and k = 1..n-1 with at most max_words projective
    codewords: a Gabidulin code, a random code, and random codes with a
    planted word of rank 1 and of rank 2.  Plus the full space F^n."""
    codes = []
    for n in range(2, F.m + 1):
        codes.append(cd.LinearCode.from_rows(F, la.identity(F, n)))
        for k in range(1, n):
            if _projective_count(F, k) > max_words:
                continue
            g = la.random_full_rank_vector(F, n, rng)
            codes.append(cd.build(F, cd.make_spec("Gabidulin", n, k, 1, g)))
            codes.append(cd.LinearCode.from_rows(F, [_random_vector(F, n, rng) for _ in range(k)], n))
            for r in (1, 2):
                rows = [_low_rank_word(F, n, r, rng)] + [_random_vector(F, n, rng) for _ in range(k - 1)]
                codes.append(cd.LinearCode.from_rows(F, rows, n))
    return codes


@pytest.mark.parametrize("case", FP_FIELDS, ids=FP_IDS)
def test_min_distance_matches_oracle(case):
    backend, p, e, m = case
    F = make_field(p, e, m, backend=backend)
    rng = DetRNG(59, f"distance-oracle/{backend}/{p}/{e}/{m}")
    seen = set()
    for code in _distance_oracle_codes(F, rng):
        d = oracles.min_distance_bruteforce(code)
        assert cd.min_distance_bruteforce(code) == d, code
        seen.add((code.n - code.k + 1, d))
        # the same cap decides both, with the same message
        cap = _projective_count(F, code.k) - 1
        with pytest.raises(cd.BudgetExceeded) as new:
            cd.min_distance_bruteforce(code, cap=cap)
        with pytest.raises(cd.BudgetExceeded) as old:
            oracles.min_distance_bruteforce(code, cap=cap)
        assert str(new.value) == str(old.value)
        assert cd.min_distance_bruteforce(code, cap=cap + 1) == d
    # MRD codes, codes below the Singleton bound, and rank-one words all occur
    assert any(d == s and d > 1 for s, d in seen)
    assert any(1 < d < s for s, d in seen)
    assert any(d == 1 for _, d in seen)


@pytest.mark.parametrize("case", FP_FIELDS, ids=FP_IDS)
def test_walk_yields_each_projective_codeword_once(case):
    backend, p, e, m = case
    F = make_field(p, e, m, backend=backend)
    rng = DetRNG(61, f"walk/{backend}/{p}/{e}/{m}")
    n = 3
    for k in (1, 2, 3) if F.Q <= 32 else (1, 2):
        code = cd.LinearCode.from_rows(F, [_random_vector(F, n, rng) for _ in range(k)], n)
        assert code.k == k
        spreads = list(cd._projective_spreads(code))
        assert len(spreads) == _projective_count(F, k)
        words = [w[:n] for w in spreads]
        assert all(w == tuple(la.spread(F, c)) for w, c in zip(spreads, words))
        assert len(set(words)) == len(words)
        expected = {
            la.vec_mat(F, (0,) * lead + (1,) + suffix, code.gen)
            for lead in range(k)
            for suffix in itertools.product(range(F.Q), repeat=k - lead - 1)
        }
        assert set(words) == expected


def _line_codes(case):
    """The field of case and, for every 2 <= n <= m and k in {1, n-1} (the
    codes _is_mrd_line decides), a Gabidulin code, a random code, and codes
    with a planted row of F_q-rank n-k (the largest rank that breaks MRD)
    or 1."""
    backend, p, e, m = case
    F = make_field(p, e, m, backend=backend)
    rng = DetRNG(89, f"mrd-line-oracle/{backend}/{p}/{e}/{m}")
    codes = []
    for n in range(2, m + 1):
        for k in sorted({1, n - 1}):
            g = la.random_full_rank_vector(F, n, rng)
            codes += [cd.build(F, cd.make_spec("Gabidulin", n, k, 1, g)),
                      cd.LinearCode.from_rows(F, [_random_vector(F, n, rng) for _ in range(k)], n)]
            # k >= 3 draws more planted codes
            for r in [n - k, 1] * (1 if k < 3 else 4):
                rows = [_low_rank_word(F, n, r, rng)] + [_random_vector(F, n, rng) for _ in range(k - 1)]
                codes.append(cd.LinearCode.from_rows(F, rows, n))
    return F, codes


@pytest.mark.parametrize("case", FP_FIELDS + TOWER_FIELDS, ids=FP_IDS + TOWER_IDS)
def test_mrd_line_matches_oracle(case):
    # the one rank test against the minor criterion on every code with
    # k = 1 or n-k = 1, and against the word sweep while a code has at most
    # 4,000 projective codewords; MRD and non-MRD codes occur on both sides
    F, codes = _line_codes(case)
    seen = set()
    for code in codes:
        n, k = code.n, code.k
        mrd = oracles.is_mrd_by_determinants(code)
        if _projective_count(F, k) <= 4000:
            assert mrd is (oracles.min_distance_bruteforce(code) == n - k + 1)
        assert cd._is_mrd_line(code) is mrd, (n, k)
        seen.add(("k = 1" if k == 1 else "n-k = 1", mrd))
    assert seen == {(side, mrd) for side in ("k = 1", "n-k = 1") for mrd in (True, False)}


@pytest.mark.parametrize("case", FP_FIELDS + TOWER_FIELDS, ids=FP_IDS + TOWER_IDS)
def test_mrd_line_agrees_on_the_dual(case):
    # C is MRD exactly when C^perp is (n <= m; Gabidulin 1985), and the dual
    # of a code with k = 1 has n-k = 1 and the other way round, so the two
    # sides of the test decide each other's codes: the k = 1 side on C^perp
    # matches the minor criterion on C with n-k = 1, and vice versa
    F, codes = _line_codes(case)
    for code in codes:
        dual = cd.dual(code)
        assert cd._is_mrd_line(dual) is oracles.is_mrd_by_determinants(code), (code.n, code.k)
    assert {code.k == 1 for code in codes} == {True, False}


@pytest.mark.parametrize("case", FP_FIELDS + TOWER_FIELDS, ids=FP_IDS + TOWER_IDS)
def test_mrd_line_makes_one_rank_test(case, monkeypatch):
    # each decision is one F_p-rank test on the spread of n entries: g at
    # k = 1, and 1 with the non-pivot column at n-k = 1
    backend, p, e, m = case
    F = make_field(p, e, m, backend=backend)
    rng = DetRNG(97, f"mrd-line/{backend}/{p}/{e}/{m}")
    tested = []
    monkeypatch.setattr(la, "_fp_rank", lambda field, entries, stop=None, rank=la._fp_rank:
                        tested.append(len(entries)) or rank(field, entries, stop))
    for n in range(2, m + 1):
        for k in sorted({1, n - 1}):
            code = cd.build(F, cd.make_spec("Gabidulin", n, k, 1, la.random_full_rank_vector(F, n, rng)))
            tested.clear()
            assert cd._is_mrd_line(code)
            assert tested == [e * n]


@pytest.mark.parametrize("case", FP_FIELDS, ids=FP_IDS)
def test_fp_rank_with_stop_matches_elimination(case):
    backend, p, e, m = case
    F = make_field(p, e, m, backend=backend)
    rng = DetRNG(67, f"fp-rank/{backend}/{p}/{e}/{m}")
    for _ in range(40):
        entries = [F.random_element(rng) for _ in range(rng.randbelow(F.d + 3))]
        if len(entries) >= 2:
            # planted dependencies: a sum of two entries, a repeat, a zero
            entries.append(F.add(entries[0], entries[-1]))
            entries.insert(rng.randbelow(len(entries)), entries[1])
            entries.insert(rng.randbelow(len(entries)), 0)
        full = la.rank_p(p, [F.coeffs(a) for a in entries])
        for stop in range(1, len(entries) + 2):
            assert la._fp_rank(F, entries, stop) == min(full, stop)


# ---------------------------------------------------------------------------
# rank-one codewords and subfield subcodes
# ---------------------------------------------------------------------------

def test_has_rank_one_codeword(f2_8):
    F = f2_8
    g = la.random_full_rank_vector(F, 6, DetRNG(15, "r1"))
    gab = cd.build(F, cd.make_spec("Gabidulin", 6, 3, 1, g))
    found, wit = cd.has_rank_one_codeword(gab)
    assert not found and wit is None
    # a code containing an F_q row has a rank-one word
    rows = ((F.one, F.one, F.zero, F.one, F.zero, F.zero), g)
    c = cd.LinearCode.from_rows(F, rows)
    found, wit = cd.has_rank_one_codeword(c)
    assert found and la.rank_q(F, wit) == 1
    assert la.rank(F, c.gen + (wit,)) == c.k


def test_has_rank_one_codeword_all_mu_agrees(f16, f3_5, f4_3):
    rng = DetRNG(16, "allmu")
    # both backends, p in {2, 3}, e in {1, 2}
    fields = ((f16, 4), (f3_5, 4), (f4_3, 3),
              (make_field(2, 1, 4, backend="generic"), 4),
              (make_field(3, 2, 3, backend="generic"), 3))
    for F, n in fields:
        codes = [_random_code(F, family, n, k, oracles.spawn(rng, f"{F.q}/{family}/{k}"))
                 for family in ("Gabidulin", "Twisted") for k in (1, 2)]
        # the all-ones word has F_q-rank one
        codes.append(cd.LinearCode.from_rows(F, ((1,) * n, codes[0].gen[0])))
        for c in codes:
            # the dimension read off the trie, on a fresh trie, is the size
            # of the basis the meet forms
            dim = cd._galois_stable_dim(c)
            assert (dim > 0) == oracles.has_rank_one_codeword_all_mu(c)[0]
            assert dim == len(cd._galois_stable_part(c))
            found, wit = cd.has_rank_one_codeword(c)
            assert found == oracles.has_rank_one_codeword_all_mu(c)[0]
            # the witness comes from the subfield subcode
            assert wit is None or all(F.in_subfield(a, 1) for a in wit)


def test_subfield_subcode_dimensions(f2_8, f4_3):
    # e = 2 puts F_q elements with several nonzero digits into the kernel
    for F, n, k in ((f2_8, 6, 3), (f4_3, 3, 2)):
        g = la.random_full_rank_vector(F, n, DetRNG(17, "ssc"))
        gab = cd.build(F, cd.make_spec("Gabidulin", n, k, 1, g))
        dim, rows = oracles.subfield_subcode(gab)
        assert dim == 0 and rows == ()
        # a code spanned by F_q rows is its own subfield span
        qrows = []
        rng = DetRNG(18, "qrows")
        while la.rank(F, tuple(qrows)) < k:
            qrows.append(tuple(F.subfield_element(F.q, rng.randbelow(F.q)) for _ in range(n)))
        c = cd.LinearCode.from_rows(F, tuple(qrows))
        dim, rows = oracles.subfield_subcode(c)
        assert dim == c.k
        assert all(F.in_subfield(x, 1) for row in rows for x in row)


@pytest.mark.parametrize("backend", ("table", "generic"))
@pytest.mark.parametrize("p,e,m", [(2, 2, 3), (3, 2, 2)])
def test_subfield_kernel_words_are_codewords_over_F_q(backend, p, e, m):
    # The code holds lam*w with w in F_q^n, so its subfield subcode is not
    # zero.  Each oracle word is checked on its own: the differential test
    # below compares only their F_{q^m}-span, which a word built from a wrong
    # message scalar (say, one digit short) need not change.
    F = make_field(p, e, m, backend=backend)
    rng = DetRNG(19, f"subfield-kernel/{backend}/{p}/{e}/{m}")
    n = 3
    for _ in range(10):
        w = (F.one,) + tuple(F.subfield_element(F.q, rng.randbelow(F.q)) for _ in range(n - 1))
        lam = F.random_nonzero(rng)
        code = cd.LinearCode.from_rows(F, (la.scale_vec(F, lam, w), _random_vector(F, n, rng)))
        words = oracles.subfield_kernel(code)
        assert words
        for c in words:
            assert any(c) and la.rank(F, code.gen + (c,)) == code.k
            assert all(F.in_subfield(a, 1) for a in c)


def _random_vector(F, n, rng):
    return tuple(F.random_element(rng) for _ in range(n))


def _subfield_oracle_codes(F, n, rng):
    """Random codes of every dimension 1..n-1, the same with 1..k scaled
    F_q-words planted among the rows, the zero code and the full space."""
    codes = [cd.LinearCode(F, n, 0, ()), cd.LinearCode.from_rows(F, la.identity(F, n))]
    for k in range(1, n):
        codes.append(cd.LinearCode.from_rows(F, [_random_vector(F, n, rng) for _ in range(k)], n))
        for planted in range(1, k + 1):
            rows = [la.scale_vec(F, F.random_nonzero(rng),
                                 tuple(F.subfield_element(F.q, rng.randbelow(F.q)) for _ in range(n)))
                    for _ in range(planted)]
            rows += [_random_vector(F, n, rng) for _ in range(k - planted)]
            codes.append(cd.LinearCode.from_rows(F, rows, n))
    return codes


@pytest.mark.parametrize("case", FP_FIELDS, ids=FP_IDS)
def test_subfield_subcode_matches_oracle(case):
    backend, p, e, m = case
    F = make_field(p, e, m, backend=backend)
    rng = DetRNG(53, f"subfield-oracle/{backend}/{p}/{e}/{m}")
    nonzero = 0
    for c in _subfield_oracle_codes(F, m, rng):
        R = la.rref(F, oracles.subfield_kernel(c))[0]
        assert oracles.subfield_subcode(c) == (len(R), R)
        found, wit = cd.has_rank_one_codeword(c)
        assert found == bool(R)
        if found:
            nonzero += 1
            assert la.rank_q(F, wit) == 1
            assert la.rank(F, c.gen + (wit,)) == c.k
            assert all(F.in_subfield(a, 1) for a in wit)
        else:
            assert wit is None
    assert nonzero >= m  # the planted codes and the full space


@pytest.mark.parametrize("case", FP_FIELDS, ids=FP_IDS)
def test_galois_stable_part_matches_dual_oracle(case):
    backend, p, e, m = case
    F = make_field(p, e, m, backend=backend)
    rng = DetRNG(61, f"stable-part-oracle/{backend}/{p}/{e}/{m}")
    codes = _subfield_oracle_codes(F, m, rng)
    # pivots that are not the leading columns: a zero first column
    codes += [cd.LinearCode.from_rows(F, [(0,) + row[1:] for row in c.gen], m)
              for c in codes if 0 < c.k < m]
    assert any(c.k and c.gen[0][0] == 0 for c in codes)
    for c in codes:
        want = oracles.galois_stable_part_via_duals(c)
        assert cd._galois_stable_dim(c) == len(want)
        assert cd._galois_stable_part(c) == want


def _meet_cases(F, m, rng):
    """The subfield oracle codes plus a Galois-stable code of dimension
    m - 1 with F_q entries off its pivots, and exponent sets that are
    empty, repeated, out of range, shared prefixes of each other, and all
    of 1..m-1, which reaches full rank on most codes."""
    codes = _subfield_oracle_codes(F, m, rng)
    stable = [tuple(F.subfield_element(F.q, rng.randbelow(F.q)) for _ in range(m))
              for _ in range(m - 1)]
    codes.append(cd.LinearCode.from_rows(F, [row[:i] + (1,) + row[i + 1:]
                                             for i, row in enumerate(stable)], m))
    every = tuple(range(1, m))
    exps = [(), (0,), (1,), (1, 1), (m - 1, 1, m + 1), every[:2], every, every + every,
            (-1,) + every, ()]
    return codes, exps


@pytest.mark.parametrize("case", FP_FIELDS, ids=FP_IDS)
def test_meet_matches_stacked_kernel(case):
    # the kernel read off the trie node for (0, *exps) is the kernel of the
    # stacked blocks, asked in an order where later sets continue or repeat
    # earlier ones
    backend, p, e, m = case
    F = make_field(p, e, m, backend=backend)
    codes, exps = _meet_cases(F, m, DetRNG(67, f"meet-oracle/{backend}/{p}/{e}/{m}"))
    stable = codes[-1]
    assert stable.k == m - 1 and cd._galois_stable_part(stable) == stable.gen
    seen = set()
    for c in codes:
        for js in exps:
            got = c.diffs.meet(js)
            assert got == oracles.meet_stacked(c, js), (c, js)
            seen.add((0 < len(got) < c.k, not got and c.k > 0))
    assert (True, False) in seen and (False, True) in seen  # proper and full rank


@pytest.mark.parametrize("case", FP_FIELDS, ids=FP_IDS)
def test_meet_and_stable_part_share_the_t_row_eliminations(monkeypatch, case):
    # meet feeds its blocks through the trie the t-rows grow: a second meet
    # on the same exponents feeds no row, nor do the t-ranks of (0, *exps)
    # after it, and the Galois-stable part feeds none after t_sequence(code,
    # 1) nor that t-row after the stable part
    backend, p, e, m = case
    F = make_field(p, e, m, backend=backend)
    codes, exps = _meet_cases(F, m, DetRNG(71, f"meet-trie/{backend}/{p}/{e}/{m}"))
    fed = []
    real_add_row = la.IncrementalRank.add_row

    def counting_add_row(self, row):
        fed.append(tuple(row))
        return real_add_row(self, row)

    monkeypatch.setattr(la.IncrementalRank, "add_row", counting_add_row)
    first_fed = 0
    for c in codes:
        for js in exps:
            fed.clear()
            first = c.diffs.meet(js)
            first_fed += len(fed)
            fed.clear()
            assert c.diffs.meet(js) == first
            list(c.diffs.ranks("cols", (0, *js)))
            assert fed == [], (c, js)
        want = oracles.galois_stable_part_via_duals(c)
        for calls in ((lambda x: iv.t_sequence(x, 1), cd._galois_stable_part),
                      (cd._galois_stable_part, lambda x: iv.t_sequence(x, 1))):
            fresh = cd.LinearCode(F, c.n, c.k, c.gen)
            calls[0](fresh)
            fed.clear()
            calls[1](fresh)
            assert fed == [], c
            assert cd._galois_stable_part(fresh) == want
    assert first_fed > 0  # a first meet eliminates through the trie


# ---------------------------------------------------------------------------
# generator uniqueness (exhaustive at tiny size)
# ---------------------------------------------------------------------------

def test_gabidulin_generator_uniqueness_exhaustive_f8():
    # [3, 2] codes over F_8: G(u) == G(v) iff v is a scalar multiple of u.
    # Normalizing u_0 = 1 picks one representative per scaling class, so the
    # 24 normalized evaluation vectors must give 24 pairwise distinct codes.
    F = make_field(2, 1, 3)
    reps = []
    for a, b in itertools.product(range(F.Q), repeat=2):
        u = (F.one, a, b)
        if la.rank_q(F, u) == 3:
            reps.append(u)
    assert len(reps) == 24  # 168 full-rank vectors / 7 scalings
    codes = {cd.build(F, cd.make_spec("Gabidulin", 3, 2, 1, u)).gen for u in reps}
    assert len(codes) == 24
    # and scaling really does preserve the code
    u = reps[5]
    for lam in range(1, F.Q):
        v = la.scale_vec(F, lam, u)
        assert cd.code_equal(
            cd.build(F, cd.make_spec("Gabidulin", 3, 2, 1, u)),
            cd.build(F, cd.make_spec("Gabidulin", 3, 2, 1, v)),
        )


def test_twisted_generator_uniqueness_sweep():
    # TGab(u, eta) == TGab(lam*u, eta') iff eta' = eta * lam / theta^k(lam)
    F = make_field(2, 1, 5)
    n, k = 5, 2
    rng = DetRNG(19, "twuniq")
    u = la.random_full_rank_vector(F, n, rng)
    eta = F.alpha_pow(3)
    base = cd.build(F, cd.make_spec("Twisted", n, k, 1, u, eta=eta))
    theta = GaloisAut(F, 1)
    for lam in range(1, F.Q):
        expected = F.mul(F.mul(eta, lam), F.inv(theta.power(k)(lam)))
        v = la.scale_vec(F, lam, u)
        same = cd.build(F, cd.make_spec("Twisted", n, k, 1, v, eta=expected))
        assert cd.code_equal(base, same)
        for j in (1, 11):
            other = F.mul(expected, F.alpha_pow(j))
            diff = cd.build(F, cd.make_spec("Twisted", n, k, 1, v, eta=other))
            assert not cd.code_equal(base, diff)
    # evaluation vectors outside the scaling orbit give different codes
    for trial in range(10):
        v = la.random_full_rank_vector(F, n, oracles.spawn(rng, f"v{trial}"))
        if any(v == la.scale_vec(F, lam, u) for lam in range(1, F.Q)):
            continue
        for etap in (eta, F.alpha_pow(9)):
            assert not cd.code_equal(
                base, cd.build(F, cd.make_spec("Twisted", n, k, 1, v, eta=etap))
            )


# ---------------------------------------------------------------------------
# semilinear action
# ---------------------------------------------------------------------------

def test_apply_galois_and_full_aut(f2_8):
    F = f2_8
    c = _random_code(F, "Twisted", 6, 3, DetRNG(20, "app"))
    sigma = GaloisAut(F, 3)
    img = cd.LinearCode.from_rows(F, tuple(sigma.on_vector(r) for r in c.gen))
    assert img.k == c.k
    # over e=1 the full automorphism group is the Galois group
    assert cd.code_equal(oracles.apply_full_aut(c, FullAut(F, 3)), img)
    # identity semilinear map fixes the code
    ident = cd.SemilinearMap(F.one, la.identity(F, 6), FullAut(F, 0))
    assert cd.code_equal(cd.apply_semilinear(c, ident), c)


def test_apply_semilinear_preserves_dimension_and_is_invertible(f3_5):
    F = f3_5
    rng = DetRNG(21, "semi")
    c = _random_code(F, "Gabidulin", 4, 2, rng)
    smap = cd.SemilinearMap(
        F.alpha_pow(7),
        la.random_invertible_matrix_q(F, 4, oracles.spawn(rng, "A")),
        FullAut(F, 2),
    )
    img = cd.apply_semilinear(c, smap)
    assert img.k == c.k and not cd.code_equal(img, c) or True
    # pushing every codeword through the map lands in the image code
    for row in c.gen:
        assert la.rank(F, img.gen + (smap.apply_vector(F, row),)) == img.k


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_code_serialization_roundtrip(tmp_path, f2_8):
    F = f2_8
    g = la.random_full_rank_vector(F, 6, DetRNG(22, "ser"))
    spec = cd.make_spec("Twisted", 6, 3, 1, g, eta=F.alpha_pow(5))
    c = cd.build(F, spec)
    prov = cd.spec_to_provenance(spec, F)
    path = tmp_path / "tw.code"
    cd.save_code(c, str(path), provenance=prov)
    c2, prov2 = cd.load_code(str(path))
    assert cd.code_equal(c, c2) and c2.gen == c.gen
    assert c2.field == F
    assert prov2["family"] == "Twisted"
    # dict round trip without file I/O
    c3, _ = cd.code_from_dict(cd.code_to_dict(c))
    assert c3.gen == c.gen


def test_linear_code_canonical_form_and_contains(f2_8):
    F = f2_8
    g = la.random_full_rank_vector(F, 6, DetRNG(23, "canon"))
    c = cd.build(F, cd.make_spec("Gabidulin", 6, 3, 1, g))
    # generator matrix is stored in reduced echelon form: rebuilding from
    # shuffled row combinations gives the identical matrix
    mixed = (
        oracles.add_vec(F, c.gen[0], c.gen[1]),
        oracles.add_vec(F, c.gen[1], la.scale_vec(F, F.alpha, c.gen[2])),
        c.gen[2],
    )
    c2 = cd.LinearCode.from_rows(F, mixed)
    assert c2.gen == c.gen
    assert la.rank(F, c.gen + (mixed[0], (0,) * 6)) == c.k
    # theta^k(g) is outside (the Moore ladder grows rank)
    outside = GaloisAut(F, 1).power(3).on_vector(g)
    assert la.rank(F, c.gen + (outside,)) == c.k + 1
