"""Field-tower arithmetic: laws, Frobenius/norm, moduli, parsing, backends."""

import math

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

import oracles
from rankinv import gf
from rankinv.gf import (
    FieldError,
    FullAut,
    GaloisAut,
    default_modulus,
    digits_of,
    field_from_dict,
    field_to_dict,
    format_element,
    galois_generators,
    make_field,
    pack_digits,
    parse_element,
)
from rankinv.rng import DetRNG
from tests.conftest import WORKED_EXAMPLE_MODULUS


# ---------------------------------------------------------------------------
# moduli
# ---------------------------------------------------------------------------

def _sympy_irreducible(coeffs, p):
    # coeffs little-endian; sympy wants big-endian
    x = sympy.symbols("x")
    poly = sympy.Poly(list(reversed(coeffs)), x, domain=sympy.GF(p))
    return poly.is_irreducible


@pytest.mark.parametrize("p,d", [(2, 4), (2, 8), (2, 15), (3, 4), (3, 5), (5, 3), (7, 2)])
def test_default_modulus_is_irreducible_by_independent_oracle(p, d):
    mod = default_modulus(p, d)
    assert len(mod) == d + 1 and mod[-1] == 1
    assert _sympy_irreducible(mod, p)


@pytest.mark.parametrize("p,d", [(2, 4), (2, 8), (2, 15), (3, 4), (2, 12), (3, 16)])
def test_frozen_moduli_match_fresh_search(p, d):
    # the precomputed table must agree with what the search would return
    assert default_modulus(p, d) == tuple(
        digits_of(gf._search_default_modulus(p, d), p, d)
    ) + (1,)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("backend", ("table", "generic"))
def test_modulus_x_rejected_at_degree_one(p, backend):
    # f = x makes alpha = 0; x**(p-1) = 0 != 1 fails the order test
    with pytest.raises(FieldError):
        make_field(p, 1, 1, modulus=(0, 1), backend=backend)


def _monic_polys(p, d):
    for packed in range(p**d):
        yield digits_of(packed, p, d) + [1]


@pytest.mark.parametrize("p,d_max", [(2, 8), (3, 5), (5, 3)])
def test_order_test_matches_table_build(p, d_max):
    # building the exp table proves primitivity on its own: the powers of
    # alpha must enumerate every nonzero residue once and wrap around to 1
    for d in range(1, d_max + 1):
        for f in _monic_polys(p, d):
            try:
                gf.FieldTower(p, 1, d, modulus=f, backend="table")
                builds = True
            except FieldError:
                builds = False
            assert gf._is_primitive(f, p) == builds, f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_degree_one_default_is_least_primitive_root(p):
    g = sympy.primitive_root(p)
    assert default_modulus(p, 1) == ((-g) % p, 1)


def test_default_modulus_small_pins():
    assert default_modulus(2, 4) == (1, 1, 0, 0, 1)  # x^4 + x + 1
    assert default_modulus(2, 2) == (1, 1, 1)  # x^2 + x + 1
    with pytest.raises(FieldError):
        default_modulus(2, 0)


def test_worked_example_modulus_accepted_and_primitive():
    F = make_field(2, 1, 15, modulus=WORKED_EXAMPLE_MODULUS)
    assert F.modulus == WORKED_EXAMPLE_MODULUS
    # alpha^15 = alpha^5 + alpha^4 + alpha^2 + 1
    lhs = F.pow(F.alpha, 15)
    rhs = F.from_coeffs([1, 0, 1, 0, 1, 1])
    assert lhs == rhs


def test_reducible_modulus_rejected():
    # x^4 + 1 = (x+1)^4 over F_2
    with pytest.raises(FieldError):
        make_field(2, 1, 4, modulus=(1, 0, 0, 0, 1))
    # non-monic / wrong length
    with pytest.raises(FieldError):
        make_field(2, 1, 4, modulus=(1, 1, 0, 1))


def test_table_backend_exp_is_bijective(f3_5):
    # the exp table enumerating all nonzero elements exactly once is the
    # primitivity certificate for the modulus
    seen = {f3_5.alpha_pow(j) for j in range(f3_5.Qm1)}
    assert len(seen) == f3_5.Qm1
    assert 0 not in seen


# ---------------------------------------------------------------------------
# arithmetic laws
# ---------------------------------------------------------------------------

def _elem(field):
    return st.integers(0, field.Q - 1)


@given(st.data())
def test_field_laws(f4_3, data):
    F = f4_3
    a = data.draw(_elem(F))
    b = data.draw(_elem(F))
    c = data.draw(_elem(F))
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.zero) == a
    assert F.mul(a, F.one) == a
    assert F.add(a, F.neg(a)) == F.zero
    assert F.sub(a, b) == F.add(a, F.neg(b))
    if a != 0:
        assert F.mul(a, F.inv(a)) == F.one
        assert F.div(b, a) == F.mul(b, F.inv(a))


def test_inverse_of_zero_fails(f16):
    with pytest.raises((FieldError, ZeroDivisionError)):
        f16.inv(0)


@given(st.data())
def test_pow_matches_repeated_multiplication(f3_5, data):
    F = f3_5
    a = data.draw(st.integers(1, F.Q - 1))
    k = data.draw(st.integers(-6, 6))
    acc = F.one
    base = a if k >= 0 else F.inv(a)
    for _ in range(abs(k)):
        acc = F.mul(acc, base)
    assert F.pow(a, k) == acc


def test_alpha_pow_and_log_are_inverse(f2_8):
    F = f2_8
    for j in (0, 1, 2, 17, F.Qm1 - 1):
        assert F._log[F.alpha_pow(j)] == j % F.Qm1
    assert F._log[0] == -1


def test_backends_agree():
    # p = 3 exercises the Zech-log addition of the table backend
    for p, m in ((2, 11), (3, 7)):
        Ft = make_field(p, 1, m, backend="table")
        Fg = make_field(p, 1, m, backend="generic")
        rngvals = [(3, 5), (100, 200), (Ft.Q - 1, 1), (1 << 10, Ft.Q - 1)]
        for a, b in rngvals:
            assert Ft.add(a, b) == Fg.add(a, b)
            assert Ft.mul(a, b) == Fg.mul(a, b)
            if a:
                assert Ft.inv(a) == Fg.inv(a)
            assert Ft.frob_q(a, 3) == Fg.frob_q(a, 3)
            assert Ft.norm_q(a) == Fg.norm_q(a)
        # generic backend has no discrete-log table
        assert Fg._log is None


@pytest.mark.parametrize("p,e,m", [(2, 1, 1), (3, 1, 1), (2, 1, 5), (3, 1, 4), (2, 2, 3), (3, 2, 2)])
def test_generic_frobenius_and_inverse_match_oracles(p, e, m):
    # the digit-matrix Frobenius and the Itoh-Tsujii inverse against
    # square-and-multiply, for every Frobenius power j
    F = make_field(p, e, m, backend="generic")
    rng = DetRNG(0, f"gf-generic/{p}/{e}/{m}")
    elements_q = (F.subfield_element(F.q, i) for i in range(F.q))
    samples = {0, 1, F.alpha, *elements_q, *(F.random_element(rng) for _ in range(16))}
    for a in sorted(samples):
        for j in range(F.d):
            assert F.frob_p(a, j) == oracles.frob_p(F, a, j)
        if a:
            b = F.inv(a)
            assert F.mul(a, b) == F.one
            assert b == oracles.inv(F, a)


@pytest.mark.parametrize("p,e,m", [(2, 2, 3), (3, 1, 4)])
def test_frobenius_and_inverse_agree_across_backends(p, e, m):
    Ft = make_field(p, e, m, backend="table")
    Fg = make_field(p, e, m, backend="generic")
    for a in range(Ft.Q):
        assert [Ft.frob_p(a, j) for j in range(Ft.d)] == [Fg.frob_p(a, j) for j in range(Fg.d)]
        if a:
            assert Ft.inv(a) == Fg.inv(a)


def test_generic_inverse_rejects_a_non_constant_norm():
    # with every Frobenius map replaced by the identity, a * a^(p + ... +
    # p^(d-1)) becomes alpha^d, which is not in F_p; a fresh instance keeps
    # the cached field intact
    F = gf.FieldTower(3, 1, 4, backend="generic")
    F._frob_rows = {j: F._build_frob_rows(0) for j in range(1, F.d)}
    with pytest.raises(FieldError):
        F.inv(F.alpha)


# ---------------------------------------------------------------------------
# Frobenius, norm, subfields
# ---------------------------------------------------------------------------

@given(st.data())
def test_frobenius_is_a_q_linear_field_automorphism(f4_3, data):
    F = f4_3
    a = data.draw(_elem(F))
    b = data.draw(_elem(F))
    r = data.draw(st.integers(0, 2 * F.m))
    assert F.frob_q(F.add(a, b), r) == F.add(F.frob_q(a, r), F.frob_q(b, r))
    assert F.frob_q(F.mul(a, b), r) == F.mul(F.frob_q(a, r), F.frob_q(b, r))
    assert F.frob_q(a, F.m) == a  # order m over F_q
    assert F.frob_q(a, r) == F.pow(a, F.q**(r % F.m))


@given(st.data())
def test_frob_q_is_frob_p_iterated(f4_3, data):
    F = f4_3
    a = data.draw(_elem(F))
    r = data.draw(st.integers(0, F.m - 1))
    assert F.frob_q(a, r) == F.frob_p(a, (F.e * r) % (F.e * F.m))


@given(st.data())
def test_norm_lands_in_subfield_and_is_multiplicative(f3_5, data):
    F = f3_5
    a = data.draw(st.integers(1, F.Q - 1))
    b = data.draw(st.integers(1, F.Q - 1))
    na = F.norm_q(a)
    assert F.in_subfield_q(na)
    assert F.norm_q(F.mul(a, b)) == F.mul(na, F.norm_q(b))
    # norm is the (Q-1)/(q-1) power
    assert na == F.pow(a, F.Qm1 // (F.q - 1))


def test_subfield_membership_and_enumeration(f2_8):
    F = f2_8  # m = 8: proper subfields F_{2^s} for s | 8
    for s in (1, 2, 4, 8):
        elems = {F.subfield_element(F.p**s, i) for i in range(F.p**s)}
        assert len(elems) == F.p**s
        assert all(F.in_subfield(a, s) for a in elems)
    # non-divisor degree is rejected
    with pytest.raises(FieldError):
        F.in_subfield(1, 3)
    # counting: exactly q^4 elements of F_{2^8} lie in F_{2^4}
    assert sum(F.in_subfield(a, 4) for a in range(F.Q)) == 16


def test_elements_q_enumerates_the_intermediate_field(f4_3):
    F = f4_3
    elems = [F.subfield_element(F.q, i) for i in range(F.q)]
    assert len(elems) == F.q
    assert all(F.in_subfield_q(a) for a in elems)
    assert len(set(elems)) == F.q


# ---------------------------------------------------------------------------
# automorphism helpers
# ---------------------------------------------------------------------------

def test_galois_generators():
    assert galois_generators(12) == [1, 5, 7, 11]
    assert galois_generators(15) == [1, 2, 4, 7, 8, 11, 13, 14]
    assert galois_generators(1) == [0]
    for m in (2, 6, 9):
        assert all(math.gcd(r, m) == 1 for r in galois_generators(m))


def test_galois_aut_compose_power_inverse(f2_8):
    F = f2_8
    s1 = GaloisAut(F, 3)
    s2 = GaloisAut(F, 6)
    a = F.alpha_pow(77)
    assert GaloisAut(F, s1.r + s2.r)(a) == s1(s2(a))
    assert s1.power(2)(a) == s1(s1(a))
    assert GaloisAut(F, -s1.r)(s1(a)) == a
    # the order of sigma_r is m / gcd(r, m): sigma_3 generates, sigma_2 does not
    assert s1.power(F.m // math.gcd(3, F.m))(a) == a
    assert all(GaloisAut(F, 3).power(i)(a) != a for i in range(1, F.m))
    assert GaloisAut(F, 2).power(F.m // 2)(a) == a
    v = (a, F.one, F.zero)
    assert s1.on_vector(v) == tuple(s1(x) for x in v)


def test_full_aut_group_order_and_subfield_fixing(f4_3):
    F = f4_3  # p=2, e=2, m=3: Aut group has order e*m = 6
    a = F.alpha_pow(13)
    images = {tuple(FullAut(F, j)(x) for x in (a, F.alpha)) for j in range(F.e * F.m)}
    assert len(images) == F.e * F.m
    assert FullAut(F, F.e * F.m % (F.e * F.m))(a) == a
    # FullAut fixes F_q iff e divides j
    elements_q = [F.subfield_element(F.q, i) for i in range(F.q)]
    assert all(FullAut(F, 2)(x) == x for x in elements_q)
    assert not all(FullAut(F, 1)(x) == x for x in elements_q)
    g = GaloisAut(F, 2)
    assert FullAut(F, F.e * g.r)(a) == g(a)
    t = FullAut(F, 5)
    assert FullAut(F, -t.j)(t(a)) == a
    assert FullAut(F, t.j + 3)(a) == t(FullAut(F, 3)(a))


# ---------------------------------------------------------------------------
# packing, parsing, formatting, serialization
# ---------------------------------------------------------------------------

@given(st.integers(0, 3**6 - 1))
def test_digits_roundtrip(v):
    assert pack_digits(digits_of(v, 3, 6), 3) == v


@pytest.mark.parametrize("backend", ("table", "generic"))
def test_pack_digits_is_the_alpha_expansion(backend):
    # oracles.subfield_kernel relies on sum_s c_s * alpha^s == pack_digits(c, p)
    for p, e, m in ((2, 1, 1), (3, 1, 1), (2, 1, 4), (2, 2, 2), (3, 1, 3), (3, 2, 2)):
        F = make_field(p, e, m, backend=backend)
        for v in range(F.Q):
            digits = digits_of(v, p, F.d)
            acc = 0
            for s, c in enumerate(digits):
                acc = F.add(acc, F.mul(c, F.alpha_pow(s)))
            assert acc == pack_digits(digits, p) == v


def test_parse_and_format_roundtrip(f2_8):
    F = f2_8
    for a in (0, 1, F.alpha, F.alpha_pow(200), F.Q - 1):
        assert parse_element(F, format_element(F, a)) == a
        if a:
            assert parse_element(F, f"a^{F._log[a]}") == a
    assert parse_element(F, "0") == 0
    assert parse_element(F, "1") == 1
    assert parse_element(F, "a") == F.alpha
    assert parse_element(F, "alpha^5") == F.alpha_pow(5)
    assert parse_element(F, "1:0:1") == F.from_coeffs([1, 0, 1])
    with pytest.raises(FieldError):
        parse_element(F, "nonsense^^")


def test_field_serialization_roundtrip(f3_5):
    F2 = field_from_dict(field_to_dict(f3_5))
    assert F2 == f3_5
    assert F2.modulus == f3_5.modulus


def test_check_rejects_out_of_range(f16):
    with pytest.raises(FieldError):
        f16.check(f16.Q)
    with pytest.raises(FieldError):
        f16.check(-1)


def test_make_field_rejects_bad_parameters():
    with pytest.raises(FieldError):
        make_field(4, 1, 3)  # p not prime
    with pytest.raises(FieldError):
        make_field(2, 0, 3)
    with pytest.raises(FieldError):
        make_field(2, 1, 3, backend="weird")


def test_make_field_caches():
    assert make_field(2, 1, 6) is make_field(2, 1, 6)
