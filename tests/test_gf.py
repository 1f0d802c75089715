"""Field-tower arithmetic: laws, Frobenius/norm, moduli, parsing, backends."""

import math
import os
import subprocess
import sys
from pathlib import Path

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
from conftest import WORKED_EXAMPLE_MODULUS

SRC = Path(__file__).resolve().parents[1] / "src"

# non-primitive irreducible and reducible moduli of block-path fields (more
# powers than the seed of the table build): x^15 + x^6 + x^5 + x^3 + x^2 + x
# + 1 and x^15 + 1 over F_2, x^9 + 2x^3 + x^2 + x + 2 and x^9 + 1 over F_3
NON_PRIMITIVE_MODULI = [
    (2, (1, 1, 1, 1, 0, 1, 1) + (0,) * 8 + (1,), True),
    (2, (1,) + (0,) * 14 + (1,), False),
    (3, (2, 1, 1, 2, 0, 0, 0, 0, 0, 1), True),
    (3, (1,) + (0,) * 8 + (1,), False),
]


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
            assert gf._is_primitive(f, p) == builds == oracles.poly_is_primitive(f, p), f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_degree_one_default_is_least_primitive_root(p):
    # frozen up to p = 7; at p = 11 and 13 default_modulus runs the search,
    # which gives x + 9 and x + 11 though x + 3 and x + 2 are primitive too
    assert ((p, 1) in gf._KNOWN_MODULI) == (p <= 7)
    g = sympy.primitive_root(p)
    assert default_modulus(p, 1) == ((-g) % p, 1)
    assert gf._search_default_modulus(p, 1) == (-g) % p


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


@pytest.mark.parametrize("p,d", [(2, 11), (3, 7), (2, 16), (3, 12), (5, 7), (7, 6),
                                 (2, 1), (3, 1), (5, 1), (7, 1), (65537, 1)])
def test_tables_match_oracle_builder(p, d):
    # the split-lookup build against the former (B x d)(d x d) block product;
    # F_{5^7}, F_{7^6}, F_{2^16}, F_{3^12} and F_65537 take the block path,
    # the last with a lane wider than a chunk table
    mod = default_modulus(p, d)
    exp2, log, zech = gf._build_tables(p, d, mod)
    want_exp2, want_log, want_zech = oracles.build_tables(p, d, mod)
    assert exp2 == want_exp2 and log == want_log
    assert exp2.itemsize == log.itemsize == 4
    if p == 2:
        assert zech is None  # addition is XOR; no Zech table is read
    else:
        assert zech == want_zech


@pytest.mark.parametrize("p,mod,irreducible", NON_PRIMITIVE_MODULI)
def test_both_builders_reject_non_primitive_block_path_moduli(p, mod, irreducible):
    d = len(mod) - 1
    assert p**d - 1 > gf._BLOCK + d
    assert _sympy_irreducible(mod, p) == irreducible
    assert not oracles.poly_is_primitive(mod, p)
    for build in (gf._build_tables, oracles.build_tables):
        with pytest.raises(FieldError):
            build(p, d, mod)


def test_table_backend_refused_above_the_table_limit():
    # 2^24 > TABLE_LIMIT: refused before any modulus search or allocation
    assert 2**24 > gf.TABLE_LIMIT
    with pytest.raises(FieldError, match="table backend"):
        gf.FieldTower(2, 1, 24, backend="table")


def _run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_table_build_peak_memory_stays_within_twice_the_tables():
    # F_{3^14} keeps 76 MB of tables; the build's temporaries must not double that
    out = _run_python(
        "import resource\n"
        "import numpy\n"
        "from rankinv import gf\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "F = gf.make_field(3, 1, 14)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "kept = sum(len(t) * t.itemsize for t in (F._exp, F._log, F._zech))\n"
        "print((after - before) * 1024, kept)\n")
    grown, kept = map(int, out.split())
    assert kept == 4 * (2 * (3**14 - 1) + 3**14 + (3**14 - 1))
    assert grown <= 2 * kept


def test_generic_field_build_does_not_import_sympy():
    out = _run_python(
        "import sys\n"
        "from rankinv import gf\n"
        "F = gf.make_field(3, 1, 16)\n"
        "print(F.backend, 'sympy' in sys.modules)\n")
    assert out.split() == ["generic", "False"]


def test_prime_factors_match_sympy_factorint():
    cases = [p**d - 1 for (p, d) in gf._KNOWN_MODULI]
    rng = DetRNG(0, "gf-factor")
    cases += [rng.randbelow(1 << 64) + 1 for _ in range(200)]
    # above the exact Miller-Rabin bound, where primality is Baillie-PSW
    cases += [3**60 - 1, 2**89 - 1, 2**107 - 1, 5**40 - 1, (2**61 - 1) * (2**31 - 1) ** 2]
    for n in cases:
        assert gf._prime_factors(n) == sorted(sympy.factorint(n)), n


def test_primality_matches_sympy_isprime():
    from sympy.ntheory.primetest import is_strong_lucas_prp

    # strong pseudoprimes to the first 1, 4, 9 and 12 prime bases, and
    # numbers on both sides of the exact Miller-Rabin bound
    hard = [2047, 3215031751, 3825123056546413051, 318665857834031151167461,
            gf._MR_EXACT_BELOW - 2, gf._MR_EXACT_BELOW + 2, 2**89 - 1, 2**89 + 1,
            (2**61 - 1) * (2**89 - 1), 2**127 - 1, (2**64 + 13) ** 2]
    rng = DetRNG(0, "gf-prime")
    rand = [rng.randbelow(1 << 96) | 1 for _ in range(200)]
    for n in [*range(-2, 3000), *hard, *rand]:
        assert gf._is_prime(n) == sympy.isprime(n), n
    # the Lucas half of Baillie-PSW on its own, where its pseudoprimes are small
    for n in range(43, 30000, 2):
        if all(n % f for f in gf._MR_BASES):
            assert gf._is_strong_lucas_prp(n) == is_strong_lucas_prp(n), n


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


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("d", range(1, 17))
def test_generic_lane_arithmetic_matches_digit_list_oracles(p, d):
    # add, neg, mul, pow and inv of the generic backend, which all run on
    # digit lanes, against schoolbook arithmetic on digit lists; Q - 1 has
    # every digit p - 1, which loads the lanes the most
    F = make_field(p, 1, d, backend="generic")
    mod = F.modulus
    rng = DetRNG(0, f"gf-lanes/{p}/{d}")
    samples = [0, 1, F.alpha, F.Q - 1, *(F.random_element(rng) for _ in range(8))]
    digits = {a: digits_of(a, p, d) for a in samples}
    for a in samples:
        assert F.neg(a) == pack_digits([-c % p for c in digits[a]], p)
        for b in samples:
            assert F.add(a, b) == pack_digits([(x + y) % p for x, y in zip(digits[a], digits[b])], p)
            assert F.mul(a, b) == pack_digits(oracles.poly_mulmod(digits[a], digits[b], mod, p), p)
        k = rng.randbelow(F.Q)
        assert F.pow(a, k) == pack_digits(oracles.poly_powmod(digits[a], k, mod, p), p)
        if a:
            assert F.inv(a) == pack_digits(oracles.poly_powmod(digits[a], F.Q - 2, mod, p), p)


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


def test_make_field_caches_by_the_resolved_backend():
    assert make_field(2, 1, 11) is make_field(2, 1, 11, backend="table")
    generic = make_field(2, 1, 11, backend="generic")
    assert generic is not make_field(2, 1, 11) and generic.backend == "generic"
    assert make_field(3, 1, 16) is make_field(3, 1, 16, backend="generic")
