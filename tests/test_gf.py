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
from rankinv import gf, numtheory
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
from conftest import FP_FIELDS, FP_IDS, TOWER_FIELDS, TOWER_IDS, WORKED_EXAMPLE_MODULUS

SRC = Path(__file__).resolve().parents[1] / "src"

# non-primitive irreducible and reducible moduli of F_{2^15} and F_{3^9},
# the largest fields at p = 2 and p = 3 that take tables by default:
# x^15 + x^6 + x^5 + x^3 + x^2 + x + 1 and x^15 + 1 over F_2,
# x^9 + 2x^3 + x^2 + x + 2 and x^9 + 1 over F_3
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
    # the order test is the table backend's proof of primitivity: a table
    # field builds exactly when it passes, and both agree with the
    # schoolbook order test of the oracle
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
                                 (2, 1), (3, 1), (5, 1), (7, 1), (65537, 1),
                                 (2, 15), (3, 9), (5, 6), (7, 5), (3, 10)])
def test_tables_match_oracle_builder(p, d):
    # the power walk against the former (B x d)(d x d) block product, on
    # fields up to and past _DEFAULT_TABLE_LIMIT: F_{2^15}, F_{3^9}, F_{5^6}
    # and F_{7^5} take tables by default, F_{3^10}, F_{5^7}, F_{7^6},
    # F_{2^16}, F_{3^12} and F_65537 only when asked for them
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
    assert _sympy_irreducible(mod, p) == irreducible
    assert not oracles.poly_is_primitive(mod, p)
    with pytest.raises(FieldError):
        gf.FieldTower(p, 1, d, modulus=mod, backend="table")
    with pytest.raises(FieldError):
        oracles.build_tables(p, d, mod)


@pytest.mark.parametrize("case", FP_FIELDS + [(b, p, 1, 1) for b in ("table", "generic")
                                              for p in (2, 3, 5)],
                         ids=FP_IDS + [f"{b}-p{p}e1m1" for b in ("table", "generic")
                                       for p in (2, 3, 5)])
def test_every_construction_runs_the_order_test_once(monkeypatch, case):
    # one primitivity proof for both backends: every tower runs the order
    # test on itself, a table field before it builds its tables, and a
    # modulus it rejects is rejected by that one run.  The call must run on
    # the returned tower itself: a second tower on the same modulus compares
    # equal to it by key, so only identity tells them apart.
    backend, p, e, m = case
    calls = []
    real = gf.FieldTower._x_is_primitive

    def counting(self):
        calls.append((self, self.p, self.d, self.modulus))
        return real(self)

    monkeypatch.setattr(gf.FieldTower, "_x_is_primitive", counting)
    F = gf.FieldTower(p, e, m, backend=backend)
    assert [c[1:] for c in calls] == [(p, e * m, F.modulus)]
    assert calls[0][0] is F
    calls.clear()
    reducible = (1,) + (0,) * (e * m - 1) + (1,) if e * m > 1 else (0, 1)  # x^d + 1, or x
    with pytest.raises(FieldError, match="not primitive"):
        gf.FieldTower(p, e, m, modulus=reducible, backend=backend)
    assert [c[1:] for c in calls] == [(p, e * m, reducible)]
    assert calls[0][0].backend == backend


def test_table_backend_refused_above_the_table_limit():
    # 2^24 > 3^13 > TABLE_LIMIT: refused before any modulus search (F_{3^13}
    # has no stored modulus) or allocation
    assert 2**24 > 3**13 > gf.TABLE_LIMIT
    for p, d in ((2, 24), (3, 13)):
        with pytest.raises(FieldError, match="table backend"):
            gf.FieldTower(p, 1, d, backend="table")


def _run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_census_and_requested_large_tables_leave_numpy_unloaded():
    # a default census over F_{3^14} runs on the tower backend (d = 14 is
    # even and 3^7 <= 2^15) and builds none of its tables, and the largest
    # tables the benchmark asks for come from the power walk alone
    out = _run_python(
        "import sys\n"
        "from rankinv import classify, gf\n"
        "report, field = classify.census(3, 7, 3, 1)\n"
        "print(field.Q, field.backend, '_tower' in vars(field))\n"
        "for p, d in ((3, 12), (2, 16)):\n"
        "    F = gf.make_field(p, 1, d, backend='table')\n"
        "    print(F.Q, F.backend, len(F._log))\n"
        "print('numpy' in sys.modules)\n")
    assert out.split() == [str(3**14), "tower", "False", str(3**12), "table", str(3**12),
                           str(2**16), "table", str(2**16), "False"]


def test_census_on_a_generic_field_leaves_numpy_unloaded():
    # rank_q on a generic field builds the table field F_p, and census builds
    # F_{2^12}: both come from the power walk alone
    out = _run_python(
        "import sys\n"
        "from rankinv import classify, gf, linalg as la\n"
        "from rankinv.rng import DetRNG\n"
        "F = gf.FieldTower(3, 1, 14, backend='generic')\n"
        "v = la.random_full_rank_vector(F, 4, DetRNG(1, 'numpy-free'))\n"
        "assert la.rank_q(F, v) == 4\n"
        "report, field = classify.census(2, 6, 2, 1, trials=10)\n"
        "print(field.Q, 'numpy' in sys.modules)\n")
    assert out.split() == [str(2**12), "False"]


def test_generic_field_build_does_not_import_sympy():
    # F_{3^16} takes the tower backend by default; its subfield tables are
    # built by the first rank, on the generic kernels and the power walk
    out = _run_python(
        "import sys\n"
        "from rankinv import gf, linalg as la\n"
        "F = gf.make_field(3, 1, 16)\n"
        "G = gf.make_field(3, 1, 13)\n"
        "assert la.rank(F, [[1, F.alpha], [F.alpha, 0]]) == 2\n"
        "print(F.backend, G.backend, 'sympy' in sys.modules, 'numpy' in sys.modules)\n")
    assert out.split() == ["tower", "generic", "False", "False"]


def test_prime_factors_match_sympy_factorint():
    cases = [p**d - 1 for (p, d) in gf._KNOWN_MODULI]
    rng = DetRNG(0, "gf-factor")
    cases += [rng.randbelow(1 << 64) + 1 for _ in range(200)]
    # above the exact Miller-Rabin bound, where primality is Baillie-PSW
    cases += [3**60 - 1, 2**89 - 1, 2**107 - 1, 5**40 - 1, (2**61 - 1) * (2**31 - 1) ** 2]
    for n in cases:
        assert numtheory._prime_factors(n) == tuple(sorted(sympy.factorint(n))), n


def test_modulus_search_factors_q_minus_one_once():
    # 37 candidates of degree 4 over F_7 pass x**(Q-1) = 1 and reach the
    # factoring step; Q - 1 = 2400 is factored for the first alone
    numtheory._prime_factors.cache_clear()
    assert gf._search_default_modulus(7, 4) == 75
    info = numtheory._prime_factors.cache_info()
    assert (info.misses, info.hits) == (1, 36)


def test_primality_matches_sympy_isprime():
    from sympy.ntheory.primetest import is_strong_lucas_prp

    # strong pseudoprimes to the first 1, 4, 9 and 12 prime bases, and
    # numbers on both sides of the exact Miller-Rabin bound
    hard = [2047, 3215031751, 3825123056546413051, 318665857834031151167461,
            numtheory._MR_EXACT_BELOW - 2, numtheory._MR_EXACT_BELOW + 2, 2**89 - 1, 2**89 + 1,
            (2**61 - 1) * (2**89 - 1), 2**127 - 1, (2**64 + 13) ** 2]
    rng = DetRNG(0, "gf-prime")
    rand = [rng.randbelow(1 << 96) | 1 for _ in range(200)]
    for n in [*range(-2, 3000), *hard, *rand]:
        assert numtheory._is_prime(n) == sympy.isprime(n), n
    # the Lucas half of Baillie-PSW on its own, where its pseudoprimes are small
    for n in range(43, 30000, 2):
        if all(n % f for f in numtheory._MR_BASES):
            assert numtheory._is_strong_lucas_prp(n) == is_strong_lucas_prp(n), n


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


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("d", (1, 2, 16))
def test_lane_read_back_at_the_lane_bound(p, d):
    # every lane at L = (3d-1)(p-1)^2, the largest value the proof in
    # _init_lanes admits, then lanes counting down from L and random lanes
    # up to L, read back a group of lanes per lookup, as d and as d - 1
    # digits (the fold's high part), against one lane at a time mod p
    F = make_field(p, 1, d, backend="generic")
    w, L = F._lane_bits, (3 * d - 1) * (p - 1) ** 2
    assert L < 1 << w
    rng = DetRNG(0, f"gf-read-back/{p}/{d}")
    for lanes in ([L] * d, list(range(L, L - d, -1)), [rng.randbelow(L + 1) for _ in range(d)]):
        acc = sum(v << (w * i) for i, v in enumerate(lanes))
        assert F._from_lanes(acc, d) == pack_digits([v % p for v in lanes], p)
        assert F._from_lanes(acc >> w, d - 1) == pack_digits([v % p for v in lanes[1:]], p)


@pytest.mark.parametrize("p,d", [(131, 2), (257, 1), (257, 2)])
def test_generic_lanes_past_the_chunk_tables(p, d):
    # p > _CHUNK_ENTRIES spreads one digit at a time by multiplication, and a
    # lane wider than _READ_BITS is read back alone; arithmetic is unchanged
    F = make_field(p, 1, d, backend="generic")
    assert p > gf._CHUNK_ENTRIES and F._lane_bits > gf._READ_BITS
    mod = F.modulus
    rng = DetRNG(0, f"gf-wide-lanes/{p}/{d}")
    samples = [1, F.alpha, F.Q - 1, *(F.random_element(rng) or 1 for _ in range(6))]
    for a in samples:
        da = digits_of(a, p, d)
        for b in samples:
            db = digits_of(b, p, d)
            assert F.add(a, b) == pack_digits([(x + y) % p for x, y in zip(da, db)], p)
            assert F.mul(a, b) == pack_digits(oracles.poly_mulmod(da, db, mod, p), p)
        assert F.mul(a, F.inv(a)) == 1
        assert F.frob_p(a, 1) == F.pow(a, p)


@pytest.mark.parametrize("p,d", [(3, 13), (5, 3), (131, 2), (257, 1)])
def test_negated_spread_is_the_spread_of_the_negation(p, d):
    # neg and the tail of the lane row kernel's row_entry spread -a by one
    # lookup per chunk of digits (_neg_units), with no read-back; F_{3^13},
    # of odd degree, keeps that kernel, and past the chunk tables the digit
    # is negated mod p (_Multiples)
    F = make_field(p, 1, d, backend="generic")
    rng = DetRNG(0, f"gf-neg-spread/{p}/{d}")
    samples = [1, F.alpha, F.Q - 1, *(F.random_element(rng) for _ in range(20))]
    for a in samples:
        na = pack_digits([-c % p for c in digits_of(a, p, d)], p)
        assert F._apply(F._neg_units, a) == F._apply(F._units, na)
        assert F.neg(a) == na
    row = [0, *samples[:6]]
    pv, tail = F.row_entry(row, 1)
    assert pv == F._apply(F._units, row[1])
    assert tail == [(j, F._apply(F._units, F.neg(row[j]))) for j in range(2, len(row)) if row[j]]


TOWER_LOG_FIELDS = [(3, 1, 16), (3, 1, 12), (2, 1, 16), (3, 2, 2), (2, 1, 2)]


@pytest.mark.parametrize("p,e,m", TOWER_LOG_FIELDS,
                         ids=[f"p{p}e{e}m{m}" for p, e, m in TOWER_LOG_FIELDS])
def test_tower_logs_match_the_generic_arithmetic(p, e, m):
    # log, exp and the Zech step of the tower row kernel against the packed
    # mul and add the backend shares with the generic one: alpha^k for every
    # r = k < R, and k = R*s + r at the ends of both ranges, where the coset
    # split turns over; 0, +-1, alpha, subfield elements and random products
    F = make_field(p, e, m, backend="tower")
    log, exp = F._tower.log, F._tower.exp
    qm1, Qh = F.Qm1, p ** (F.d // 2)
    R = Qh + 1
    minus_one = log(F.neg(1))
    assert (log(0), exp(0), log(1), log(F.alpha)) == (0, 0, 1, 2)
    assert minus_one == (qm1 // 2 if p > 2 else 0) + 1
    ends = [R * s + r for s in (1, 2, Qh - 2) for r in (0, 1, 2, R - 2, R - 1)]
    x, last = 1, 0
    for k in sorted({*range(R), *(k for k in ends if k < qm1), qm1 - 1}):
        x, last = F.mul(x, F.alpha) if k == last + 1 else F.alpha_pow(k), k
        assert log(x) == k + 1 and exp(k + 1) == x, k
        # the kernel subtracts (c / pv) * row: c = 1 over pv = -1 adds x to 1
        cur = [1]
        F._reduce_tower(cur, 1, (minus_one, [(0, k + 1)]))
        assert exp(cur[0]) == F.add(1, x), k
    rng = DetRNG(0, f"gf-tower-logs/{p}/{e}/{m}")
    for idx in (0, 1, 2, Qh - 1, *(rng.randbelow(Qh) for _ in range(20))):
        u = F.subfield_element(Qh, idx)
        assert exp(log(u)) == u and (u == 0 or (log(u) - 1) % R == 0)
    for i in range(100):
        a, b = F.random_nonzero(rng), F.random_nonzero(rng)
        assert exp(log(a)) == a
        assert log(F.mul(a, b)) == (log(a) + log(b) - 2) % qm1 + 1
        # one kernel step a - (c / pv) * b, with a = 0 and a sum of 0 among them
        c, pv = F.random_nonzero(rng), F.random_nonzero(rng)
        term = F.mul(F.mul(c, F.inv(pv)), b)
        a = (a, 0, term)[i % 3]
        cur = [log(a)]
        F._reduce_tower(cur, log(c), (log(pv), [(0, log(b))]))
        assert exp(cur[0]) == F.add(a, F.neg(term)), (a, b, c, pv)


def test_modulus_search_and_census_build_no_tower_tables(monkeypatch):
    # the tower's tables wait for the first row use: the modulus search and a
    # default census, whose field F_{3^14} takes the tower backend, build none
    built = []
    real = gf._tower_logs
    monkeypatch.setattr(gf, "_tower_logs", lambda field: built.append(field) or real(field))
    monkeypatch.setattr(gf, "_FIELD_CACHE", {})
    assert gf._search_default_modulus(3, 10) == gf._KNOWN_MODULI[(3, 10)]
    assert gf._search_default_modulus(2, 16) == gf._KNOWN_MODULI[(2, 16)]
    from rankinv import classify, linalg as la
    report, field = classify.census(3, 7, 3, 1)
    assert field.backend == "tower" and built == []
    assert la.rank(field, [[1, field.alpha]]) == 1 and built == [field]


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


@pytest.mark.parametrize("case", FP_FIELDS + [("generic", 3, 1, 16)] + TOWER_FIELDS + [("tower", 3, 1, 16)],
                         ids=FP_IDS + ["generic-p3e1m16"] + TOWER_IDS + ["tower-p3e1m16"])
def test_frob_q_diffs_match_the_per_entry_path(case):
    # the one-kernel difference row against GaloisAut.on_vector and sub per
    # entry; F_{3^16} takes the fused lane read-back at d = 16, and Q - 1,
    # with every digit p - 1, loads its lanes the most.  The kernel works in
    # the row form, which is log + 1 on the tower backend
    backend, p, e, m = case
    F = make_field(p, e, m, backend=backend)
    assert F.backend == backend
    rng = DetRNG(0, f"gf-frob-diffs/{backend}/{p}/{e}/{m}")
    row = (0, 1, F.alpha, F.Q - 1, F.gamma, F.neg(F.alpha),
           *(F.random_element(rng) for _ in range(12)))
    for j in range(-1, m + 1):
        expected = tuple(map(F.sub, GaloisAut(F, j).on_vector(row), row))
        assert F.packed_rows([F.frob_q_diffs(F.row_form([row])[0], j)])[0] == expected
    assert F.frob_q_diffs((), 1) == ()


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
    # tables by default up to 2^15 elements; above, the tower backend when d
    # is even and p^(d/2) <= 2^15, the generic backend otherwise
    assert make_field(2, 1, 15) is make_field(2, 1, 15, backend="table")
    for p, e, m in ((3, 1, 16), (2, 1, 16), (3, 1, 10), (3, 2, 8)):
        assert make_field(p, e, m) is make_field(p, e, m, backend="tower")
        assert make_field(p, e, m) is not make_field(p, e, m, backend="generic")
    for p, e, m in ((3, 1, 13), (2, 1, 17)):
        assert make_field(p, e, m) is make_field(p, e, m, backend="generic")
