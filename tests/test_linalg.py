"""Exact linear algebra over the extension field and its prime subfield."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from rankinv import linalg as la
from rankinv.gf import GaloisAut, make_field
from rankinv.rng import DetRNG

# (backend, p, e, m): both field backends for p in {2, 3} and e in {1, 2}
BACKEND_FIELDS = [(backend, p, e, m) for backend in ("table", "generic")
                  for (p, e, m) in ((2, 1, 4), (2, 2, 2), (3, 1, 3), (3, 2, 2))]
BACKEND_IDS = [f"{b}-p{p}e{e}m{m}" for (b, p, e, m) in BACKEND_FIELDS]


def _matrix_strategy(field, max_rows=5, max_cols=5):
    elem = st.integers(0, field.Q - 1)
    return st.integers(1, max_cols).flatmap(
        lambda nc: st.lists(
            st.tuples(*([elem] * nc)), min_size=1, max_size=max_rows
        ).map(tuple)
    )


# ---------------------------------------------------------------------------
# rref / rank / nullspace
# ---------------------------------------------------------------------------

@given(st.data())
def test_rref_shape_and_idempotence(f16, data):
    A = data.draw(_matrix_strategy(f16))
    R, pivots = la.rref(f16, A)
    assert len(R) == len(pivots) == la.rank(f16, A)
    assert list(pivots) == sorted(pivots)
    # pivot columns carry the identity pattern
    for i, row in enumerate(R):
        assert row[pivots[i]] == f16.one
        for j, other in enumerate(R):
            if j != i:
                assert other[pivots[i]] == f16.zero
        assert all(c == f16.zero for c in row[: pivots[i]])
    R2, piv2 = la.rref(f16, R)
    assert R2 == R and piv2 == pivots


@given(st.data())
def test_rref_preserves_row_space(f16, data):
    A = data.draw(_matrix_strategy(f16))
    R, _ = la.rref(f16, A)
    stacked = la.stack(A, R)
    assert la.rank(f16, stacked) == la.rank(f16, A)


@given(st.data())
def test_nullspace_annihilates_and_has_right_dimension(f16, data):
    A = data.draw(_matrix_strategy(f16))
    ncols = len(A[0])
    N = la.nullspace(f16, A, ncols)
    assert len(N) == ncols - la.rank(f16, A)
    for x in N:
        assert all(la.dot(f16, row, x) == 0 for row in A)
    # nullspace rows are independent
    assert la.rank(f16, N) == len(N) if N else True


def test_rank_and_det_basics(f16):
    I3 = la.identity(f16, 3)
    assert la.rank(f16, I3) == 3
    assert la.det(f16, I3) == f16.one
    singular = (
        (1, 2, 3),
        (1, 2, 3),
        (0, 1, 1),
    )
    assert la.det(f16, singular) == 0
    assert la.rank(f16, singular) == 2


def test_det_is_multiplicative(f16):
    rng = DetRNG(5, "det")
    for _ in range(10):
        A = la.random_invertible_matrix_q(f16, 3, rng.spawn(f"A{_}"))
        B = la.random_invertible_matrix_q(f16, 3, rng.spawn(f"B{_}"))
        assert la.det(f16, la.matmul(f16, A, B)) == f16.mul(la.det(f16, A), la.det(f16, B))


@given(st.data())
def test_matmul_vec_mat_consistency(f16, data):
    elem = st.integers(0, f16.Q - 1)
    v = data.draw(st.tuples(elem, elem, elem))
    B = data.draw(st.tuples(*[st.tuples(elem, elem) for _ in range(3)]))
    assert la.vec_mat(f16, v, B) == la.matmul(f16, (v,), B)[0]


def test_row_space_sum_and_intersection_dimension_formula(f2_8):
    F = f2_8
    rng = DetRNG(17, "subspace")
    n = 6
    for trial in range(12):
        r = rng.spawn(str(trial))
        ra, rb = r.spawn("A"), r.spawn("B")
        A = tuple(tuple(F.random_element(ra) for _ in range(n)) for _ in range(r.randint(1, 4)))
        B = tuple(tuple(F.random_element(rb) for _ in range(n)) for _ in range(r.randint(1, 4)))
        s = la.rref(F, la.stack(A, B))[0]
        i = la.row_space_intersection(F, A, B, n)
        da, db = la.rank(F, A), la.rank(F, B)
        assert la.rank(F, s) == da + db - la.rank(F, i)
        # intersection sits inside both row spaces
        for v in i:
            assert la.rank(F, la.stack(A, (v,))) == da
            assert la.rank(F, la.stack(B, (v,))) == db


def test_incremental_rank_matches_batch(f16):
    rng = DetRNG(31, "inc")
    rows = tuple(tuple(f16.random_element(ri) for _ in range(4))
                 for ri in (rng.spawn(str(i)) for i in range(8)))
    inc = la.IncrementalRank(f16)
    for i, row in enumerate(rows, start=1):
        grew = inc.add_row(row)
        assert inc.rank == la.rank(f16, rows[:i])
        assert grew == (la.rank(f16, rows[:i]) > la.rank(f16, rows[: i - 1]))


# ---------------------------------------------------------------------------
# differential tests against the Gauss-Jordan oracles
# ---------------------------------------------------------------------------

def _oracle_matrix(field, data, rows, cols):
    # 0 and 1 come often, so dependent rows and singular matrices occur
    elem = st.one_of(st.sampled_from((0, 1)), st.integers(0, field.Q - 1))
    return tuple(data.draw(st.tuples(*([elem] * cols))) for _ in range(rows))


@pytest.mark.parametrize("case", BACKEND_FIELDS, ids=BACKEND_IDS)
@given(data=st.data())
def test_elimination_matches_oracle(case, data):
    backend, p, e, m = case
    F = make_field(p, e, m, backend=backend)
    ncols = data.draw(st.integers(1, 6))
    A = _oracle_matrix(F, data, data.draw(st.integers(1, 6)), ncols)
    assert la.rref(F, A) == oracles.rref(F, A)
    assert la.nullspace(F, A, ncols) == oracles.rref(F, oracles.free_nullspace(F, A, ncols))[0]
    inc = la.IncrementalRank(F)
    for i, row in enumerate(A, start=1):
        before = inc.rank
        grew = inc.add_row(row)
        assert inc.rank == len(oracles.rref(F, A[:i])[0])
        assert grew == (inc.rank > before)
    n = data.draw(st.integers(1, 4))
    S = _oracle_matrix(F, data, n, n)
    assert la.det(F, S) == oracles.det(F, S)


@pytest.mark.parametrize("p", (2, 3))
@given(data=st.data())
def test_prime_field_elimination_matches_oracle(p, data):
    Fp = make_field(p, 1, 1)
    ncols = data.draw(st.integers(1, 6))
    row = st.lists(st.integers(0, 2 * p - 1), min_size=ncols, max_size=ncols)
    rows = data.draw(st.lists(row, min_size=1, max_size=6))
    reduced = tuple(tuple(c % p for c in r) for r in rows)
    assert la.rank_p(p, rows) == len(oracles.rref(Fp, reduced)[0])
    assert la.nullspace_p(p, rows, ncols) == [list(v) for v in oracles.free_nullspace(Fp, reduced, ncols)]


# ---------------------------------------------------------------------------
# prime-field elimination
# ---------------------------------------------------------------------------

@given(st.lists(st.lists(st.integers(0, 2), min_size=4, max_size=4), min_size=1, max_size=6))
def test_rank_p_and_nullspace_p(rows):
    p = 3
    r = la.rank_p(p, [list(row) for row in rows])
    N = la.nullspace_p(p, [list(row) for row in rows], 4)
    assert len(N) == 4 - r
    for x in N:
        for row in rows:
            assert sum(a * b for a, b in zip(row, x)) % p == 0
    # cross-check rank against the field-backed elimination over F_3
    F3 = make_field(3, 1, 1)
    assert r == la.rank(F3, tuple(tuple(row) for row in rows)) if rows else True


# ---------------------------------------------------------------------------
# q-rank and Moore matrices
# ---------------------------------------------------------------------------

def test_rank_q_oracles(f2_8):
    F = f2_8
    # powers of alpha up to m are F_q-independent
    v = tuple(F.alpha_pow(i) for i in range(6))
    assert la.rank_q(F, v) == 6
    assert la.rank_q(F, (0, 0, 0)) == 0
    assert la.rank_q(F, (F.one, F.one)) == 1
    # scaling by a subfield element cannot raise the q-rank
    lam = F.subfield_element(F.q, 1)
    a, b = F.alpha_pow(3), F.alpha_pow(11)
    assert la.rank_q(F, (a, F.mul(lam, a), b)) == 2


@pytest.mark.parametrize("case", BACKEND_FIELDS, ids=BACKEND_IDS)
@given(data=st.data())
def test_rank_q_matches_moore_matrix_oracle(case, data):
    # Write v = u*B with u an F_q-basis of the span of v's entries and B over
    # F_q.  The Moore matrix [theta^j(v_i)], j < m, theta: a -> a^q, is then
    # M_u*B, and M_u has full column rank (Lidl-Niederreiter, Finite Fields,
    # Lemma 3.51), so its F_{q^m}-rank is rank B = rank_q(v).
    backend, p, e, m = case
    F = make_field(p, e, m, backend=backend)
    fq = st.integers(0, F.q - 1).map(lambda i: F.subfield_element(F.q, i))
    span = data.draw(st.lists(st.integers(0, F.Q - 1), min_size=1, max_size=m))
    v = []
    for _ in range(data.draw(st.integers(1, m + 2))):
        kind = data.draw(st.sampled_from(("zero", "repeat", "multiple", "combination")))
        if kind == "zero":
            a = 0
        elif kind == "repeat" and v:
            a = data.draw(st.sampled_from(v))
        elif kind == "multiple" and v:
            a = F.mul(data.draw(fq), data.draw(st.sampled_from(v)))
        else:
            a = 0
            for b in span:
                a = F.add(a, F.mul(data.draw(fq), b))
        v.append(a)
    moore = tuple(tuple(F.frob_q(a, j) for a in v) for j in range(m))
    assert la.rank_q(F, v) == len(oracles.rref(F, moore)[0])


def test_prime_field_elimination_does_not_import_sympy():
    # the prime fields behind rank_p and nullspace_p have frozen default
    # moduli, so table-field work never reaches the modulus search
    script = (
        "import sys\n"
        "from rankinv import linalg as la\n"
        "from rankinv.gf import make_field\n"
        "for p, e, m in ((2, 1, 4), (2, 2, 2), (3, 1, 3), (3, 2, 2)):\n"
        "    F = make_field(p, e, m)\n"
        "    assert F.backend == 'table'\n"
        "    assert la.rank_q(F, (F.alpha, F.one, 0, F.alpha)) == 2\n"
        "    assert la.rank_p(p, [[1, 2, 3], [2, 4, 6]]) == 1\n"
        "    assert len(la.nullspace_p(p, [[1, 2, 3]], 3)) == 2\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr


def test_rank_q_in_intermediate_field(f4_3):
    F = f4_3  # q = 4, m = 3
    assert la.rank_q(F, (F.one, F.alpha, F.frob_q(F.alpha, 1))) <= 3
    # gamma generates F_q over F_p but has q-rank 1 together with 1
    assert la.rank_q(F, (F.one, F.gamma)) == 1


def test_moore_matrix_structure_and_rank_law(f2_8):
    F = f2_8
    theta = GaloisAut(F, 1)
    rng = DetRNG(3, "moore")
    g = la.random_full_rank_vector(F, 5, rng)
    M = la.moore_matrix(F, g, 4, theta)
    assert len(M) == 4 and M[0] == tuple(g)
    for i in range(1, 4):
        assert M[i] == theta.on_vector(M[i - 1])
    # rank law: dim of the first j rows is min(j, rank_q(g))
    for j in range(1, 5):
        assert la.rank(F, M[:j]) == min(j, la.rank_q(F, g))


def test_moore_rank_law_with_deficient_vector(f2_8):
    F = f2_8
    # rank_q = 2: repeat an entry and inject an F_q multiple
    a, b = F.alpha_pow(3), F.alpha_pow(19)
    g = (a, b, F.add(a, b), a)
    r = la.rank_q(F, g)
    assert r == 2
    for exp in (1, 3, 5, 7):
        theta = GaloisAut(F, exp)
        M = la.moore_matrix(F, g, 4, theta)
        for j in range(1, 5):
            assert la.rank(F, M[:j]) == min(j, r)


def test_moore_rank_law_needs_generator(f2_8):
    # theta with gcd(r, m) > 1 can stall early: g fixed by theta^2 gives rank 1 blocks
    F = f2_8
    theta2 = GaloisAut(F, 2)
    a = F.subfield_element(F.p**2, 2)  # lies in F_{2^2}: fixed by frob_q^2
    assert theta2(a) == a


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

def test_random_full_rank_vector(f2_8):
    F = f2_8
    rng = DetRNG(1, "rfv")
    v = la.random_full_rank_vector(F, 8, rng)
    assert la.rank_q(F, v) == 8
    # deterministic for equal rng state
    v2 = la.random_full_rank_vector(F, 8, DetRNG(1, "rfv"))
    assert v == v2
    with pytest.raises(ValueError):
        la.random_full_rank_vector(F, 9, rng)  # n > m is impossible


def test_random_full_rank_vector_in_subfield():
    F = make_field(2, 1, 12)
    v = la.random_full_rank_vector(F, 6, DetRNG(4, "sub"), subfield_size=2**6)
    assert la.rank_q(F, v) == 6
    assert all(F.in_subfield(a, 6) for a in v)


def test_random_invertible_matrix_q(f3_5):
    F = f3_5
    A = la.random_invertible_matrix_q(F, 4, DetRNG(8, "gl"))
    assert la.det(F, A) != 0
    assert all(F.in_subfield_q(x) for row in A for x in row)
