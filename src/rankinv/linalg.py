"""Exact linear algebra over F_{q^m} and over the prime field F_p.

Matrices are tuples of row tuples of packed field elements; all routines are
pure functions taking the FieldTower first.  Canonical form throughout is the
reduced row echelon form with zero rows dropped, which makes row spaces
directly comparable as tuples.

One elimination routine, _insert_row, serves every field.  Over F_{q^m} it
gives rank, rref, det, nullspace and IncrementalRank; over F_p it gives
rank_p and nullspace_p, because F_p is the field make_field(p, 1, 1), whose
packed elements are the integers 0..p-1.  Both kernels are read off an RREF
by one helper, one vector per free column.

The F_q-rank of a vector over F_{q^m} (the dimension of the F_q-span of its
entries) is computed by expanding entries into base-p digit vectors: the
F_q-span of {v_i}, viewed as an F_p-space, is spanned by {gamma^j * v_i}
for j < e with gamma a generator of F_q, so its F_p-dimension is e times the
F_q-dimension.
"""

from __future__ import annotations

import bisect
import functools

from .gf import FieldTower, GaloisAut

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def mat(field: FieldTower, rows) -> Matrix:
    out = tuple(tuple(field.check(a) for a in row) for row in rows)
    if out and len({len(r) for r in out}) != 1:
        raise ValueError("ragged matrix")
    return out


def identity(field: FieldTower, n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def stack(*mats: Matrix) -> Matrix:
    out: list[tuple[int, ...]] = []
    for m in mats:
        out.extend(m)
    return tuple(out)


def matmul(field: FieldTower, A: Matrix, B: Matrix) -> Matrix:
    if A and B and len(A[0]) != len(B):
        raise ValueError("matrix shape mismatch")
    add, mul = field.add, field.mul
    ncols = len(B[0]) if B else 0
    out = []
    for row in A:
        new = []
        for j in range(ncols):
            acc = 0
            for aik, brow in zip(row, B):
                if aik and brow[j]:
                    acc = add(acc, mul(aik, brow[j]))
            new.append(acc)
        out.append(tuple(new))
    return tuple(out)


def vec_mat(field: FieldTower, v: Vector, B: Matrix) -> Vector:
    return matmul(field, (tuple(v),), B)[0]


def scale_vec(field: FieldTower, c: int, v) -> Vector:
    return tuple(field.mul(c, a) for a in v)


def add_vec(field: FieldTower, u, v) -> Vector:
    return tuple(field.add(a, b) for a, b in zip(u, v))


def dot(field: FieldTower, u, v) -> int:
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc = field.add(acc, field.mul(a, b))
    return acc


def _insert_row(field: FieldTower, basis: list, row):
    """Reduce row against basis, a list of (pivot column, row) pairs sorted by
    pivot column, each row 1 at its pivot and 0 before it.  An independent
    row is then normalised and inserted in pivot order, so the invariant
    holds again.  Returns (pivot column, pivot value before normalising), or
    None when the row is dependent."""
    add, mul, neg = field.add, field.mul, field.neg
    cur = list(row)
    ncols = len(cur)
    # ascending pivots: a basis row is 0 before its pivot, so it cannot
    # disturb the pivot columns already cleared
    for pc, bv in basis:
        if cur[pc]:
            f = neg(cur[pc])
            cur[pc] = 0
            for j in range(pc + 1, ncols):
                if bv[j]:
                    cur[j] = add(cur[j], mul(f, bv[j]))
    for pc, pv in enumerate(cur):
        if pv:
            break
    else:
        return None
    if pv != 1:
        pv_inv = field.inv(pv)
        cur = [mul(pv_inv, a) for a in cur]
    # pivot columns are distinct, so the pairs order by pivot column alone
    bisect.insort(basis, (pc, cur))
    return pc, pv


def rref(field: FieldTower, rows) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with zero rows dropped.  Returns (R, pivots)."""
    echelon: list = []
    for row in rows:
        _insert_row(field, echelon, row)
    # back-substitution: feeding the echelon rows from the last pivot up
    # reduces each one against the already reduced rows below it
    reduced: list = []
    for _, row in reversed(echelon):
        _insert_row(field, reduced, row)
    return tuple(tuple(row) for _, row in reduced), tuple(pc for pc, _ in reduced)


def rank(field: FieldTower, rows) -> int:
    """Number of rows that _insert_row accepts: no back-substitution."""
    basis: list = []
    return sum(_insert_row(field, basis, row) is not None for row in rows)


def det(field: FieldTower, A: Matrix) -> int:
    """Determinant, from the elimination that IncrementalRank performs.

    Feeding the rows in order subtracts from each row multiples of earlier
    ones, so the reduced rows, before normalising, are L*A with L unit lower
    triangular.  Sorted by pivot column they form an upper triangular matrix
    whose diagonal holds the raw pivot values.  So det(A) is the product of
    those values times the sign of the sorting permutation, and 0 as soon as
    a row turns out dependent."""
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValueError("determinant needs a square matrix")
    basis: list = []
    d = field.one
    for row in A:
        hit = _insert_row(field, basis, row)
        if hit is None:
            return 0
        pc, pv = hit
        d = field.mul(d, pv)
        # the rows after it in pivot order came earlier: one inversion each
        if (len(basis) - 1 - bisect.bisect_left(basis, (pc,))) % 2:
            d = field.neg(d)
    return d


def nullspace(field: FieldTower, rows, ncols: int | None = None) -> Matrix:
    """Canonical (RREF'd) basis of {x : rows @ x^T = 0} as row vectors."""
    if ncols is None:
        if not rows:
            raise ValueError("cannot infer the column count of an empty matrix")
        ncols = len(rows[0])
    R, pivots = rref(field, rows)
    return rref(field, _free_column_basis(field, R, pivots, ncols))[0]


def _free_column_basis(field: FieldTower, R, pivots, ncols: int) -> list[list[int]]:
    """Kernel basis read off an RREF R with these pivot columns: for each
    free column fc, the vector with 1 at fc, -R[i][fc] at pivots[i] and 0
    elsewhere."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(R[i][fc])
        basis.append(v)
    return basis


def row_space_intersection(field: FieldTower, A: Matrix, B: Matrix, ncols: int | None = None) -> Matrix:
    """Canonical basis of rowspace(A) n rowspace(B), via orthogonal spaces:
    the intersection is the orthogon of the sum of the two orthogons."""
    if ncols is None:
        src = A if A else B
        if not src:
            raise ValueError("cannot infer the column count")
        ncols = len(src[0])
    na = nullspace(field, A, ncols) if A else identity(field, ncols)
    nb = nullspace(field, B, ncols) if B else identity(field, ncols)
    return nullspace(field, stack(na, nb), ncols)


class IncrementalRank:
    """Feed rows one at a time; tracks the rank so far."""

    def __init__(self, field: FieldTower):
        self.field = field
        self._basis: list[tuple[int, list[int]]] = []

    @property
    def rank(self) -> int:
        return len(self._basis)

    def add_row(self, row) -> bool:
        """Returns True when the row increased the rank."""
        return _insert_row(self.field, self._basis, row) is not None


# --------------------------------------------------------------------------
# prime-field linear algebra: integer rows over the field F_p
# --------------------------------------------------------------------------

@functools.cache
def _prime_field(p: int) -> FieldTower:
    """F_p, equal to make_field(p, 1, 1) but built here once per p, so that
    rank and kernel calls are never counted as field builds by tracers that
    wrap make_field (bench/tracer.py)."""
    return FieldTower(p, 1, 1)


def rank_p(p: int, rows: list[list[int]]) -> int:
    """Rank over F_p of a dense integer matrix (entries reduced mod p)."""
    return rank(_prime_field(p), [[c % p for c in row] for row in rows])


def nullspace_p(p: int, rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of the right kernel over F_p (as row vectors), one vector per
    free column of the RREF, not reduced further."""
    Fp = _prime_field(p)
    R, pivots = rref(Fp, [[c % p for c in row] for row in rows])
    return _free_column_basis(Fp, R, pivots, ncols)


def rank_q(field: FieldTower, v) -> int:
    """dim over F_q of the span of the entries of v (entries in F_{q^m})."""
    p, e = field.p, field.e
    rows = []
    for a in v:
        b = field.check(a)
        for j in range(e):
            rows.append(field.coeffs(b))
            if j + 1 < e:
                b = field.mul(b, field.gamma)
    r = rank_p(p, rows)
    if r % e:
        raise AssertionError("F_p-rank not divisible by e")  # pragma: no cover
    return r // e


def moore_matrix(field: FieldTower, v, k: int, theta: GaloisAut) -> Matrix:
    """Rows v, theta(v), ..., theta^(k-1)(v) (theta applied entrywise)."""
    rows = []
    cur = tuple(field.check(a) for a in v)
    for _ in range(k):
        rows.append(cur)
        cur = theta.on_vector(cur)
    return tuple(rows)


def random_full_rank_vector(field: FieldTower, n: int, rng, subfield_size: int | None = None) -> Vector:
    """Random length-n vector with rank_q = n; entries restricted to the
    subfield with subfield_size elements when given."""
    if n > field.m:
        raise ValueError("rank_q cannot reach n > m")
    while True:
        if subfield_size is None:
            v = tuple(field.random_element(rng) for _ in range(n))
        else:
            v = tuple(
                field.subfield_element(subfield_size, rng.randbelow(subfield_size))
                for _ in range(n)
            )
        if rank_q(field, v) == n:
            return v


def random_invertible_matrix_q(field: FieldTower, n: int, rng) -> Matrix:
    """Random invertible n x n matrix with entries in the subfield F_q."""
    q = field.q
    while True:
        A = tuple(
            tuple(field.subfield_element(q, rng.randbelow(q)) for _ in range(n))
            for _ in range(n)
        )
        if det(field, A) != 0:
            return A
