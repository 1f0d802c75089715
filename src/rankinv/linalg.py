"""Exact linear algebra over F_{q^m} and over the prime field F_p.

Matrices are tuples of row tuples of packed field elements; all routines are
pure functions taking the FieldTower first.  Canonical form throughout is the
reduced row echelon form with zero rows dropped, which makes row spaces
directly comparable as tuples.

One elimination routine, _insert_row, serves every field.  Over F_{q^m} it
gives rank, rref, det, nullspace and IncrementalRank; over F_p it gives
nullspace_p, because F_p is the field make_field(p, 1, 1), whose packed
elements are the integers 0..p-1.  Both kernels are read off an RREF by one
helper, one vector per free column.  rank_p, which the F_q-rank tests of
MRD recognition call many times on a few short rows, eliminates on plain
integer lists instead, with no field object.

The elimination works on rows in the field's row form (FieldTower.row_form
and packed_rows): packed elements, or log + 1 (0 for 0) on the tower
backend.  rank, rref, det and nullspace convert once per matrix, so table
and generic fields pay no call per row; IncrementalRank, rref_rows and
moore_rows take and return the row form, in which codes.build makes a code
and codes.Differences feeds its blocks.

Its basis rows are echelon rows that are never normalised: each is 0 before
its pivot column and keeps its raw pivot value there, next to what the
field's row kernel needs of it (FieldTower.row_entry: logs on the table
backend, the row form on the tower one, spread lanes on the generic one at
odd p).  The kernel (FieldTower.row_reduce) clears an entry c at a basis
row's pivot column and makes no per-element FieldTower call.  The table,
tower and p = 2 kernels subtract (c/pv) times the basis row, which leaves
the same row as subtracting c times the normalised basis row would.  The
generic kernel at odd p is fraction-free: it sets the row to pv times
itself minus c times the basis row, so it takes no inverse, and the row
comes out scaled by pv (FieldTower.row_scales).  Neither changes the row
space.  rref divides each row by its pivot once, after back-substitution
(FieldTower.row_normalise: on the tower backend a subtraction of logs); det
reads the raw pivots and divides out the scales.

Basis rows are immutable: _insert_row only reduces the row it is given (a
copy of it), inserts that copy as it stands, and never writes to a row or an
entry already in the basis.  So a list copy of a basis continues it without
disturbing the original (IncrementalRank.copy), which is what lets the
invariants share one elimination of a common block prefix among many rank
passes of a code.

The F_q-rank of a vector over F_{q^m} (the dimension of the F_q-span of its
entries) is an F_p-rank: the F_q-span of {v_i}, viewed as an F_p-space, is
spanned by the "spread" {gamma^j * v_i : j < e} with gamma a generator of
F_q, so its F_p-dimension is e times the F_q-dimension.  A packed entry's
base-p digits are its F_p-coordinates.  At p = 2 those digits are the bits
of the int, so the F_2-rank is an XOR basis over plain ints and needs no
field operation; at odd p the digit vectors go through rank_p.  Either way
the rank can stop at a given count, which is all a distance sweep needs.
"""

from __future__ import annotations

import bisect
import functools

from .gf import FieldTower, GaloisAut, digits_of

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


def _insert_row(field: FieldTower, basis: list, row, scales: list | None = None):
    """Reduce row against basis, a list of (pivot column, row, entry) triples
    sorted by pivot column: each row is 0 before its pivot column and holds
    its raw pivot value there, not necessarily 1, and entry is what the
    field's row kernel keeps of it (FieldTower.row_entry).  The kernel clears
    c at the pivot column of a row with pivot value pv: by subtracting (c/pv)
    times that row, which leaves the same row as subtracting c times the
    normalised row would, or fraction-free, by taking pv times the reduced
    row minus c times that row, which scales it by pv
    (FieldTower.row_scales).  Rows are in the field's row form, where 0 is
    0.  When scales is a list, the pv of every basis row used is appended to
    it.  An independent row is inserted as it stands, in pivot order, so the
    invariant holds again.  Returns (pivot
    column, pivot value), or None when the row is dependent."""
    reduce = field.row_reduce
    cur = list(row)
    # ascending pivots: a basis row is 0 before its pivot, so it cannot
    # disturb the pivot columns already cleared
    for pc, brow, entry in basis:
        c = cur[pc]
        if c:
            cur[pc] = 0
            reduce(cur, c, entry)
            if scales is not None:
                scales.append(brow[pc])
    for pc, pv in enumerate(cur):
        if pv:
            break
    else:
        return None
    # pivot columns are distinct, so the triples order by pivot column alone
    bisect.insort(basis, (pc, cur, field.row_entry(cur, pc)))
    return pc, pv


def rref(field: FieldTower, rows) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with zero rows dropped.  Returns (R, pivots)."""
    R, pivots = rref_rows(field, field.row_form(rows))
    return field.packed_rows(R), pivots


def rref_rows(field: FieldTower, rows) -> tuple[Matrix, tuple[int, ...]]:
    """rref of rows in the field's row form, with R in the row form."""
    echelon: list = []
    for row in rows:
        _insert_row(field, echelon, row)
    # back-substitution: feeding the echelon rows from the last pivot up
    # reduces each one against the already reduced rows below it
    reduced: list = []
    for _, row, _ in reversed(echelon):
        _insert_row(field, reduced, row)
    # then each row is divided by its pivot value, once (on logs, a subtraction)
    return (tuple(field.row_normalise(row, pc) for pc, row, _ in reduced),
            tuple(pc for pc, _, _ in reduced))


def rank(field: FieldTower, rows) -> int:
    """Number of rows that _insert_row accepts: no back-substitution."""
    basis: list = []
    return sum(_insert_row(field, basis, row) is not None for row in field.row_form(rows))


def det(field: FieldTower, A: Matrix) -> int:
    """Determinant, from the elimination that IncrementalRank performs.

    Feeding the rows in order takes each row to a multiple of itself minus
    multiples of earlier ones, so the reduced rows, which are never
    normalised, are L*A with L lower triangular.  L's diagonal is 1 where
    the row kernel divides by pivots, and on a field with row_scales (the
    fraction-free kernel) entry i is the product of the pivot values row i
    was scaled by.  Sorted by pivot column the reduced rows form an upper
    triangular matrix whose diagonal holds their pivot values.  So det(A) is
    the product of those values times the sign of the sorting permutation,
    divided by det(L) through one field inverse, and 0 as soon as a row
    turns out dependent."""
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValueError("determinant needs a square matrix")
    basis: list = []
    scales = [] if field.row_scales else None
    pivots, odd = [], 0
    for row in field.row_form(A):
        hit = _insert_row(field, basis, row, scales)
        if hit is None:
            return 0
        pc, pv = hit
        pivots.append(pv)
        # the rows after it in pivot order came earlier: one inversion each
        odd ^= (len(basis) - 1 - bisect.bisect_left(basis, (pc,))) % 2
    mul = field.mul
    d = functools.reduce(mul, field.packed_rows([pivots])[0], field.one)
    if odd:
        d = field.neg(d)
    if scales:
        d = mul(d, field.inv(functools.reduce(mul, scales)))
    return d


def nullspace(field: FieldTower, rows, ncols: int) -> Matrix:
    """Canonical (RREF'd) basis of {x : rows @ x^T = 0} as row vectors."""
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


def row_space_intersection(field: FieldTower, A: Matrix, B: Matrix, ncols: int) -> Matrix:
    """Canonical basis of rowspace(A) n rowspace(B), via orthogonal spaces:
    the intersection is the orthogon of the sum of the two orthogons."""
    na = nullspace(field, A, ncols) if A else identity(field, ncols)
    nb = nullspace(field, B, ncols) if B else identity(field, ncols)
    return nullspace(field, stack(na, nb), ncols)


class IncrementalRank:
    """Feed rows one at a time, in the field's row form (FieldTower.row_form);
    the rank so far is the number of add_row calls that returned True."""

    def __init__(self, field: FieldTower):
        self.field = field
        self._basis: list = []  # _insert_row's (pivot column, row, entry) triples

    def add_row(self, row) -> bool:
        """Returns True when the row increased the rank."""
        return _insert_row(self.field, self._basis, row) is not None

    def rows(self) -> list:
        """The basis rows, in pivot order and in the row form: echelon rows
        spanning the rows fed."""
        return [row for _, row, _ in self._basis]

    def copy(self) -> "IncrementalRank":
        """An IncrementalRank holding the same rows, which add_row on either
        leaves unchanged for the other: the basis is copied as a list, and
        its rows are immutable (see the module docstring)."""
        other = IncrementalRank(self.field)
        other._basis = self._basis.copy()
        return other


# --------------------------------------------------------------------------
# prime-field linear algebra: integer rows over the field F_p
# --------------------------------------------------------------------------

@functools.cache
def _prime_field(p: int) -> FieldTower:
    """F_p, equal to make_field(p, 1, 1) but built here once per p, so that
    rank and kernel calls are never counted as field builds by tracers that
    wrap make_field (bench/tracer.py)."""
    return FieldTower(p, 1, 1)


def rank_p(p: int, rows, stop: int | None = None) -> int:
    """Rank over F_p of a dense integer matrix (entries reduced mod p); the
    rows stop being read once the rank reaches stop.

    The elimination runs on plain integer lists, with no field object: the
    basis holds (lead, row, inverse of the lead entry) in the order the rows
    were found, each row reduced mod p, 0 mod p before its lead column and
    at the leads of the rows before it.  Clearing the leads of a new row in
    that order leaves each cleared lead at 0 mod p, because the later basis
    rows are 0 there, so the row ends 0 at every lead.  It lies in the span
    exactly when it ends 0: a nonzero combination of basis rows is nonzero
    at the lead of its first row.  Otherwise it joins the basis.  Only the
    entries read are reduced during the pass (every step is a ring
    operation, so the row stays congruent mod p to the reduced one), and the
    whole row once, when it joins."""
    basis: list = []
    for cur in rows:
        for lead, brow, inv in basis:
            c = cur[lead] * inv % p
            if c:
                cur = [a - c * b for a, b in zip(cur, brow)]
        for lead, c in enumerate(cur):
            c %= p
            if c:
                basis.append((lead, [a % p for a in cur], pow(c, -1, p)))
                if len(basis) == stop:
                    return stop
                break
    return len(basis)


def nullspace_p(p: int, rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of the right kernel over F_p (as row vectors), one vector per
    free column of the RREF, not reduced further."""
    Fp = _prime_field(p)
    R, pivots = rref(Fp, [[c % p for c in row] for row in rows])
    return _free_column_basis(Fp, R, pivots, ncols)


def spread(field: FieldTower, v) -> list[int]:
    """The n*e entries gamma^l * v_i (l < e outer, i < n inner), whose F_p-span
    is the F_q-span of the entries of v."""
    out = list(v)
    cur = out
    for _ in range(field.e - 1):
        cur = [field.mul(field.gamma, a) for a in cur]
        out += cur
    return out


def _fp_rank(field: FieldTower, entries, stop: int | None = None) -> int:
    """F_p-rank of the packed entries of field, or min(stop, that rank).

    At p = 2 the digits of an entry are its bits, so the entries span an
    F_2-space of ints under XOR.  x ^ b < x exactly when x has the leading
    bit of b, so one pass over the basis clears the leading bit of each b
    from x in turn.  A basis element was reduced against the ones before it,
    so it lacks their leading bits and XOR with it cannot set them again:
    after the pass x lacks every leading bit of the basis.  A nonzero
    vector of the span has the leading bit of the first element in its
    combination, so x ends at 0 exactly when it lies in the span, and
    otherwise it joins the basis with a new leading bit.  At odd p the
    digit vectors go through rank_p.  Either way, reduction stops once the
    rank reaches stop."""
    if field.p == 2:
        basis: list[int] = []
        for x in entries:
            for b in basis:
                y = x ^ b
                if y < x:
                    x = y
            if x:
                basis.append(x)
                if len(basis) == stop:
                    break
        return len(basis)
    p, d = field.p, field.d
    return rank_p(p, (digits_of(a, p, d) for a in entries), stop)


def rank_q(field: FieldTower, v) -> int:
    """dim over F_q of the span of the entries of v (entries in F_{q^m})."""
    r = _fp_rank(field, spread(field, [field.check(a) for a in v]))
    if r % field.e:
        raise AssertionError("F_p-rank not divisible by e")  # pragma: no cover
    return r // field.e


def moore_matrix(field: FieldTower, v, k: int, theta: GaloisAut) -> Matrix:
    """Rows v, theta(v), ..., theta^(k-1)(v) (theta applied entrywise)."""
    v = field.row_form([[field.check(a) for a in v]])[0]
    return field.packed_rows(moore_rows(field, v, k, theta))


def moore_rows(field: FieldTower, row, k: int, theta: GaloisAut) -> Matrix:
    """moore_matrix of a row in the field's row form, in the row form: each
    row theta of the one before (FieldTower.frob_q_row)."""
    rows: list = []
    for _ in range(k):
        row = field.frob_q_row(row, theta.r) if rows else tuple(row)
        rows.append(row)
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
