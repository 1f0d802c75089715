"""Slow reference implementations that the fast paths in rankinv are tested
against.

* rref / det: plain Gauss-Jordan and Gaussian elimination with row swaps,
  independent of rankinv.linalg's shared elimination helper.
* free_nullspace: the kernel basis read off the oracle RREF, one vector per
  free column (rankinv.linalg.nullspace returns its RREF; nullspace_p, which
  eliminates over the field F_p = make_field(p, 1, 1), returns it as is).
* s_naive: s_i as the rank of the whole stacked generator of
  C + sigma(C) + ... + sigma^i(C), recomputed at every step.
* t_direct: t_i from pairwise intersections C n sigma(C) n ..., not through
  duals.
* has_rank_one_codeword_all_mu: the classical eigenvector formulation, which
  solves theta(c) = mu*c for every mu of norm one.
* subfield_kernel: the words of C n F_q^n as the F_p-kernel of
  x -> frob_q(xG) - xG over the (n*d) x (k*d) system of message digits, the
  former solver behind codes.subfield_subcode.
* frob_p / inv: a^(p^j) and a^(Q-2) by square-and-multiply through
  field.mul, the generic backend's former Frobenius and Fermat inverse.
"""

from __future__ import annotations

from rankinv import linalg as la
from rankinv.gf import GaloisAut, pack_digits


def _pow(field, a: int, k: int) -> int:
    result = 1
    while k:
        if k & 1:
            result = field.mul(result, a)
        a = field.mul(a, a)
        k >>= 1
    return result


def frob_p(field, a: int, j: int) -> int:
    """a ** (p**j), j taken mod d, by square-and-multiply."""
    j %= field.d
    if a == 0 or j == 0:
        return a
    return _pow(field, a, pow(field.p, j, field.Qm1))


def inv(field, a: int) -> int:
    """a ** (Q-2) = a^-1 for a != 0 (Fermat)."""
    if a == 0:
        raise ZeroDivisionError("field inverse of zero")
    return _pow(field, a, field.Qm1 - 1)


def rref(field, rows):
    """Reduced row echelon form with zero rows dropped.  Returns (R, pivots)."""
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv = inv(work[r][c])
        if pv != 1:
            work[r] = [mul(pv, a) for a in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = neg(work[i][c])
                ri, rr = work[i], work[r]
                for j in range(c, ncols):
                    if rr[j]:
                        ri[j] = add(ri[j], mul(f, rr[j]))
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def det(field, A) -> int:
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValueError("determinant needs a square matrix")
    work = [list(r) for r in A]
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    d = 1
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            return 0
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
            d = neg(d)
        pv = work[c][c]
        d = mul(d, pv)
        pv_inv = inv(pv)
        for i in range(c + 1, n):
            if work[i][c]:
                f = neg(mul(work[i][c], pv_inv))
                for j in range(c, n):
                    if work[c][j]:
                        work[i][j] = add(work[i][j], mul(f, work[c][j]))
    return d


def free_nullspace(field, rows, ncols: int) -> list[tuple[int, ...]]:
    """Kernel basis {x : rows @ x^T = 0}: for each free column fc of the RREF,
    the vector with 1 at fc, minus column fc of R at the pivots, 0 elsewhere."""
    R, pivots = rref(field, rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(R[i][fc])
        basis.append(tuple(v))
    return basis


def _intersection(field, A, B, ncols: int):
    """rowspace(A) n rowspace(B) as the kernel of the stacked kernels (the
    kernel of an empty matrix is the whole space)."""
    kernels = free_nullspace(field, A, ncols) + free_nullspace(field, B, ncols)
    return rref(field, free_nullspace(field, kernels, ncols))[0]


def s_naive(code, sigma_exp: int, i_max: int | None = None) -> list[int]:
    """[s_0, s_1, ...] with the conventions of invariants.s_sequence."""
    field = code.field
    sigma = GaloisAut(field, sigma_exp)
    limit = i_max if i_max is not None else code.n - code.k + 1
    seq = []
    rows: list = []
    block = code.gen
    for i in range(limit + 1):
        rows.extend(block)
        seq.append(len(rref(field, rows)[0]))
        if i_max is None and i > 0 and seq[-1] == seq[-2]:
            return seq
        block = tuple(sigma.on_vector(r) for r in block)
    if i_max is None:
        raise AssertionError("sum sequence failed to stabilize")
    return seq


def t_direct(code, sigma_exp: int, i_max: int | None = None) -> list[int]:
    """[t_0, t_1, ...] with the conventions of invariants.t_sequence."""
    field = code.field
    sigma = GaloisAut(field, sigma_exp)
    limit = i_max if i_max is not None else code.k + 1
    seq = [code.k]
    cur = code.gen
    block = code.gen
    for _ in range(1, limit + 1):
        block = tuple(sigma.on_vector(r) for r in block)
        cur = _intersection(field, cur, block, code.n)
        seq.append(len(cur))
        if i_max is None and seq[-1] == seq[-2]:
            return seq
    if i_max is None:
        raise AssertionError("intersection sequence failed to stabilize")
    return seq


def has_rank_one_codeword_all_mu(code):
    """(bool, witness codeword): sweep every mu of norm one and solve
    theta(c) = mu*c over F_p in the message coordinates."""
    field = code.field
    if code.k == 0:
        return False, None
    p, d = field.p, field.d
    k, n = code.k, code.n
    count = field.Qm1 // (field.q - 1)
    mu_gen = field.alpha_pow(field.q - 1)
    mu = field.one
    for _ in range(count):
        equations: list[list[int]] = [[0] * (k * d) for _ in range(n * d)]
        for i in range(k):
            for s in range(d):
                x = field.alpha_pow(s) if s else field.one
                col = i * d + s
                for j in range(n):
                    c = field.mul(x, code.gen[i][j])
                    delta = field.sub(field.frob_q(c, 1), field.mul(mu, c))
                    if delta:
                        coeffs = field.coeffs(delta)
                        for dd in range(d):
                            if coeffs[dd]:
                                equations[j * d + dd][col] = coeffs[dd]
        for vec in la.nullspace_p(p, equations, k * d):
            x = [0] * k
            for i in range(k):
                acc = 0
                for s in range(d):
                    cc = vec[i * d + s]
                    if cc:
                        term = field.alpha_pow(s) if s else field.one
                        if cc != 1:
                            term = field.mul(term, cc % p)
                        acc = field.add(acc, term)
                x[i] = acc
            c = la.vec_mat(field, tuple(x), code.gen)
            if any(c) and la.rank_q(field, c) == 1:
                return True, tuple(c)
        mu = field.mul(mu, mu_gen)
    return False, None


def subfield_kernel(code):
    """F_p-kernel of x -> frob_q(xG) - xG over message space coordinates;
    basis vectors give codewords with all entries in F_q."""
    field = code.field
    p, d = field.p, field.d
    k, n = code.k, code.n
    if k == 0:
        return []
    equations: list[list[int]] = [[0] * (k * d) for _ in range(n * d)]
    for i in range(k):
        for s in range(d):
            x = field.alpha_pow(s) if s else field.one
            col = i * d + s
            grow = code.gen[i]
            for j in range(n):
                c = field.mul(x, grow[j])
                delta = field.sub(field.frob_q(c, 1), c)
                if delta:
                    coeffs = field.coeffs(delta)
                    for dd in range(d):
                        if coeffs[dd]:
                            equations[j * d + dd][col] = coeffs[dd]
    basis = la.nullspace_p(p, equations, k * d)
    out = []
    for vec in basis:
        # sum_s c_s * alpha^s over s < d is the element with digits c
        x = tuple(pack_digits(vec[i * d:(i + 1) * d], p) for i in range(k))
        out.append(la.vec_mat(field, x, code.gen))
    return out
