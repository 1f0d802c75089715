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
* min_distance_bruteforce: every normalised message through vec_mat and
  rank_q, the former sweep behind codes.min_distance_bruteforce.
* poly_mulmod / poly_powmod / poly_is_primitive: schoolbook products mod f
  on little-endian digit lists, square-and-multiply on them, and the order
  test of x on them, the generic backend's former multiplication and
  primitivity proof.
* build_tables: the exp/log/zech tables from an int64 (B x d)(d x d) block
  product with a bincount primitivity check, the table backend's former
  builder.
* galois_stable_part_via_duals: the intersection of all Galois images of C
  as the dual of the sum of the images of dual(C), the former solver behind
  codes.subfield_subcode.
* sum_dims / intersection_dims: dimensions of sums and intersections of
  arbitrary Galois images from n-wide images, not from the systematic
  differences that rankinv.invariants ranks.
* family_rows: the generator rows of every code family from one builder per
  family, the former row construction behind codes.build.
* rank_one_iterates: the intersections C n theta(C) n ... n theta^i(C) from
  n-wide images, one row_space_intersection per step until they stabilize,
  the former iterate loop behind classify.rank_one_decomposition.
* apply_full_aut / orbit_of_code / gl_n_q_generators: the image of a code
  under a full automorphism, and the closure of one code under the full
  equivalence group, for exhaustive small-parameter partitions.
* bruteforce_equivalent / _digits_to_matrix: the exact equivalence search
  with one zero-skipping scatter of each product's digits into the equations
  and a separate decoder of kernel digits into A, the former search behind
  classify.bruteforce_equivalent.
"""

from __future__ import annotations

import itertools
from array import array

import numpy as np
import sympy

from rankinv import codes as cd
from rankinv import linalg as la
from rankinv.classify import Verdict
from rankinv.codes import BudgetExceeded, BuildError, LinearCode, dual
from rankinv.gf import FieldError, FieldTower, FullAut, GaloisAut, digits_of, pack_digits


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


def min_distance_bruteforce(code, cap: int = 1 << 24) -> int:
    """Exact minimum rank distance by projective enumeration of codewords.
    Raises BudgetExceeded when (Q^k - 1)/(Q - 1) > cap."""
    field = code.field
    k, Q = code.k, field.Q
    if k == 0:
        raise ValueError("the zero code has no minimum distance")
    n_words = (Q**k - 1) // (Q - 1)
    if n_words > cap:
        raise BudgetExceeded(
            f"projective codeword count {n_words} exceeds cap {cap}"
        )
    best = code.n + 1
    # normalized messages: first nonzero coordinate equals 1
    for lead in range(k):
        prefix = (0,) * lead + (1,)
        for suffix in itertools.product(range(Q), repeat=k - lead - 1):
            r = la.rank_q(field, la.vec_mat(field, prefix + suffix, code.gen))
            if r < best:
                best = r
                if best == 1:
                    return 1
    return best


def _poly_mod(a: list[int], mod, p: int) -> list[int]:
    """a mod f for monic f = mod, both little-endian; a is consumed."""
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        a[i] = 0
        if c:
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    del a[dm:]
    return a + [0] * (dm - len(a))


def poly_mulmod(a, b, mod, p: int) -> list[int]:
    """a * b mod f on little-endian digit lists, as a list of d digits."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_mod(out, mod, p)


def poly_powmod(base, exp: int, mod, p: int) -> list[int]:
    """base ** exp mod f by square-and-multiply on digit lists."""
    result = [1] + [0] * (len(mod) - 2)
    cur = _poly_mod(list(base), mod, p)
    while exp:
        if exp & 1:
            result = poly_mulmod(result, cur, mod, p)
        cur = poly_mulmod(cur, cur, mod, p)
        exp >>= 1
    return result


def poly_is_primitive(mod, p: int) -> bool:
    """Whether x has order p**d - 1 modulo the monic f = mod of degree d."""
    qm1 = p ** (len(mod) - 1) - 1
    one = poly_powmod([1], 0, mod, p)
    return poly_powmod([0, 1], qm1, mod, p) == one and all(
        poly_powmod([0, 1], qm1 // ell, mod, p) != one for ell in sympy.primefactors(qm1))


def build_tables(p: int, d: int, modulus: tuple[int, ...]):
    """exp/log/zech arrays for F_p[x]/(modulus); proves primitivity.

    Returns (exp2, log, zech) as array('i'): exp2 has length 2*(Q-1) (the
    exponent table repeated so products of logs need no reduction), log has
    length Q with log[0] = -1, zech[l] = log(alpha**l + 1) with -1 when
    alpha**l + 1 = 0.
    """
    Q = p**d
    Qm1 = Q - 1
    neg_mod = [(-c) % p for c in modulus[:d]]

    def times_alpha(digits):
        """Digits of alpha * (the element with these digits), reduced by the modulus."""
        top = digits[d - 1]
        shifted = [0] + digits[: d - 1]
        if not top:
            return shifted
        return [(a + top * c) % p for a, c in zip(shifted, neg_mod)]

    B = 1 << 16
    seed_count = min(Qm1, B + d)
    rows = []
    cur = [0] * d
    cur[0] = 1
    for _ in range(seed_count):
        rows.append(cur)
        cur = times_alpha(cur)

    S = np.array(rows, dtype=np.int64)
    pw = p ** np.arange(d, dtype=np.int64)
    exp_np = np.empty(Qm1, dtype=np.int64)
    exp_np[:seed_count] = S @ pw
    if Qm1 > seed_count:
        MT = S[B : B + d, :]  # row j = digits(alpha**(B+j))
        D = S[:B, :]
        pos = B
        while pos < Qm1:
            D = (D @ MT) % p
            cnt = min(B, Qm1 - pos)
            exp_np[pos : pos + cnt] = D[:cnt] @ pw
            pos += cnt
        # digits of alpha**(Q-2) for the wrap-around check
        last_digits = [int(x) for x in digits_of(int(exp_np[Qm1 - 1]), p, d)]
    else:
        last_digits = rows[-1]

    # wrap-around: alpha**(Q-1) must be 1
    if pack_digits(times_alpha(last_digits), p) != 1:
        raise FieldError("modulus is not primitive (alpha**(Q-1) != 1)")

    if int(exp_np[0]) != 1:
        raise FieldError("internal table error")  # pragma: no cover
    counts = np.bincount(exp_np, minlength=Q)
    if counts[0] != 0 or not bool(np.all(counts[1:] == 1)):
        raise FieldError(
            "modulus is not primitive over F_{}: powers of alpha do not "
            "enumerate all nonzero residues".format(p)
        )

    log_np = np.full(Q, -1, dtype=np.int64)
    log_np[exp_np] = np.arange(Qm1, dtype=np.int64)

    r = exp_np % p
    plus_one = exp_np - r + (r + 1) % p
    zech_np = np.where(plus_one == 0, -1, log_np[plus_one])

    exp2_np = np.concatenate([exp_np, exp_np])

    def as_int_array(a: np.ndarray) -> array:
        out = array("i")
        out.frombytes(a.astype(np.int32).tobytes())
        return out

    return as_int_array(exp2_np), as_int_array(log_np), as_int_array(zech_np)


def galois_stable_part_via_duals(code):
    """RREF basis of the intersection of theta^j(C) over j < m as
    dual(sum_j theta^j(dual C)): m*(n-k) n-wide dual images and a kernel, the
    former codes._galois_stable_part."""
    field = code.field
    images = [GaloisAut(field, j).on_vector(row)
              for j in range(field.m) for row in dual(code).gen]
    return la.nullspace(field, images, code.n)


def intersection_dims(code, exps) -> int:
    """dim of the intersection of sigma^r(C) over r in exps, by pairwise
    oracle intersections of n-wide images."""
    cur = None
    for r in exps:
        block = tuple(GaloisAut(code.field, r).on_vector(row) for row in code.gen)
        cur = block if cur is None else _intersection(code.field, cur, block, code.n)
    return len(rref(code.field, cur)[0])


def sum_dims(code, exps) -> int:
    """dim of the sum of sigma^r(C) over r in exps, one rank of all images."""
    rows = [GaloisAut(code.field, r).on_vector(row) for r in exps for row in code.gen]
    return len(rref(code.field, rows)[0])


def family_rows(field, spec):
    """Generator rows (not reduced) of the code that spec describes; spec is
    assumed to pass codes.build's validation."""
    k = spec.k
    theta = GaloisAut(field, spec.theta_exp)
    g = tuple(field.check(a) for a in spec.g)
    if spec.family == "Gabidulin":
        return la.moore_matrix(field, g, k, theta)
    if spec.family == "Twisted":
        eta = field.check(spec.eta[0])
        moore = la.moore_matrix(field, g, k + 1, theta)
        first = la.add_vec(field, moore[0], la.scale_vec(field, eta, moore[k]))
        return (first,) + moore[1:k]
    if spec.family == "GeneralizedTwisted":
        return _gtw_rows(field, spec, theta)
    return _newgab_rows(field, spec, theta)


def _gtw_rows(field, spec, theta):
    n, k, m = spec.n, spec.k, field.m
    if spec.eta is None or spec.t is None or spec.h is None:
        raise BuildError("GeneralizedTwisted requires eta, t and h tuples")
    eta, t, h = spec.eta, spec.t, spec.h
    ell = len(eta)
    if not (len(t) == len(h) == ell >= 1):
        raise BuildError("eta, t, h must have equal length >= 1")
    if len(set(h)) != ell or any(not 0 <= hi <= k - 1 for hi in h):
        raise BuildError("h entries must be distinct in [0, k-1]")
    if len(set(t)) != ell:
        raise BuildError("t entries must be distinct")
    low = all(1 <= ti <= n - k for ti in t)
    high = all(m - n + 1 <= ti <= m - k for ti in t)
    if not (low or high):
        raise BuildError(
            f"t entries must all lie in [1, {n - k}] or all in [{m - n + 1}, {m - k}] "
            "(mixed ranges are not part of the family)"
        )
    powers = la.moore_matrix(field, spec.g, m, theta)
    rows = []
    h_to_i = {hi: i for i, hi in enumerate(h)}
    for j in range(k):
        if j in h_to_i:
            i = h_to_i[j]
            twist_exp = (k - 1 + t[i]) % m
            rows.append(la.add_vec(field, powers[j],
                                   la.scale_vec(field, field.check(eta[i]), powers[twist_exp])))
        else:
            rows.append(powers[j])
    return tuple(rows)


def _newgab_rows(field, spec, theta):
    n, k, m = spec.n, spec.k, field.m
    if spec.eta is None or len(spec.eta) != 1:
        raise BuildError(f"{spec.family} requires a single eta")
    eta = field.check(spec.eta[0])
    if spec.family == "NewGabI" and not m - k > k:
        raise BuildError("NewGabI requires m - k > k")
    if spec.family == "NewGabII" and not m - k <= k:
        raise BuildError("NewGabII requires m - k <= k")
    twisted_count = k if spec.family == "NewGabI" else m - k
    powers = la.moore_matrix(field, spec.g, m, theta)
    rows = []
    for i in range(k):
        if i < twisted_count:
            coef = theta.power(i)(eta)  # theta^i(eta)
            rows.append(la.add_vec(field, powers[i],
                                   la.scale_vec(field, coef, powers[(k + i) % m])))
        else:
            rows.append(powers[i])
    return tuple(rows)


def rank_one_iterates(code, theta_exp: int):
    """[T_0 = C, T_1, ..., T_L] as RREF bases, T_i the intersection of the
    theta^j(C) over j <= i, up to and including the first T_L with
    dim T_(L+1) = dim T_L."""
    field, n, k = code.field, code.n, code.k
    theta = GaloisAut(field, theta_exp)
    iterates = [code.gen]
    block = code.gen
    while True:
        block = tuple(theta.on_vector(r) for r in block)
        nxt = la.row_space_intersection(field, iterates[-1], block, n)
        if len(nxt) == len(iterates[-1]):
            break
        iterates.append(nxt)
        if len(iterates) > k + 1:
            raise AssertionError("intersection failed to stabilize")
    return iterates


def apply_full_aut(code, tau):
    """The image tau(C) of a code under a full automorphism."""
    rows = tuple(tau.on_vector(r) for r in code.gen)
    return LinearCode.from_rows(code.field, rows, code.n)


def orbit_of_code(code, gl_generators=None, cap: int = 200000):
    """Set of canonical generator matrices of the orbit of `code` under the
    full equivalence group <GL_n(F_q) column action, full Frobenius>."""
    field = code.field
    n = code.n
    if gl_generators is None:
        gl_generators = gl_n_q_generators(field, n)
    tau1 = FullAut(field, 1)
    start = code.gen
    seen = {start}
    frontier = [start]
    while frontier:
        if len(seen) > cap:
            raise BudgetExceeded(f"orbit exceeded cap {cap}")
        nxt = []
        for gen in frontier:
            c = LinearCode(field, n, len(gen), gen)
            images = [apply_full_aut(c, tau1).gen]
            for A in gl_generators:
                rows = tuple(la.vec_mat(field, r, A) for r in gen)
                images.append(la.rref(field, rows)[0])
            for img in images:
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def gl_n_q_generators(field, n: int):
    """Standard generating set of GL_n(F_q) as matrices over the subfield:
    a cyclic permutation, one transvection, and one diagonal scaling."""
    if n == 1:
        return [((field.gamma,),)] if field.q > 2 else [((1,),)]
    perm = tuple(tuple(1 if j == (i + 1) % n else 0 for j in range(n)) for i in range(n))
    transv = tuple(
        tuple(1 if i == j else (1 if (i, j) == (0, 1) else 0) for j in range(n))
        for i in range(n)
    )
    gens = [perm, transv]
    if field.q > 2:
        diag = tuple(
            tuple((field.gamma if i == 0 else 1) if i == j else 0 for j in range(n))
            for i in range(n)
        )
        gens.append(diag)
    return gens


def bruteforce_equivalent(c1: cd.LinearCode, c2: cd.LinearCode,
                          cap: int = 1 << 22) -> Verdict:
    """Exact equivalence decision.

    For each full automorphism tau, the matrices A with tau(C1)*A <= C2 form
    an F_p-linear space: solve G_tau * A * H^T = 0 (H a dual generator of C2)
    and enumerate its kernel for an A invertible over F_q.  Any hit gives
    tau(C1)*A = C2 by dimensions, so every possible witness lies in one of
    the swept kernels and a clean sweep is a proof of inequivalence.  Raises
    BudgetExceeded when a kernel has more than cap elements."""
    field = c1.field
    if field != c2.field or c1.n != c2.n:
        raise ValueError("codes live in different ambient spaces")
    if c1.k != c2.k:
        return Verdict("Inequivalent", {"invariant": "dimension", "k1": c1.k, "k2": c2.k},
                       f"dimensions differ: {c1.k} vs {c2.k}")
    if c1.k in (0, c1.n):
        ident = cd.SemilinearMap(1, la.identity(field, c1.n), FullAut(field, 0))
        return Verdict("Equivalent", {"lam": 1, "A": ident.A, "tau": 0, "map": ident},
                       "trivial code")
    n, k = c1.n, c1.k
    p, e, d = field.p, field.e, field.d
    H = cd.dual(c2).gen
    unknowns = n * n * e  # digits of A over the gamma-basis of F_q
    gamma_pows = [field.pow(field.gamma, j) for j in range(e)]
    for j_tau in range(d):
        tau = FullAut(field, j_tau)
        G1 = tuple(tau.on_vector(r) for r in c1.gen)
        equations: list[list[int]] = []
        for gi in range(k):
            for hi in range(n - k):
                row_eqs = [[0] * unknowns for _ in range(d)]
                for u in range(n):
                    gval = G1[gi][u]
                    if not gval:
                        continue
                    for v in range(n):
                        hval = H[hi][v]
                        if not hval:
                            continue
                        base = field.mul(gval, hval)
                        for su in range(e):
                            coeff = field.mul(base, gamma_pows[su])
                            digs = field.coeffs(coeff)
                            col = (u * n + v) * e + su
                            for dd in range(d):
                                if digs[dd]:
                                    row_eqs[dd][col] = digs[dd]
                equations.extend(row_eqs)
        kernel = la.nullspace_p(p, equations, unknowns)
        nu = len(kernel)
        if nu == 0:
            continue
        total = p**nu
        if total > cap:
            raise cd.BudgetExceeded(
                f"kernel of size {p}^{nu} exceeds enumeration cap {cap}"
            )
        # nonzero combinations, the first counter varying fastest
        for rev in itertools.islice(itertools.product(range(p), repeat=nu), 1, None):
            counters = rev[::-1]
            digits = [0] * unknowns
            for bi, cnt in enumerate(counters):
                if cnt:
                    kb = kernel[bi]
                    for col in range(unknowns):
                        if kb[col]:
                            digits[col] = (digits[col] + cnt * kb[col]) % p
            A = _digits_to_matrix(field, digits, n, e, gamma_pows)
            if la.det(field, A) != 0:
                smap = cd.SemilinearMap(1, A, tau)
                if cd.code_equal(cd.apply_semilinear(c1, smap), c2):
                    return Verdict("Equivalent",
                                   {"lam": 1, "A": A, "tau": j_tau, "map": smap},
                                   f"tau = p^{j_tau}")
                raise AssertionError("kernel solution failed recheck")  # pragma: no cover
    return Verdict("Inequivalent", {"invariant": "exhaustive-sweep"},
                   "no (A, tau) maps one onto the other")


def _digits_to_matrix(field: FieldTower, digits, n: int, e: int, gamma_pows) -> la.Matrix:
    rows = []
    for u in range(n):
        row = []
        for v in range(n):
            acc = 0
            for su in range(e):
                c = digits[(u * n + v) * e + su]
                if c:
                    term = gamma_pows[su]
                    if c != 1:
                        term = field.mul(term, c)
                    acc = field.add(acc, term)
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)
