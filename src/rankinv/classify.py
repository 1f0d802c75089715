"""Equivalence testing and Gabidulin recognition.

Two codes C1, C2 <= F_{q^m}^n are equivalent when C2 = lam * tau(C1) * A for
some nonzero lam, full-field automorphism tau, and A in GL_n(F_q).  The tools
here sit on two rungs:

* distinguish()            invariant comparison; can prove *in*equivalence
                           (never equivalence) and otherwise answers Unknown.
* bruteforce_equivalent()  exact decision by exhausting tau and solving an
                           F_p-linear system for A; capped.

is_theta_gabidulin() recognizes Gabidulin codes for a *fixed* generator theta
through several independent published criteria evaluated simultaneously; they
must agree, and any disagreement raises (it would mean an implementation bug).
Its MRD criterion, for a code with s_1 = k+1 and min(k, n-k) >= 2, is
settled by a certificate: a generator g' with C = Gab_{theta,k}(g'),
recovered from the intersection of the Galois images of C
(_gabidulin_generator).  By the characterization of Horlemann-Trautmann and
Marshall, such a code is MRD exactly when it is theta-Gabidulin, so a
missing certificate answers "no".  Where the smaller of C and C^perp has
dimension one, a single rank test answers it (codes._is_mrd_line).

The census and closed-form counting have modules of their own.  census,
CensusReport, census_param_classes and make_field are re-exported here, and
`classify.census` is the census entry point that `rankinv census` calls; the
census builds its field through `gf.make_field`.  The first three are
imported on first access (a module __getattr__, PEP 562), so `rankinv
classify gabidulin` and `rankinv compare` load neither the census nor
dataclasses.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

from . import codes as cd
from . import invariants as iv
from . import linalg as la
from .base import Record
from .gf import FullAut, GaloisAut, make_field  # noqa: F401 (make_field re-exported)


def __getattr__(name: str):
    """census and CensusReport from the census module, census_param_classes
    from counting, imported on first access.  The name is then bound here,
    so later lookups, and the tracers that replace module attributes
    (bench/tracer.py), see an ordinary module attribute."""
    if name in ("census", "CensusReport"):
        from . import census as module
    elif name == "census_param_classes":
        from . import counting as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(module, name)
    return value


# --------------------------------------------------------------------------
# distinguishing / deciding equivalence
# --------------------------------------------------------------------------

class Verdict(Record):
    """status is "Inequivalent", "Equivalent" or "Unknown"; witness is what
    separated the codes (or the equivalence map), or None."""

    __slots__ = ("status", "witness", "detail")
    _defaults = {"detail": ""}

    def __str__(self):
        if self.status == "Unknown":
            return "Unknown (no invariant separates)"
        if self.detail:
            return f"{self.status} ({self.detail})"
        return self.status


def _dimension_verdict(c1: cd.LinearCode, c2: cd.LinearCode) -> Optional[Verdict]:
    """The Inequivalent verdict when the dimensions differ, else None; raises
    ValueError when the codes live in different ambient spaces."""
    if c1.field != c2.field or c1.n != c2.n:
        raise ValueError("codes live in different ambient spaces")
    if c1.k != c2.k:
        return Verdict("Inequivalent", {"invariant": "dimension", "k1": c1.k, "k2": c2.k},
                       f"dimensions differ: {c1.k} vs {c2.k}")


def distinguish(c1: cd.LinearCode, c2: cd.LinearCode, trials: int = 100,
                seed: int = 0) -> Verdict:
    """Invariant-based comparison.  Sound for inequivalence; never claims
    equivalence (equal inputs still return Unknown).  `rankinv compare`
    prints each witness's keys after "invariant" in the order built here."""
    if verdict := _dimension_verdict(c1, c2):
        return verdict
    m = c1.field.m
    p1 = iv.fingerprint_consecutive(c1).detail
    p2 = iv.fingerprint_consecutive(c2).detail
    for r in range(m):
        if p1[r].key != p2[r].key:
            return Verdict(
                "Inequivalent",
                {"invariant": "consecutive", "sigma": r,
                 "s1": p1[r].s, "t1": p1[r].t, "s2": p2[r].s, "t2": p2[r].t},
                f"sigma=q^{r}: s/t rows differ",
            )
    if trials > 0 and m >= 3:
        f1 = iv.fingerprint_random_triples(c1, trials, seed)
        f2 = iv.fingerprint_random_triples(c2, trials, seed)
        for idx, (a, b) in enumerate(zip(f1.detail, f2.detail)):
            if a != b:
                triple = iv.random_triples(m, trials, seed)[idx]
                return Verdict(
                    "Inequivalent",
                    {"invariant": "random_triples", "trial": idx,
                     "triple": triple, "dims1": a, "dims2": b},
                    f"triple {triple}: (sum,int) dims {a} vs {b}",
                )
    return Verdict("Unknown", None)


def bruteforce_equivalent(c1: cd.LinearCode, c2: cd.LinearCode,
                          cap: int = 1 << 22) -> Verdict:
    """Exact equivalence decision.

    For each full automorphism tau, the matrices A with tau(C1)*A <= C2 form
    an F_p-linear space: solve G_tau * A * H^T = 0 (H a dual generator of C2)
    and enumerate its kernel for an A invertible over F_q.  Any hit gives
    tau(C1)*A = C2 by dimensions, so every possible witness lies in one of
    the swept kernels and a clean sweep is a proof of inequivalence.  Raises
    BudgetExceeded when a kernel has more than cap elements.

    The F_p-unknowns are the units gamma^s * E_uv (u, v < n, s < e) of
    `units`.  A unit's column holds the digits of each entry gamma^s *
    G_tau[i][u] * H[l][v] of G_tau * (gamma^s * E_uv) * H^T; a kernel
    combination (first coefficient fastest) sums digit * gamma^s into A[u][v]."""
    if verdict := _dimension_verdict(c1, c2):
        return verdict
    field = c1.field
    if c1.k in (0, c1.n):
        ident = cd.SemilinearMap(1, la.identity(field, c1.n), FullAut(field, 0))
        return Verdict("Equivalent", {"lam": 1, "A": ident.A, "tau": 0, "map": ident},
                       "trivial code")
    n, p = c1.n, field.p
    H = cd.dual(c2).gen
    gammas = [field.pow(field.gamma, s) for s in range(field.e)]
    units = [(u, v, g) for u in range(n) for v in range(n) for g in gammas]

    def matrix(digits) -> la.Matrix:
        A = [[0] * n for _ in range(n)]
        for (u, v, g), digit in zip(units, digits):
            if digit:
                A[u][v] = field.add(A[u][v], field.mul(digit, g))
        return tuple(map(tuple, A))

    for j_tau in range(field.d):
        tau = FullAut(field, j_tau)
        G1 = [tau.on_vector(r) for r in c1.gen]
        columns = [[c for row in G1 for h in H
                    for c in field.coeffs(field.mul(g, field.mul(row[u], h[v])))]
                   for (u, v, g) in units]
        kernel = la.nullspace_p(p, list(zip(*columns)), len(units))
        nu = len(kernel)
        if nu and p**nu > cap:  # a zero kernel has no combination to walk
            raise cd.BudgetExceeded(f"kernel of size {p}^{nu} exceeds enumeration cap {cap}")
        # Every A walked below is an F_p-combination of the kernel's basis
        # matrices B_1..B_nu.  If they share a nonzero x with B_i x = 0 for
        # all i, then A x = 0 for every combination, so no A is invertible;
        # likewise for an x with x^T B_i = 0.  Such an x exists exactly when
        # the B_i stacked on top of each other (or their transposes) have
        # rank below n, and then the walk is skipped.
        basis = [matrix(vec) for vec in kernel]
        if (la.rank(field, [row for B in basis for row in B]) < n
                or la.rank(field, [col for B in basis for col in zip(*B)]) < n):
            continue
        # Combinations in odometer order, the first coefficient fastest: at
        # step t counter i = v_p(t) (codes._gray_steps) steps up and 0..i-1
        # wrap to 0, each adding 1 mod p: the digits step by kernel[0..i].
        steps = list(itertools.accumulate(
            kernel, lambda acc, vec: [(a + b) % p for a, b in zip(acc, vec)]))
        digits = [0] * len(units)
        for i in cd._gray_steps(p, nu):
            digits = [(a + b) % p for a, b in zip(digits, steps[i])]
            A = matrix(digits)
            if la.det(field, A) != 0:
                smap = cd.SemilinearMap(1, A, tau)
                if cd.code_equal(cd.apply_semilinear(c1, smap), c2):
                    return Verdict("Equivalent",
                                   {"lam": 1, "A": A, "tau": j_tau, "map": smap},
                                   f"tau = p^{j_tau}")
                raise AssertionError("kernel solution failed recheck")  # pragma: no cover
    return Verdict("Inequivalent", {"invariant": "exhaustive-sweep"},
                   "no (A, tau) maps one onto the other")


# --------------------------------------------------------------------------
# Gabidulin recognition
# --------------------------------------------------------------------------

def is_theta_gabidulin(code: cd.LinearCode, theta_exp: int,
                       dist_cap: int = 1 << 20):
    """(verdict, per-criterion dict) for a fixed generating theta.

    Evaluates several independent characterizations on the sum-dimension
    sequence, its increments, the systematic generator, and (when the
    projective codeword count fits under dist_cap) whether s_1 = k+1 and the
    code is MRD.  All evaluated criteria must agree.

    The MRD question is asked only when s_1 = k+1 and the code is within
    dist_cap.  When min(k, n-k) >= 2 a certificate answers it.
    A code with s_1 = k+1 is MRD exactly when it is theta-Gabidulin
    (Horlemann-Trautmann and Marshall, "New criteria for MRD and Gabidulin
    codes and some rank-metric code constructions", AMC 2017), and
    _gabidulin_generator returns a generator g' exactly when it is: g'
    proves "yes" and None proves "no".  Codes whose smaller side has
    dimension one take codes._is_mrd_line instead, one rank test, cheaper
    than recovering g'.  dist_cap counts the codewords of C, although none
    is swept, so that the criterion is None exactly where it was when
    codewords were swept.

    d > 1 (no codeword of F_q-rank one) holds exactly when the subfield
    subcode C n F_q^n is zero.  Its dimension is read off the ranks in the
    code's differences trie (codes._galois_stable_dim), which the t-rows
    share, so no intersection basis is formed."""
    field = code.field
    n, k, m = code.n, code.k, field.m
    if math.gcd(theta_exp, m) != 1:
        raise ValueError("theta must generate the Galois group")
    if not 1 <= k <= n - 1:
        raise ValueError("recognition needs 1 <= k <= n-1")
    if n > m:
        raise ValueError("requires n <= m")

    s_ext = iv.s_sequence(code, theta_exp, i_max=n - k + 1)
    s = s_ext[: n - k + 1]
    d_gt_1 = cd._galois_stable_dim(code) == 0

    crits: dict[str, Optional[bool]] = {}

    # full ladder s_i = k + i up to n
    crits["s_full_ladder"] = (tuple(s) == tuple(range(k, n + 1))) and d_gt_1
    # endpoints only
    crits["s_endpoints"] = (s[1] == k + 1 and s[n - k] == n) and d_gt_1
    # increments all 1 then 0
    delta = tuple(s_ext[i + 1] - s_ext[i] for i in range(n - k + 1))
    crits["delta_ones"] = (delta == (1,) * (n - k) + (0,)) and d_gt_1
    # first and last nontrivial increments
    crits["delta_ends"] = (delta[0] == 1 and delta[n - k - 1] == 1) and d_gt_1
    # systematic-form criterion
    crits["systematic"] = _systematic_criterion(code, theta_exp)
    # MRD + s_1 = k+1, only within the cap, which counts codewords although
    # no codeword is walked; not asked at all when s_1 != k+1
    n_words = (field.Q**k - 1) // (field.Q - 1)
    if n_words > dist_cap:
        crits["mrd_plus_s1"] = None
    elif s[1] != k + 1:
        crits["mrd_plus_s1"] = False
    elif min(k, n - k) >= 2:
        # with s_1 = k+1, C is MRD exactly when it is theta-Gabidulin, which
        # the recovered generator settles either way
        crits["mrd_plus_s1"] = _gabidulin_generator(code, theta_exp) is not None
    else:
        crits["mrd_plus_s1"] = cd._is_mrd_line(code)

    values = {v for v in crits.values() if v is not None}
    if len(values) != 1:
        raise AssertionError(
            f"recognition criteria disagree: {crits} "
            f"(n={n}, k={k}, theta={theta_exp})"
        )
    return values.pop(), crits


def _gabidulin_generator(code: cd.LinearCode, theta_exp: int):
    """A generator g' of C as a theta-Gabidulin code, C = Gab_{theta,k}(g')
    spanned by the Moore rows g', theta(g'), ..., theta^(k-1)(g') with
    rank_q(g') = n, or None when C is not theta-Gabidulin; theta is
    a -> a^(q^theta_exp), a generator of Gal(F_{q^m}/F_q), and 1 <= k <= n-1.

    g' comes from V = C n theta(C) n ... n theta^(k-1)(C), read off the
    differences trie that the s- and t-rows grow (Differences.meet), as
    g' = theta^-(k-1)(v) for v spanning V.  It is returned only after the
    check rank_q(g') = n and RREF(Moore_k(g')) = the code's RREF generator,
    so a g' returned makes C theta-Gabidulin by definition, and therefore
    MRD: it certifies "yes" on its own.  When V is right, the span check
    follows from the rank check (theta^-i(v) lies in C for i < k, and those
    are the k Moore rows of g', independent as rank_q(g') = n >= k); it is
    kept so that the certificate does not rest on the trie.

    None is returned only when C is not theta-Gabidulin.  Let C =
    Gab_{theta,k}(g) with rank_q(g) = n.  Its dual is Gab_{theta,n-k}(h)
    for some h with rank_q(h) = n (Gabidulin 1985 for theta the Frobenius;
    Kshevetskiy and Gabidulin, ISIT 2005, for any generating theta).  theta
    acts entrywise, so theta(u).theta(c) = theta(u.c) and theta^i(C)^perp =
    theta^i(C^perp); with (n U_i)^perp = sum U_i^perp,
    V^perp = sum_{i<k} theta^i(C^perp) = <theta^j(h) : j <= n-2>.  Those are
    n-1 rows of the n x n Moore matrix of h, which is invertible because
    rank_q(h) = n and theta generates, so dim V^perp = n-1 and dim V = 1.
    theta^(k-1)(g) lies in every theta^i(C), so it spans V: v = lam *
    theta^(k-1)(g), and g' = theta^-(k-1)(lam) * g, a nonzero multiple of g.
    Then rank_q(g') = n, and the Moore rows of g' are those of g scaled, so
    they span C and the check passes.  For a code with s_1 = k+1, None
    thus also proves that C is not MRD (see is_theta_gabidulin)."""
    field, n, k = code.field, code.n, code.k
    V = code.diffs.meet([theta_exp * i for i in range(1, k)])
    if len(V) != 1:
        return None
    g = GaloisAut(field, -theta_exp * (k - 1)).on_vector(V[0])
    if la.rank_q(field, g) != n:
        return None
    moore = la.moore_matrix(field, g, k, GaloisAut(field, theta_exp))
    return g if la.rref(field, moore)[0] == code.gen else None


def _systematic_criterion(code: cd.LinearCode, theta_exp: int) -> bool:
    """After permuting pivot columns to the front (a rank-preserving F_q
    equivalence), write the generator as (I_k | X) and test, for the
    difference Y = theta(X) - X (read from LinearCode.diffs):
      (a) Y has rank one over F_{q^m},
      (b) its first row has F_q-rank n-k,
      (c) its first column has F_q-rank k."""
    n, k = code.n, code.k
    Y = code.diffs.rows(theta_exp)
    return (la.rank(code.field, Y) == 1 and la.rank_q(code.field, Y[0]) == n - k
            and la.rank_q(code.field, [row[0] for row in Y]) == k)
