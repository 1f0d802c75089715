"""Equivalence testing, Gabidulin recognition, counting, and the census.

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
rank_one_decomposition() splits a code with s_1 <= k+1 into a part spanned by
rank-one codewords plus a Gabidulin part.

counting() evaluates closed-form counts/bounds for Gabidulin and twisted
families; census() builds the one-twist generalized-twisted codes over a
doubled field (m = 2n) for every parameter class and counts how many the
invariant fingerprints distinguish (lower bounds LB1/LB2 vs the parameter
upper bound UB).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import codes as cd
from . import invariants as iv
from . import linalg as la
from .gf import FieldTower, FullAut, GaloisAut, galois_generators, make_field
from .rng import DetRNG


# --------------------------------------------------------------------------
# distinguishing / deciding equivalence
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    status: str              # "Inequivalent" | "Equivalent" | "Unknown"
    witness: Optional[dict]  # what separated (or the equivalence map)
    detail: str = ""

    def __str__(self):
        if self.status == "Unknown":
            return "Unknown (no invariant separates)"
        if self.detail:
            return f"{self.status} ({self.detail})"
        return self.status


def distinguish(c1: cd.LinearCode, c2: cd.LinearCode, trials: int = 100,
                seed: int = 0) -> Verdict:
    """Invariant-based comparison.  Sound for inequivalence; never claims
    equivalence (equal inputs still return Unknown).  `rankinv compare`
    prints each witness's keys after "invariant" in the order built here."""
    if c1.field != c2.field or c1.n != c2.n:
        raise ValueError("codes live in different ambient spaces")
    if c1.k != c2.k:
        return Verdict("Inequivalent", {"invariant": "dimension", "k1": c1.k, "k2": c2.k},
                       f"dimensions differ: {c1.k} vs {c2.k}")
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
    n, p = c1.n, field.p
    H = cd.dual(c2).gen
    gammas = [field.pow(field.gamma, s) for s in range(field.e)]
    units = [(u, v, g) for u in range(n) for v in range(n) for g in gammas]
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
        per_unit = list(zip(*kernel))
        for rev in itertools.islice(itertools.product(range(p), repeat=nu), 1, None):
            counters = rev[::-1]
            A = [[0] * n for _ in range(n)]
            for (u, v, g), col in zip(units, per_unit):
                digit = sum(map(operator.mul, counters, col)) % p
                if digit:
                    A[u][v] = field.add(A[u][v], field.mul(digit, g))
            A = tuple(map(tuple, A))
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
    projective codeword count fits under dist_cap) whether the minimum
    distance meets the Singleton bound.  All evaluated criteria must agree."""
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
    rank_one, _ = cd.has_rank_one_codeword(code)
    d_gt_1 = not rank_one

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
    # MRD + s_1 = k+1 (only within the enumeration cap).  By the Singleton
    # bound d <= n-k+1, so d = n-k+1 exactly when no codeword has rank
    # <= n-k: the sweep stops at the first such word, and is not needed
    # at all when s_1 != k+1
    n_words = (field.Q**k - 1) // (field.Q - 1)
    if n_words > dist_cap:
        crits["mrd_plus_s1"] = None
    else:
        crits["mrd_plus_s1"] = s[1] == k + 1 and cd._least_rank(code, n - k) == n - k + 1

    values = {v for v in crits.values() if v is not None}
    if len(values) != 1:
        raise AssertionError(
            f"recognition criteria disagree: {crits} "
            f"(n={n}, k={k}, theta={theta_exp})"
        )
    return values.pop(), crits


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


def rank_one_decomposition(code: cd.LinearCode, theta_exp: int):
    """Split C = C1 (+) Gabidulin part, valid when s_1 <= k+1.

    Returns (C1, t, g) with C1 spanned by rank-one codewords (dimension k-t),
    t the dimension of the Gabidulin summand, and g its generator vector
    (None when t = 0).  Verifies the recomposition before returning.

    The intersections T_i = C n theta(C) n ... n theta^i(C) fall until they
    stabilize, and they stabilize at the Galois-stable part V of C
    (codes._galois_stable_part), which is C1.  V lies in every T_i.  Once
    T_i = T_(i+1) = C n theta(T_i), T_i lies in theta(T_i), which has the
    same dimension, so theta(T_i) = T_i; theta generates the Galois group,
    so T_i is stable under every automorphism, lies in each image of C and
    hence in V.  Both C1 and T_(t-1) are read off the code's differences
    (LinearCode.diffs), and a vector of T_(t-1) outside C1, shifted back by
    theta^-(t-1), generates the Gabidulin part."""
    field = code.field
    n, k, m = code.n, code.k, field.m
    if math.gcd(theta_exp, m) != 1:
        raise ValueError("theta must generate the Galois group")
    theta = GaloisAut(field, theta_exp)
    s1 = iv.s_sequence(code, theta_exp, i_max=1)[1]
    if s1 > k + 1:
        raise ValueError(f"decomposition needs s_1 <= k+1 (got s_1 = {s1}, k = {k})")

    c1_gen = cd._galois_stable_part(code)
    t = k - len(c1_gen)
    c1 = cd.LinearCode(field, n, len(c1_gen), c1_gen)

    if t == 0:
        _verify_rank_one_span(c1)
        return c1, 0, None

    # pick v in T_{t-1} \ C1 and shift it back to a generator
    prev = code.diffs.meet([theta_exp * i for i in range(1, t)])
    inc = la.IncrementalRank(field)
    for row in c1_gen:
        inc.add_row(row)
    v = None
    for row in prev:
        if inc.add_row(row):
            v = row
            break
    if v is None:
        raise AssertionError("no vector found outside the stable intersection")  # pragma: no cover
    g = theta.power(-(t - 1)).on_vector(v)
    if la.rank_q(field, g) <= t:
        raise AssertionError("recovered generator has too small F_q-rank")  # pragma: no cover

    recomposed = la.rref(field, la.stack(c1_gen, la.moore_matrix(field, g, t, theta)))[0]
    if recomposed != code.gen:
        raise AssertionError("decomposition failed to recompose the code")  # pragma: no cover
    _verify_rank_one_span(c1)
    return c1, t, tuple(g)


def _verify_rank_one_span(c1: cd.LinearCode) -> None:
    if c1.k == 0:
        return
    dim_q, _ = cd.subfield_subcode(c1)
    if dim_q != c1.k:
        raise AssertionError(
            "stable intersection is not spanned by rank-one codewords"
        )  # pragma: no cover


# --------------------------------------------------------------------------
# counting
# --------------------------------------------------------------------------

def gaussian_binomial(m: int, n: int, q: int) -> int:
    num = den = 1
    for i in range(n):
        num *= q**m - q**i
        den *= q**n - q**i
    assert num % den == 0
    return num // den


@dataclass(frozen=True)
class CountBound:
    name: str
    kind: str                 # "exact" | "lower" | "upper"
    value: Optional[int]
    applicable: bool
    note: str = ""


@dataclass(frozen=True)
class CountResult:
    q: int
    k: int
    n: int
    m: int
    bounds: tuple[CountBound, ...]

    def get(self, name: str) -> CountBound:
        for b in self.bounds:
            if b.name == name:
                return b
        raise KeyError(name)


def _q_to_pe(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            v = q
            while v % p == 0:
                v //= p
                e += 1
            if v != 1:
                raise ValueError(f"q = {q} is not a prime power")
            return p, e
    raise ValueError(f"q = {q} is not a prime power")


def count_aut_orbits_eta(q: int, m: int, k: int, field_cap: int = 1 << 22) -> Optional[int]:
    """Number of orbits of the full automorphism group on
    {eta in F_{q^m} : norm(eta) != (-1)^(k*m)} (0 included, its norm is 0).
    Returns None when the field would exceed field_cap."""
    p, e = _q_to_pe(q)
    if q**m > field_cap:
        return None
    field = make_field(p, e, m)
    target = field.one if (k * m) % 2 == 0 else field.neg(field.one)
    seen = set()
    orbits = 0
    for a in range(field.Q):
        if a in seen:
            continue
        if field.norm_q(a) == target:
            continue
        orbits += 1
        b = a
        while True:
            seen.add(b)
            b = field.frob_p(b, 1)
            if b == a:
                break
    return orbits


def counting(q: int, k: int, n: int, m: int, field_cap: int = 1 << 22) -> CountResult:
    """Closed-form counts and bounds for Gabidulin / twisted codes with the
    given parameters.  Formulas outside their stated parameter ranges are
    still evaluated where they make sense but flagged applicable=False."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..n = 1..{n}, got {k}")
    phi = len(galois_generators(m))  # Euler's phi(m), with phi(1) = 1
    e = _q_to_pe(q)[1]
    bounds: list[CountBound] = []

    prod_gab = 1
    for i in range(1, n):
        prod_gab *= q**m - q**i
    ok = 2 <= k <= n - 2 and n <= m
    bounds.append(CountBound(
        "gabidulin_fixed_theta", "exact", prod_gab, ok,
        "distinct Gabidulin codes for one generating theta" + ("" if ok else " (outside stated range 2<=k<=n-2, n<=m)"),
    ))

    ok = 2 < k < n - 2 and n <= m
    window = (2 * m) // (n - 1) if n > 1 else None
    lower = math.ceil(Fraction(phi * prod_gab, window)) if window else None
    upper = (phi * prod_gab) // 2
    bounds.append(CountBound("gabidulin_all_theta_lower", "lower", lower, ok,
                             "distinct Gabidulin codes over all generating theta"))
    bounds.append(CountBound("gabidulin_all_theta_upper", "upper", upper, ok, ""))

    ok = 1 <= k <= n - 1 and 2 <= n <= m - 2
    sz = Fraction(gaussian_binomial(m, n, q) * (q - 1), m * (q**m - 1))
    bounds.append(CountBound(
        "inequivalent_mrd_lower", "lower", math.ceil(sz), ok,
        "inequivalent MRD codes (not only Gabidulin)",
    ))

    ok = m == n and 2 < k < n - 2
    bounds.append(CountBound(
        "gabidulin_classes_m_eq_n", "exact", phi // 2 if m == n else None, ok,
        "equivalence classes of Gabidulin codes when m = n",
    ))

    if m > n:
        prod_cls = Fraction(1)
        for i in range(2, n + 1):
            prod_cls *= Fraction(q ** (m - i + 1) - 1, q**i - 1)
        lower_f = Fraction((n - 1) * phi, 2 * m * m * e) * prod_cls
        upper_f = Fraction(phi, 2) * prod_cls
        ok = 2 < k < n - 2
        bounds.append(CountBound("gabidulin_classes_m_gt_n_lower", "lower",
                                 math.ceil(lower_f), ok,
                                 "equivalence classes of Gabidulin codes when m > n"))
        bounds.append(CountBound("gabidulin_classes_m_gt_n_upper", "upper",
                                 math.floor(upper_f), ok, ""))
    else:
        bounds.append(CountBound("gabidulin_classes_m_gt_n_lower", "lower", None, False, "needs m > n"))
        bounds.append(CountBound("gabidulin_classes_m_gt_n_upper", "upper", None, False, "needs m > n"))

    prod_tw = 1
    for i in range(n):
        prod_tw *= q**m - q**i
    tw_exact_f = (1 - Fraction(1, q - 1)) * prod_tw
    ok = 2 <= k <= n - 2 and n <= m
    bounds.append(CountBound(
        "twisted_fixed_theta", "exact", _exact_fraction(tw_exact_f), ok,
        "distinct twisted codes (nonzero eta with the norm constraint) for one theta"
        + ("; zero at q=2" if q == 2 else ""),
    ))
    bounds.append(CountBound(
        "twisted_all_theta_upper", "upper",
        math.floor(Fraction(phi, 2) * tw_exact_f), ok, "",
    ))

    x_orbits = count_aut_orbits_eta(q, m, k, field_cap)
    bounds.append(CountBound(
        "eta_orbit_count", "exact", x_orbits, True,
        "orbits of the automorphism group on twist scalars of admissible norm"
        + ("" if x_orbits is not None else " (field beyond enumeration cap)"),
    ))

    ok = m == n and 2 < k < n - 2
    value = x_orbits * (phi // 2) if (x_orbits is not None and m == n) else None
    note = "equivalence classes of twisted codes when m = n"
    if m == n and x_orbits is None:
        note += " (field beyond enumeration cap)"
    bounds.append(CountBound("twisted_classes_m_eq_n", "exact", value, ok, note))

    return CountResult(q, k, n, m, tuple(bounds))


def _exact_fraction(f: Fraction) -> int:
    if f.denominator != 1:
        raise AssertionError(f"expected an integer, got {f}")  # pragma: no cover
    return f.numerator


# --------------------------------------------------------------------------
# census over the doubled field m = 2n
# --------------------------------------------------------------------------

def census_param_classes(n: int, k: int) -> list[tuple[int, int, int]]:
    """Canonical representatives of (theta exponent, twist offset t, twisted
    row h) modulo the pairing (r,t,h) ~ (-r mod m, n-k+1-t, k-1-h)."""
    m = 2 * n
    if not 1 <= k <= n - 1:
        raise ValueError("census needs 1 <= k <= n-1")
    seen = set()
    reps = []
    for r in galois_generators(m):
        for t in range(1, n - k + 1):
            for h in range(k):
                if (r, t, h) in seen:
                    continue
                partner = ((-r) % m, n - k + 1 - t, k - 1 - h)
                seen.add((r, t, h))
                seen.add(partner)
                reps.append((r, t, h))
    return reps


def census_ub(n: int, k: int) -> int:
    return len(census_param_classes(n, k))


@dataclass(frozen=True)
class CensusReport:
    q: int
    n: int
    m: int
    k: int
    seed: int
    trials: int
    g: tuple[int, ...]
    eta: int
    ub: int
    lb1: int
    lb2: int
    params: tuple[tuple[int, int, int], ...]
    fingerprints1: tuple           # consecutive keys, aligned with params
    fingerprints2: tuple           # random-triple keys, aligned with params


def _census_class_fingerprints(args):
    """Worker for one parameter class; module-level so a process pool can
    pickle it.  Rebuilds the (cached per process) field from scalars.  Both
    fingerprints read the code's one cache of differences."""
    p, e, m, n, k, g, eta, r, t, h, trials, seed = args
    field = make_field(p, e, m)
    spec = cd.make_spec("GeneralizedTwisted", n, k, r, g, eta=(eta,), t=(t,), h=(h,))
    code = cd.build(field, spec)
    return (iv.fingerprint_consecutive(code).key,
            iv.fingerprint_random_triples(code, trials, seed).key)


def census(q: int, n: int, k: int, seed: int, trials: int = 100,
           jobs: int = 1) -> tuple[CensusReport, FieldTower]:
    """Build one generalized-twisted code per parameter class over F_{q^m},
    m = 2n, with a shared random g (entries in the subfield F_{q^n}, full
    F_q-rank) and eta outside F_{q^n}; count distinguishable fingerprints.
    jobs > 1 spreads the per-class work over a process pool (jobs < 1 is an
    error); the report is identical either way."""
    m = 2 * n
    if n < 6:
        raise ValueError("census needs n >= 6")
    if not 2 <= k <= n - 2:
        raise ValueError("census needs 2 <= k <= n-2")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    p, e = _q_to_pe(q)
    field = make_field(p, e, m)
    sub_size = q**n

    rng_g = DetRNG(seed, "census-g")
    g = la.random_full_rank_vector(field, n, rng_g, subfield_size=sub_size)
    rng_eta = DetRNG(seed, "census-eta")
    for _ in range(10000):
        eta = field.random_element(rng_eta)
        if not field.in_subfield(eta, n):
            break
    else:  # pragma: no cover
        raise RuntimeError("could not sample eta outside the half-degree subfield")

    params = tuple(census_param_classes(n, k))
    tasks = [(p, e, m, n, k, g, eta, r, t, h, trials, seed) for (r, t, h) in params]
    if jobs > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_census_class_fingerprints, tasks))
    else:
        results = [_census_class_fingerprints(task) for task in tasks]
    fps1 = [r1 for (r1, _) in results]
    fps2 = [r2 for (_, r2) in results]
    report = CensusReport(
        q=q, n=n, m=m, k=k, seed=seed, trials=trials, g=g, eta=eta,
        ub=len(params), lb1=len(set(fps1)), lb2=len(set(fps2)),
        params=params, fingerprints1=tuple(fps1), fingerprints2=tuple(fps2),
    )
    return report, field
