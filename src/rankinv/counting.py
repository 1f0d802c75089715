"""Closed-form counts and bounds, and the census parameter classes.

counting() evaluates closed-form counts/bounds for Gabidulin and twisted
families; census_param_classes() lists the parameter classes of one-twist
generalized-twisted codes over a doubled field (m = 2n), and census_ub(),
their number, is the census's upper bound UB.  Everything here is integer
arithmetic on the parameters, with no field built, so `rankinv count` and
`census --ub-only` load no field code.
"""

from __future__ import annotations

import math

from .base import Record
from .numtheory import _is_prime, galois_generators


def gaussian_binomial(m: int, n: int, q: int) -> int:
    num = den = 1
    for i in range(n):
        num *= q**m - q**i
        den *= q**n - q**i
    assert num % den == 0
    return num // den


class CountBound(Record):
    """One count or bound: kind is "exact", "lower" or "upper", and value is
    None where the formula has no value."""

    __slots__ = ("name", "kind", "value", "applicable", "note")
    _defaults = {"note": ""}


class CountResult(Record):
    """The bounds of counting(q, k, n, m), in a fixed order."""

    __slots__ = ("q", "k", "n", "m", "bounds")  # bounds: a tuple of CountBound

    def get(self, name: str) -> CountBound:
        for b in self.bounds:
            if b.name == name:
                return b
        raise KeyError(name)


def _q_to_pe(q: int) -> tuple[int, int]:
    """(p, e) with q = p**e, decided without factoring q, so a composite q
    with large prime factors is rejected as fast as any other: for each e
    from log2(q) down to 1, q is a prime power when its integer e-th root r
    has r**e == q and r is prime by _is_prime."""
    for e in range(q.bit_length() if q > 1 else 0, 0, -1):
        r = 1 << -(-q.bit_length() // e)  # >= the e-th root; Newton from above
        while (s := ((e - 1) * r + q // r ** (e - 1)) // e) < r:
            r = s
        if r ** e == q and _is_prime(r):
            return r, e
    raise ValueError(f"q = {q} is not a prime power")


def count_aut_orbits_eta(q: int, m: int, k: int, field_cap: int = 1 << 22) -> int | None:
    """Number of orbits of the full automorphism group on
    {eta in F_{q^m} : norm(eta) != (-1)^(k*m)} (0 included, its norm is 0).
    Returns None when the field would exceed field_cap.

    Read off exponents, with no field built.  A nonzero eta is alpha^l,
    l in Z_{Q-1}, and its norm alpha^(l(Q-1)/(q-1)) = gamma^l, gamma of
    order q - 1, is 1 exactly when q - 1 divides l; a -> a^p, which
    generates the group, sends l to p*l.  When k*m is odd at odd p, m is
    odd, so norm(-1) = (-1)^(1+q+...+q^(m-1)) = -1, and eta -> -eta, which
    commutes with the group, swaps the norms 1 and -1: every k gives the
    count for norm(eta) != 1."""
    p = _q_to_pe(q)[0]
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if q**m > field_cap:
        return None
    qm1 = q**m - 1
    seen = bytearray(qm1)
    orbits = 1  # {0}
    for l in range(qm1):
        if seen[l] or l % (q - 1) == 0:
            continue
        orbits += 1
        while not seen[l]:
            seen[l] = 1
            l = l * p % qm1
    return orbits


def counting(q: int, k: int, n: int, m: int, field_cap: int = 1 << 22) -> CountResult:
    """Closed-form counts and bounds for Gabidulin / twisted codes with the
    given parameters.  Formulas outside their stated parameter ranges are
    still evaluated where they make sense but flagged applicable=False."""
    from fractions import Fraction  # here, not above: census_ub needs none of it

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
# census parameter classes over the doubled field m = 2n
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
