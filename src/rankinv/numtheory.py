"""Integer number theory behind the fields, the counts and the census.

Primality (_is_prime: Miller-Rabin, exact below _MR_EXACT_BELOW, then
Baillie-PSW), the distinct prime factors of an integer (_prime_factors:
trial division, then Pollard-Brent), and the generators of a cyclic Galois
group (galois_generators).  Plain ints only, so `count` and `census
--ub-only` run on this module without loading any field code.
"""

from __future__ import annotations

import functools
import math

# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, 2015); above it _is_prime runs Baillie-PSW.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether n is prime, decided as sympy.isprime decides it: Miller-Rabin
    on _MR_BASES below _MR_EXACT_BELOW, where it is exact, and above that
    Baillie-PSW: a strong base-2 test and a strong Lucas test, which no known
    composite passes both of."""
    if n < 2:
        return False
    for f in _MR_BASES:
        if n % f == 0:
            return n == f
    odd, s = n - 1, 0
    while not odd & 1:
        odd, s = odd >> 1, s + 1

    def strong(a: int) -> bool:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            return True
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return True
        return False

    if n < _MR_EXACT_BELOW:
        return all(strong(a) for a in _MR_BASES)
    return strong(2) and _is_strong_lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _is_strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 41 with no factor in
    _MR_BASES, with Selfridge's parameters: D the first of 5, -7, 9, -11, ...
    with (D/n) = -1, P = 1, Q = (1 - D)/4.  U_k, V_k and Q^k go up the bits of
    the odd part of n + 1 by the doubling and +1 steps of the Lucas sequences."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # gcd(D, n) > 1 and |D| < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    odd, s = n + 1, 0
    while not odd & 1:
        odd, s = odd >> 1, s + 1
    U, V, Qk = 1, 1, Q % n  # k = 1
    for bit in bin(odd)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (D * U + V) % n
            U, V = (U + n if U & 1 else U) >> 1, (V + n if V & 1 else V) >> 1
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


@functools.cache
def _prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n >= 1, ascending: trial division below
    1000, then Pollard-Brent splits of what is left until every part is
    prime.  Cached, so a modulus search factors its Q - 1 once, not once
    per candidate."""
    found = set()
    f = 2
    while f < 1000 and f * f <= n:
        if n % f == 0:
            found.add(f)
            while n % f == 0:
                n //= f
        f += 1 + (f > 2)
    parts = [n] if n > 1 else []
    while parts:
        n = parts.pop()
        if _is_prime(n):
            found.add(n)
        else:
            f = _rho_factor(n)
            parts += [f, n // f]
    return tuple(sorted(found))


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite n: Pollard's rho on y -> y^2 + c
    in Brent's form (Brent, "An improved Monte Carlo factorization
    algorithm", BIT 20, 1980), with the gcds taken over runs of 128 steps and
    c = 1, 2, ... tried in turn until one splits n."""
    c = 0
    while True:
        c += 1
        y, r, g, acc = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = math.gcd(acc, n)
                k += 128
            r *= 2
        if g == n:  # the run overshot: step again from its start one by one
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def galois_generators(m: int) -> list[int]:
    """Exponents r for which a -> a^(q^r) generates Gal(F_{q^m}/F_q)."""
    return [r for r in range(1, m) if math.gcd(r, m) == 1] or ([0] if m == 1 else [])
