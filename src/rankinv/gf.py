"""Finite-field towers F_p <= F_q <= F_{q^m} for rank-metric computations.

The extension is realized as F_p[x]/(f) for a monic *primitive* polynomial f
of degree d = e*m, so q = p**e and the big field has Q = p**d elements.
Field elements are plain Python ints packing the little-endian coefficient
vector (c_0, ..., c_{d-1}) in base p:

    value = sum(c_i * p**i),  0 <= c_i < p.

``alpha`` (the residue class of x) is primitive: every nonzero element is a
power of alpha.  All arithmetic lives on the FieldTower object and operates
on packed ints.

Two interchangeable arithmetic backends exist:

* ``table``   -- exp/log/Zech-log tables in int32 arrays, cached; selected
                 automatically when Q <= TABLE_LIMIT, and refused above it.
                 numpy (imported by the build alone) fills them block by
                 block straight into those arrays, each block of powers of
                 alpha the one before it times a fixed power, by split
                 lookups (see _build_tables); p = 2 keeps no Zech table,
                 since addition there is XOR.  Building the exp table doubles
                 as a proof that f is primitive: the powers of alpha must
                 enumerate every nonzero residue exactly once.
* ``generic`` -- direct arithmetic on packed ints; no tables.  Used for
                 larger fields and to cross-check the table backend.  At
                 p = 2 addition is XOR and multiplication shift-and-XOR.  At
                 odd p every operation works on the digits spread into the
                 lanes of one int (see FieldTower._init_lanes), and
                 multiplication is one Kronecker product folded back through
                 x**(d+j) mod f.  a -> a**(p**j) is F_p-linear: the digit
                 vector times a d x d matrix over F_p, built from
                 alpha**(p**j) the first time j is asked for.  The inverse is
                 Itoh-Tsujii: a**(p + ... + p**(d-1)) as a product of
                 Frobenius images, divided by the norm of a down to F_p.  The
                 order of x under the field's own multiplication proves f
                 primitive (see _x_is_primitive), with Q-1 factored by
                 trial division and Pollard-Brent (_prime_factors).

The intermediate subfield F_q is generated by gamma = alpha**((Q-1)//(q-1)).
Automorphism conventions used across the package:

* GaloisAut(field, r):  a -> a**(q**r), the Galois group of F_{q^m}/F_q
  (cyclic of order m; generators are the r coprime to m).
* FullAut(field, j):    a -> a**(p**j), the full automorphism group of
  F_{q^m} (cyclic of order d = e*m).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

TABLE_LIMIT = 1 << 23


def _default_backend(p: int, d: int) -> str:
    """The backend of a field with p**d elements when none is asked for (d
    is clamped at 0, so invalid input reaches FieldTower's own checks)."""
    return "table" if p ** max(d, 0) <= TABLE_LIMIT else "generic"


class FieldError(ValueError):
    """Invalid field construction or field-element operation."""


# --------------------------------------------------------------------------
# small helpers
# --------------------------------------------------------------------------

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


def digits_of(value: int, p: int, d: int) -> list[int]:
    """Little-endian base-p digit vector of length d."""
    out = [0] * d
    for i in range(d):
        value, out[i] = divmod(value, p)
    if value:
        raise FieldError("packed value out of range for this field")
    return out


def pack_digits(digits, p: int) -> int:
    v = 0
    for c in reversed(list(digits)):
        v = v * p + int(c)
    return v


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1: trial division below 1000, then
    Pollard-Brent splits of what is left until every part is prime."""
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
    return sorted(found)


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


def _is_primitive(mod, p: int) -> bool:
    """Whether the monic f = mod (little-endian, leading 1 included) is
    primitive over F_p: the order test of FieldTower._x_is_primitive, run by
    building the generic field on f."""
    try:
        FieldTower(p, 1, len(mod) - 1, modulus=mod, backend="generic")
    except FieldError:
        return False
    return True


# default_modulus per (p, degree): at degree >= 2 the lexicographically
# least (smallest packed value of the non-leading coefficients) monic
# primitive polynomial, at degree 1 x - g for the least primitive root g.
# These are the output of default_modulus' own search, frozen for speed;
# tests re-derive a sample and cross-check primitivity independently.  The
# degree-1 entries let linalg build the prime fields behind rank_p and
# nullspace_p without the search.
_KNOWN_MODULI: dict[tuple[int, int], int] = {
    (2, 1): 1, (3, 1): 1, (5, 1): 3, (7, 1): 4,
    (2, 2): 3, (2, 3): 3, (2, 4): 3, (2, 5): 5, (2, 6): 3, (2, 7): 3,
    (2, 8): 29, (2, 9): 17, (2, 10): 9, (2, 12): 83, (2, 14): 43,
    (2, 15): 3, (2, 16): 45, (2, 20): 9,
    (3, 2): 5, (3, 3): 7, (3, 4): 5, (3, 5): 7, (3, 6): 5, (3, 7): 16,
    (3, 8): 29, (3, 10): 32, (3, 12): 215, (3, 14): 5, (3, 16): 116,
}


def default_modulus(p: int, d: int) -> tuple[int, ...]:
    """Deterministic default: at d = 1, x - g for the least primitive root g
    mod p; at d >= 2, the monic primitive polynomial of degree d over F_p
    whose packed non-leading coefficient vector (c_0 + c_1 p + ...) is least.
    Returned little-endian with the leading 1 included."""
    if d < 1:
        raise FieldError("extension degree must be >= 1")
    packed = _KNOWN_MODULI.get((p, d))
    if packed is None:
        packed = _search_default_modulus(p, d)
    digits = digits_of(packed, p, d)
    return tuple(digits) + (1,)


def _search_default_modulus(p: int, d: int) -> int:
    if d == 1:
        # f = x - g for the least primitive root g mod p
        for g in range(1, p):
            if _is_primitive([(-g) % p, 1], p):
                return (-g) % p
        raise FieldError("no primitive root found")  # pragma: no cover
    for packed in range(1, p**d):
        if packed % p == 0:
            continue  # c_0 = 0 means x | f
        mod = digits_of(packed, p, d) + [1]
        if _is_primitive(mod, p):
            return packed
    raise FieldError(f"no primitive polynomial of degree {d} over F_{p}")  # pragma: no cover


# --------------------------------------------------------------------------
# table construction
# --------------------------------------------------------------------------

_BLOCK = 1 << 14  # powers per step of the table build


def _build_tables(p: int, d: int, modulus: tuple[int, ...]):
    """exp/log/zech arrays for F_p[x]/(modulus); proves primitivity.

    Returns (exp2, log, zech) as array('i'): exp2 has length 2*(Q-1) (the
    exponent table repeated so products of logs need no reduction), log has
    length Q with log[0] = -1, zech[l] = log(alpha**l + 1) with -1 when
    alpha**l + 1 = 0.  zech is None at p = 2, where addition is XOR.

    The first B + d powers (B = _BLOCK) come from times_alpha.  Each later
    block of B powers is the block B places back times alpha**B, an F_p-linear
    map on digits, applied by split lookups: a packed v = lo + p**h * hi with
    h = ceil(d/2) maps to t_lo[lo] + t_hi[hi], the reduced images of lo and of
    x**h * hi with digit j in lane j of w bits.  A lane of the sum is at most
    2(p - 1) < 2**w, and a chunk table of at most 2**16 entries reads c lanes
    at a time back to base p.  Every block is written straight into the
    array('i') buffers the field keeps, through numpy views.

    Primitivity: alpha**(Q-1) = 1, and every exp[i] is nonzero with
    log[exp[i]] = i, so the Q - 1 powers are distinct nonzero residues, that
    is every nonzero residue exactly once.
    """
    import numpy as np  # here only, so runs that build no table never load it

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

    exp2 = array("i", [0]) * (2 * Qm1)
    log = array("i", [-1]) * Q
    exp2_v = np.frombuffer(exp2, dtype=np.int32)
    exp_v = exp2_v[:Qm1]
    log_v = np.frombuffer(log, dtype=np.int32)

    seed_count = min(Qm1, _BLOCK + d)
    rows = []
    cur = [0] * d
    cur[0] = 1
    for _ in range(seed_count):
        rows.append(cur)
        cur = times_alpha(cur)
    seed = np.array(rows, dtype=np.int64)
    exp_v[:seed_count] = seed @ p ** np.arange(d, dtype=np.int64)

    if Qm1 > seed_count:
        h = (d + 1) // 2
        w = (2 * (p - 1)).bit_length()
        lane_of_digit = np.int64(1) << (w * np.arange(d, dtype=np.int64))

        def split_table(count: int, first: int) -> np.ndarray:
            """Lanes of (sum c_j x**(first+j)) * alpha**B for every c < p**count."""
            v = np.arange(p**count, dtype=np.int64)[:, None]
            digits = v // p ** np.arange(count, dtype=np.int64) % p
            return digits @ seed[_BLOCK + first : _BLOCK + first + count] % p @ lane_of_digit

        t_lo, t_hi = split_table(h, 0), split_table(d - h, h)
        c = 16 // w  # lanes per chunk-table lookup
        mask = (1 << (c * w)) - 1
        if c:
            v = np.arange(mask + 1, dtype=np.int64)
            chunk = sum((v >> (w * j)) % (1 << w) % p * p**j for j in range(c)).astype(np.int32)

        def to_packed(lanes: np.ndarray) -> np.ndarray:
            if not c:  # one lane wider than 16 bits: d = 1 and p > 2**15
                return lanes % p
            out = chunk[lanes & mask]
            for k in range(c, d, c):
                out += chunk[(lanes >> (k * w)) & mask] * p**k
            return out

        pos = seed_count
        while pos < Qm1:
            cnt = min(_BLOCK, Qm1 - pos)
            hi, lo = np.divmod(exp_v[pos - _BLOCK : pos - _BLOCK + cnt], p**h)
            exp_v[pos : pos + cnt] = to_packed(t_lo[lo] + t_hi[hi])
            pos += cnt

    # wrap-around: alpha**(Q-1) must be 1
    if pack_digits(times_alpha(digits_of(exp2[Qm1 - 1], p, d)), p) != 1:
        raise FieldError("modulus is not primitive (alpha**(Q-1) != 1)")

    steps = np.arange(_BLOCK, dtype=np.int32)
    for s in range(0, Qm1, _BLOCK):
        block = exp_v[s : s + _BLOCK]
        log_v[block] = steps[: len(block)] + s
    for s in range(0, Qm1, _BLOCK):
        block = exp_v[s : s + _BLOCK]
        if not block.all() or (log_v[block] != steps[: len(block)] + s).any():
            raise FieldError(
                "modulus is not primitive over F_{}: powers of alpha do not "
                "enumerate all nonzero residues".format(p)
            )

    zech = None
    if p > 2:
        zech = array("i", [0]) * Qm1
        zech_v = np.frombuffer(zech, dtype=np.int32)
        for s in range(0, Qm1, _BLOCK):
            block = exp_v[s : s + _BLOCK]
            # alpha**l + 1 adds 1 to digit 0 mod p; log[0] = -1 marks it zero
            zech_v[s : s + len(block)] = log_v[np.where(block % p == p - 1, block + 1 - p, block + 1)]

    exp2_v[Qm1:] = exp_v
    return exp2, log, zech


# --------------------------------------------------------------------------
# the tower
# --------------------------------------------------------------------------

class FieldTower:
    """Arithmetic for F_{q^m} = F_p[x]/(f) with intermediate subfield F_q."""

    def __init__(self, p: int, e: int, m: int, modulus=None, backend: str | None = None):
        if not _is_prime(p):
            raise FieldError(f"p = {p} is not prime")
        if e < 1 or m < 1:
            raise FieldError("e and m must be >= 1")
        self.p = p
        self.e = e
        self.m = m
        self.d = e * m
        self.q = p**e
        self.Q = p**self.d
        self.Qm1 = self.Q - 1

        if backend is None:
            backend = _default_backend(p, self.d)
        if backend not in ("table", "generic"):
            raise FieldError(f"unknown backend {backend!r}")
        if backend == "table" and self.Q > TABLE_LIMIT:
            raise FieldError(f"table backend needs p**d <= {TABLE_LIMIT}, not {p}**{self.d}")
        self.backend = backend

        if modulus is None:
            modulus = default_modulus(p, self.d)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != self.d + 1 or modulus[-1] != 1:
            raise FieldError(
                f"modulus must be monic of degree {self.d} "
                f"(little-endian coefficient list of length {self.d + 1})"
            )
        self.modulus = modulus

        self._exp = self._log = self._zech = None
        if backend == "table":
            self._exp, self._log, self._zech = _build_tables(p, self.d, modulus)
            self.alpha = self._exp[1] if self.Qm1 > 1 else 1
        else:
            self.alpha = p if self.d > 1 else (-modulus[0]) % p
            self._mod_packed = pack_digits(modulus, p)
            self._frob_rows: dict[int, list[int]] = {}  # j -> rows of M_j, built on first use
            self._init_lanes()
            if not self._x_is_primitive():
                raise FieldError("modulus is not primitive")

        self._half = self.Qm1 // 2  # log of -1 when p is odd
        self._norm_exp = self.Qm1 // (self.q - 1)
        self.gamma = self.alpha_pow(self._norm_exp) if self.e >= 1 else 1

        self.zero = 0
        self.one = 1

    # -- identity / caching ------------------------------------------------

    @property
    def key(self):
        return (self.p, self.e, self.m, self.modulus)

    def __eq__(self, other):
        return isinstance(other, FieldTower) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"FieldTower(p={self.p}, e={self.e}, m={self.m}, backend={self.backend!r})"

    # -- element validation / conversion ------------------------------------

    def check(self, a: int) -> int:
        a = int(a)
        if not 0 <= a < self.Q:
            raise FieldError(f"packed value {a} out of range for {self!r}")
        return a

    def coeffs(self, a: int) -> tuple[int, ...]:
        return tuple(digits_of(self.check(a), self.p, self.d))

    def from_coeffs(self, coeffs) -> int:
        coeffs = [int(c) for c in coeffs]
        if len(coeffs) > self.d:
            raise FieldError(f"coefficient vector longer than degree {self.d}")
        coeffs += [0] * (self.d - len(coeffs))
        if any(not 0 <= c < self.p for c in coeffs):
            raise FieldError("coefficients must lie in [0, p)")
        return pack_digits(coeffs, self.p)

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self._exp is not None:
            if a == 0:
                return b
            if b == 0:
                return a
            la = self._log[a]
            lb = self._log[b]
            diff = lb - la
            if diff < 0:
                diff += self.Qm1
            z = self._zech[diff]
            if z < 0:
                return 0
            return self._exp[la + z]
        return self._from_lanes(self._apply(self._units, a) + self._apply(self._units, b), self.d)

    def neg(self, a: int) -> int:
        if self.p == 2 or a == 0:
            return a
        if self._exp is not None:
            return self._exp[self._log[a] + self._half]
        # -c = (p - 1)c mod p
        return self._from_lanes((self.p - 1) * self._apply(self._units, a), self.d)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        if self.p == 2:
            return self._gmul2(a, b)
        # Kronecker product of the spread operands; its lanes d..2d-2 are
        # the digits of x^d..x^(2d-2), which fold back through _fold
        d = self.d
        wd = self._lane_bits * d
        prod = self._apply(self._units, a) * self._apply(self._units, b)
        high = self._from_lanes(prod >> wd, d - 1)
        return self._from_lanes((prod & ((1 << wd) - 1)) + self._apply(self._fold, high), d)

    def _gmul2(self, a: int, b: int) -> int:
        d = self.d
        mod = self._mod_packed
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if (a >> d) & 1:
                a ^= mod
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("field inverse of zero")
        if self._exp is not None:
            return self._exp[self.Qm1 - self._log[a]]
        # Itoh-Tsujii: b = a^(p + p^2 + ... + p^(d-1)) is a product of
        # Frobenius images, so n = a*b = a^((Q-1)/(p-1)) is the norm of a down
        # to F_p, a nonzero constant, and a^-1 = b * n^-1 with n^-1 = n^(p-2).
        # b = s^p for s = s_(d-1), s_k = a^(1 + p + ... + p^(k-1)), reached
        # along the bits of d-1 by s_2k = s_k * s_k^(p^k), s_(k+1) = a * s_k^p.
        p, d = self.p, self.d
        b = 1
        if d > 1:
            s, k = a, 1
            for bit in bin(d - 1)[3:]:
                s, k = self.mul(s, self._frob_map(s, k)), 2 * k
                if bit == "1":
                    s, k = self.mul(a, self._frob_map(s, 1)), k + 1
            b = self._frob_map(s, 1)
        n = self.mul(a, b)
        if not 0 < n < p:
            raise FieldError(f"norm of {a} to F_{p} is {n}, not a nonzero constant")
        return b if n == 1 else self.mul(b, pow(n, p - 2, p))

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k < 0:
                raise ZeroDivisionError("field inverse of zero")
            return 0 if k else 1
        k %= self.Qm1
        if self._exp is not None:
            return self._exp[self._log[a] * k % self.Qm1]
        return self._powmod(a, k)

    def _powmod(self, a: int, k: int) -> int:
        """a**k for k >= 0 by square-and-multiply through mul, with k not
        reduced mod Q - 1 (so it also serves before f is known primitive)."""
        result = 1
        while k:
            if k & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            k >>= 1
        return result

    def alpha_pow(self, k: int) -> int:
        if self.Qm1 == 1:
            return 1
        if self._exp is not None:
            return self._exp[k % self.Qm1]
        return self.pow(self.alpha, k)

    # -- generic backend: digit lanes and the primitivity proof -------------

    def _init_lanes(self) -> None:
        """Digit lanes of the generic backend at odd p.

        a = sum c_i x^i is spread as sum c_i 2^(w*i), one w-bit lane per
        digit, so integer + and * act on every digit at once and lanes are
        reduced mod p only when read back (_from_lanes).  That is exact as
        long as no lane exceeds 2^w - 1 and carries into the next.  w is the
        bit length of (2d - 1)(p - 1)^2, which bounds every lane formed:

        * a product of two spread elements: lane k is sum_{i+j=k} a_i b_j,
          at most d terms of at most (p - 1)^2;
        * plus its d - 1 high lanes, read back mod p and folded through the
          rows _fold, whose lanes are below p: (d - 1)(p - 1)^2 more;
        * a Frobenius image, d rows times digits: d(p - 1)^2;
        * a sum 2(p - 1) and a negation (p - 1)^2, both within the bound for
          p >= 3, and a step of the _fold build below, (p - 1) + (p - 1)^2,
          which only d >= 2 takes.

        Lanes are nonnegative, so a shift and a mask read one.  _units[i] =
        x^i, so _apply(_units, a) spreads a; _fold[j] = x^(d+j) mod f for
        0 <= j < d - 1.  p = 2 keeps its XOR paths and reads none of this."""
        p, d = self.p, self.d
        w = self._lane_bits = ((2 * d - 1) * (p - 1) ** 2).bit_length()
        self._units = [1 << (w * i) for i in range(d)]
        xd = self._apply(self._units, pack_digits([-c % p for c in self.modulus[:d]], p))
        self._fold, row = [], xd
        for _ in range(d - 1):
            self._fold.append(row)
            row <<= w  # times x: lane d holds the digit of x^d, which is xd
            row = self._apply(self._units, self._from_lanes(
                (row & ((1 << (w * d)) - 1)) + (row >> (w * d)) * xd, d))

    def _apply(self, rows, a: int) -> int:
        """sum c_i * rows[i] over the base-p digits c_i of a."""
        p = self.p
        acc = 0
        for row in rows:
            a, c = divmod(a, p)
            if c:
                acc += c * row
        return acc

    def _from_lanes(self, acc: int, count: int) -> int:
        """The packed element whose digits are lanes 0..count-1 of acc mod p."""
        p, w = self.p, self._lane_bits
        mask = (1 << w) - 1
        out = 0
        for shift in range(w * (count - 1), -1, -w):
            out = out * p + ((acc >> shift) & mask) % p
        return out

    def _x_is_primitive(self) -> bool:
        """Whether x = alpha has order Q - 1 modulo f, that is f is
        primitive: x**(Q-1) = 1 and x**((Q-1)/l) != 1 for each prime l | Q-1.

        The order test alone also proves f irreducible.  R = F_p[x]/(f) has Q
        elements, and 0 is not a unit, so R has at most Q - 1 units.  If x has
        order Q - 1, its powers are Q - 1 distinct units, so every nonzero
        residue is a unit and R is a field: f is irreducible (a proper factor
        of f would be a nonzero non-unit), and x generates the multiplicative
        group.  mul and _powmod compute in R whether or not it is a field."""
        qm1 = self.Qm1
        if self._powmod(self.alpha, qm1) != 1:
            return False
        return all(self._powmod(self.alpha, qm1 // ell) != 1 for ell in _prime_factors(qm1))

    # -- Frobenius / norms / subfields ---------------------------------------

    def frob_p(self, a: int, j: int) -> int:
        """a ** (p**j); j taken mod d."""
        j %= self.d
        if a == 0 or j == 0:
            return a
        if self._exp is not None:
            return self._exp[self._log[a] * pow(self.p, j, self.Qm1) % self.Qm1]
        return self._frob_map(a, j)

    def _frob_map(self, a: int, j: int) -> int:
        """a ** (p**j) for 0 < j < d on the generic backend, as a digit vector
        times the matrix M_j.  Frobenius fixes F_p and is additive, so for
        a = sum c_i alpha^i it sends a to sum c_i beta^i with beta =
        alpha^(p^j): row i of M_j is beta^i.  At p = 2 a row is its packed
        value and the product is the XOR of the rows at a's set bits.  At odd
        p a row is beta^i in lanes, and the digit-weighted sum of the rows is
        read back mod p (see _init_lanes)."""
        rows = self._frob_rows.get(j)
        if rows is None:
            rows = self._frob_rows[j] = self._build_frob_rows(j)
        if self.p == 2:
            out = i = 0
            while a:
                if a & 1:
                    out ^= rows[i]
                a >>= 1
                i += 1
            return out
        return self._from_lanes(self._apply(rows, a), self.d)

    def _build_frob_rows(self, j: int) -> list[int]:
        """Rows beta^0, ..., beta^(d-1) of M_j, beta = alpha^(p^j): one pow
        and d-1 multiplications; at odd p each row in lanes."""
        p, d = self.p, self.d
        beta = self.pow(self.alpha, p**j)
        rows = [1]
        for _ in range(d - 1):
            rows.append(self.mul(rows[-1], beta))
        if p == 2:
            return rows
        return [self._apply(self._units, row) for row in rows]

    def frob_q(self, a: int, r: int) -> int:
        """a ** (q**r); r taken mod m."""
        return self.frob_p(a, (self.e * (r % self.m)) % self.d)

    def norm_q(self, a: int) -> int:
        """Norm of F_{q^m} over F_q: a ** ((q^m - 1)/(q - 1)).  norm(0) = 0."""
        return self.pow(a, self._norm_exp)

    def in_subfield_q(self, a: int) -> bool:
        return self.frob_q(a, 1) == a

    def in_subfield(self, a: int, s: int) -> bool:
        """Membership in F_{q^s} (requires s | m)."""
        if self.m % s:
            raise FieldError(f"F_(q^{s}) is not a subfield: {s} does not divide m={self.m}")
        return self.frob_q(a, s) == a

    def subfield_element(self, size: int, idx: int) -> int:
        """idx-th element of the subfield with `size` elements (0 first,
        then consecutive powers of its generator).  size - 1 must divide Q - 1
        with the subfield degree dividing d."""
        if size < 2 or self.Qm1 % (size - 1):
            raise FieldError(f"no subfield of size {size}")
        if idx == 0:
            return 0
        step = self.Qm1 // (size - 1)
        return self.alpha_pow((idx - 1) * step)

    # -- randomness -----------------------------------------------------------

    def random_element(self, rng) -> int:
        return rng.randbelow(self.Q)

    def random_nonzero(self, rng) -> int:
        return 1 + rng.randbelow(self.Qm1) if self.Qm1 > 1 else 1


# --------------------------------------------------------------------------
# parsing, serialization
# --------------------------------------------------------------------------

def parse_element(field: FieldTower, token: str) -> int:
    """Parse one element: '0', '1', 'a'/'alpha' (optionally with '^k'), or a
    colon-separated little-endian coefficient vector 'c0:c1:...'."""
    tok = token.strip()
    if tok in ("0", "1"):
        return int(tok)
    low = tok.lower().replace("α", "a")  # accept the Greek letter
    if low in ("a", "alpha"):
        return field.alpha
    for prefix in ("alpha^", "a^"):
        if low.startswith(prefix):
            return field.alpha_pow(int(low[len(prefix) :]))
    if ":" in tok:
        return field.from_coeffs([int(c) for c in tok.split(":")])
    raise FieldError(f"cannot parse field element {token!r}")


def format_element(field: FieldTower, a: int) -> str:
    return ":".join(str(c) for c in field.coeffs(a))


def field_to_dict(field: FieldTower) -> dict:
    return {
        "p": field.p,
        "e": field.e,
        "m": field.m,
        "modulus": list(field.modulus),
    }


def field_from_dict(data: dict) -> FieldTower:
    return make_field(
        int(data["p"]), int(data["e"]), int(data["m"]),
        modulus=tuple(int(c) for c in data["modulus"]),
    )


# --------------------------------------------------------------------------
# automorphisms
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GaloisAut:
    """sigma_r : a -> a^(q^r), an element of Gal(F_{q^m} / F_q)."""

    field: FieldTower
    r: int

    def __post_init__(self):
        object.__setattr__(self, "r", self.r % self.field.m)

    def __call__(self, a: int) -> int:
        return self.field.frob_q(a, self.r)

    def on_vector(self, v) -> tuple[int, ...]:
        f, r = self.field, self.r
        return tuple(f.frob_q(a, r) for a in v)

    def power(self, i: int) -> "GaloisAut":
        return GaloisAut(self.field, self.r * i)


@dataclass(frozen=True)
class FullAut:
    """tau_j : a -> a^(p^j), an element of Aut(F_{q^m}) (order d = e*m)."""

    field: FieldTower
    j: int

    def __post_init__(self):
        object.__setattr__(self, "j", self.j % self.field.d)

    def __call__(self, a: int) -> int:
        return self.field.frob_p(a, self.j)

    def on_vector(self, v) -> tuple[int, ...]:
        f, j = self.field, self.j
        return tuple(f.frob_p(a, j) for a in v)


def galois_generators(m: int) -> list[int]:
    """Exponents r for which a -> a^(q^r) generates Gal(F_{q^m}/F_q)."""
    return [r for r in range(1, m) if math.gcd(r, m) == 1] or ([0] if m == 1 else [])


# --------------------------------------------------------------------------
# construction cache
# --------------------------------------------------------------------------

_FIELD_CACHE: dict[tuple, FieldTower] = {}


def make_field(p: int, e: int, m: int, modulus=None, backend: str | None = None) -> FieldTower:
    """Construct (or fetch from cache) the tower F_p <= F_{p^e} <= F_{p^(e*m)}.

    modulus: optional little-endian coefficient list of a monic primitive
    polynomial of degree e*m (leading 1 included).  Default: the
    primitive polynomial that default_modulus() picks.
    """
    if modulus is not None:
        modulus = tuple(int(c) for c in modulus)
    if backend is None:
        # the choice FieldTower makes, so both spellings share one object
        backend = _default_backend(p, e * m)
    key = (p, e, m, modulus, backend)
    cached = _FIELD_CACHE.get(key)
    if cached is None:
        cached = FieldTower(p, e, m, modulus=modulus, backend=backend)
        _FIELD_CACHE[key] = cached
        # alias the resolved-modulus key so explicit-default hits the cache too
        _FIELD_CACHE.setdefault((p, e, m, cached.modulus, backend), cached)
    return cached
