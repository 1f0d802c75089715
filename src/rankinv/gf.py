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

* ``table``   -- exp/log/Zech-log tables (built once with numpy and cached);
                 selected automatically when Q <= TABLE_LIMIT.  Building the
                 exp table doubles as a proof that f is primitive: the powers
                 of alpha must enumerate every nonzero residue exactly once.
* ``generic`` -- direct polynomial arithmetic on packed ints; no tables.
                 Used for larger fields and to cross-check the table backend.
                 Primitivity of f is proved by the order of x alone: x**(Q-1)
                 = 1 and x**((Q-1)/l) != 1 for each prime l | Q-1, which also
                 forces f irreducible (see _is_primitive); sympy is used only
                 to factor Q-1.  a -> a**(p**j) is F_p-linear, so
                 it is the coefficient vector times a d x d matrix over F_p,
                 built from alpha**(p**j) the first time j is asked for.  The
                 inverse is Itoh-Tsujii: a**(p + ... + p**(d-1)) as a product
                 of Frobenius images, divided by the norm of a down to F_p.

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

import numpy as np

TABLE_LIMIT = 1 << 23


class FieldError(ValueError):
    """Invalid field construction or field-element operation."""


# --------------------------------------------------------------------------
# small helpers
# --------------------------------------------------------------------------

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


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


# --------------------------------------------------------------------------
# dense little-endian polynomial arithmetic over F_p (search + generic backend)
# --------------------------------------------------------------------------

def _poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    """a mod mod, with mod monic.  Both little-endian; a is consumed."""
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
        else:
            a[i] = 0
    del a[dm:]
    while len(a) < dm:
        a.append(0)
    return a


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else [0]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_mod(out, mod, p)


def _poly_powmod(base: list[int], exp: int, mod: list[int], p: int) -> list[int]:
    dm = len(mod) - 1
    result = [1] + [0] * (dm - 1)
    cur = _poly_mod(list(base), mod, p)
    while exp:
        if exp & 1:
            result = _poly_mulmod(result, cur, mod, p)
        cur = _poly_mulmod(cur, cur, mod, p)
        exp >>= 1
    return result


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors; sympy handles the big composites lazily."""
    from sympy import factorint

    return sorted(factorint(n).keys())


def _is_primitive(mod: list[int], p: int) -> bool:
    """Monic f of degree d >= 1 is primitive iff x has order Q - 1 = p**d - 1
    modulo f: x**(Q-1) = 1 and x**((Q-1)/l) != 1 for each prime l | Q-1.

    The order test alone also proves f irreducible.  R = F_p[x]/(f) has Q
    elements, and 0 is not a unit, so R has at most Q - 1 units.  If x has
    order Q - 1, its powers are Q - 1 distinct units, so every nonzero residue
    is a unit and R is a field: f is irreducible (a proper factor of f would
    be a nonzero non-unit), and x generates the multiplicative group."""
    d = len(mod) - 1
    qm1 = p**d - 1
    one = [1] + [0] * (d - 1)
    if _poly_powmod([0, 1], qm1, mod, p) != one:
        return False
    return all(_poly_powmod([0, 1], qm1 // ell, mod, p) != one for ell in _prime_factors(qm1))


# Lexicographically least (smallest packed value of the non-leading
# coefficients) monic primitive polynomial per (p, degree).  These are the
# output of default_modulus' own search, frozen for speed; tests re-derive a
# sample and cross-check primitivity independently.  The degree-1 entries
# let linalg build the prime fields behind rank_p and nullspace_p without
# the search, whose factoring of Q-1 imports sympy.
_KNOWN_MODULI: dict[tuple[int, int], int] = {
    (2, 1): 1, (3, 1): 1, (5, 1): 3, (7, 1): 4,
    (2, 2): 3, (2, 3): 3, (2, 4): 3, (2, 5): 5, (2, 6): 3, (2, 7): 3,
    (2, 8): 29, (2, 9): 17, (2, 10): 9, (2, 12): 83, (2, 14): 43,
    (2, 15): 3, (2, 16): 45, (2, 20): 9,
    (3, 2): 5, (3, 3): 7, (3, 4): 5, (3, 5): 7, (3, 6): 5, (3, 7): 16,
    (3, 8): 29, (3, 10): 32, (3, 12): 215, (3, 14): 5, (3, 16): 116,
}


def default_modulus(p: int, d: int) -> tuple[int, ...]:
    """Deterministic default: the monic primitive polynomial of degree d over
    F_p whose packed non-leading coefficient vector (c_0 + c_1 p + ...) is
    least.  Returned little-endian with the leading 1 included."""
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

def _build_tables(p: int, d: int, modulus: tuple[int, ...]):
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

        if modulus is None:
            modulus = default_modulus(p, self.d)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != self.d + 1 or modulus[-1] != 1:
            raise FieldError(
                f"modulus must be monic of degree {self.d} "
                f"(little-endian coefficient list of length {self.d + 1})"
            )
        self.modulus = modulus

        if backend is None:
            backend = "table" if self.Q <= TABLE_LIMIT else "generic"
        if backend not in ("table", "generic"):
            raise FieldError(f"unknown backend {backend!r}")
        self.backend = backend

        self._exp = self._log = self._zech = None
        if backend == "table":
            self._exp, self._log, self._zech = _build_tables(p, self.d, modulus)
            self.alpha = self._exp[1] if self.Qm1 > 1 else 1
        else:
            if not _is_primitive(list(modulus), p):
                raise FieldError("modulus is not primitive")
            self.alpha = p if self.d > 1 else (-modulus[0]) % p
            self._mod_packed = pack_digits(modulus, p)
            self._frob_rows: dict[int, list[int]] = {}  # j -> rows of M_j, built on first use
            # odd p: digit-lane width that holds a sum of d digit products
            self._lane_bits = (self.d * (p - 1) ** 2).bit_length()

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
        p = self.p
        out = 0
        mul = 1
        while a or b:
            a, ca = divmod(a, p)
            b, cb = divmod(b, p)
            out += ((ca + cb) % p) * mul
            mul *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2 or a == 0:
            return a
        if self._exp is not None:
            return self._exp[self._log[a] + self._half]
        p = self.p
        out = 0
        mul = 1
        while a:
            a, c = divmod(a, p)
            out += ((-c) % p) * mul
            mul *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        if self.p == 2:
            return self._gmul2(a, b)
        da = digits_of(a, self.p, self.d)
        db = digits_of(b, self.p, self.d)
        prod = _poly_mulmod(da, db, list(self.modulus), self.p)
        return pack_digits(prod, self.p)

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
        result = 1
        cur = a
        while k:
            if k & 1:
                result = self.mul(result, cur)
            cur = self.mul(cur, cur)
            k >>= 1
        return result

    def alpha_pow(self, k: int) -> int:
        if self.Qm1 == 1:
            return 1
        if self._exp is not None:
            return self._exp[k % self.Qm1]
        return self.pow(self.alpha, k)

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
        p a row holds its digits in lanes of _lane_bits bits, wide enough
        that the digit-weighted sum of all d rows cannot carry between lanes;
        the sum is reduced mod p lane by lane once, at the end."""
        rows = self._frob_rows.get(j)
        if rows is None:
            rows = self._frob_rows[j] = self._build_frob_rows(j)
        p = self.p
        if p == 2:
            out = i = 0
            while a:
                if a & 1:
                    out ^= rows[i]
                a >>= 1
                i += 1
            return out
        acc = 0
        for row in rows:
            a, c = divmod(a, p)
            if c:
                acc += c * row
        w = self._lane_bits
        mask = (1 << w) - 1
        out = 0
        for shift in range(w * (self.d - 1), -1, -w):
            out = out * p + ((acc >> shift) & mask) % p
        return out

    def _build_frob_rows(self, j: int) -> list[int]:
        """Rows beta^0, ..., beta^(d-1) of M_j, beta = alpha^(p^j): one pow
        and d-1 multiplications; at odd p each row in digit lanes."""
        p, d = self.p, self.d
        beta = self.pow(self.alpha, p**j)
        rows = [1]
        for _ in range(d - 1):
            rows.append(self.mul(rows[-1], beta))
        if p == 2:
            return rows
        w = self._lane_bits
        return [sum(c << (w * i) for i, c in enumerate(digits_of(row, p, d))) for row in rows]

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
    lexicographically least primitive polynomial, see default_modulus().
    """
    if modulus is not None:
        modulus = tuple(int(c) for c in modulus)
    key = (p, e, m, modulus, backend)
    cached = _FIELD_CACHE.get(key)
    if cached is None:
        cached = FieldTower(p, e, m, modulus=modulus, backend=backend)
        _FIELD_CACHE[key] = cached
        # alias the resolved-modulus key so explicit-default hits the cache too
        _FIELD_CACHE.setdefault((p, e, m, cached.modulus, backend), cached)
    return cached
