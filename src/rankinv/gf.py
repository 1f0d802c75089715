"""Finite-field towers F_p <= F_q <= F_{q^m} for rank-metric computations.

The extension is realized as F_p[x]/(f) for a monic *primitive* polynomial f
of degree d = e*m, so q = p**e and the big field has Q = p**d elements.
Field elements are plain Python ints packing the little-endian coefficient
vector (c_0, ..., c_{d-1}) in base p:

    value = sum(c_i * p**i),  0 <= c_i < p.

``alpha`` (the residue class of x) is primitive: every nonzero element is a
power of alpha.  All arithmetic lives on the FieldTower object and operates
on packed ints.

Three interchangeable arithmetic backends exist:

* ``table``   -- exp/log/Zech-log tables in int32 arrays, cached; selected
                 automatically when Q <= _DEFAULT_TABLE_LIMIT (2**15),
                 built on request up to TABLE_LIMIT (2**20), and refused
                 above it.  One walk over the powers of alpha fills them in
                 plain Python (see _build_tables).  p = 2 keeps no Zech
                 table, since addition there is XOR.
* ``tower``   -- even d = 2d' with Q' = p**d' <= TABLE_LIMIT, the default
                 when Q > 2**15 >= Q'.  Packed arithmetic is the generic
                 backend's; codes.build, linalg's elimination and
                 codes.Differences work on logs (the row form: log + 1, 0
                 for 0), each log read off tables of F_{Q'} built on first
                 row use.  A code is made in the row form: Frobenius
                 multiplies each log by p**j (frob_q_row), and only the
                 generator is packed.
* ``generic`` -- direct arithmetic on packed ints; no field-sized tables.
                 Used for the other large fields and to cross-check the
                 table backend.  At p = 2 addition is XOR and multiplication
                 shift-and-XOR.  At odd p every operation works on the
                 digits spread into the lanes of one int (see
                 FieldTower._init_lanes), and multiplication is one
                 Kronecker product folded back through x**(d+j) mod f.
                 Every F_p-linear map on digits (the spread itself, the
                 fold, and a -> a**(p**j), built from alpha**(p**j) the
                 first time j is asked for) is applied a chunk of digits at
                 a time through small tables, and lanes are read back a few
                 at a time through one table per (p, lane width).  The
                 inverse is Itoh-Tsujii: a**(p + ... + p**(d-1)) as a
                 product of Frobenius images, divided by the norm of a down
                 to F_p; the row kernel of the elimination never takes one.

Each backend has one row kernel (FieldTower.row_reduce), and a twist
(row_add) is one call of it (_row_step).  On table and tower fields a
difference row (frob_q_diffs) is one call too, so every sum of the row form,
in elimination, a twist or a difference, is the one Zech step written out in
_reduce_logs_zech (table, odd p; XOR at p = 2) or _reduce_tower; the generic
backend keeps a fused difference row.

Every backend takes one proof that f is primitive: the order test of x
(FieldTower._x_is_primitive, Q-1 factored by trial division and Pollard-Brent
in numtheory._prime_factors).  Every tower runs it on itself, with the
generic kernels, before it builds any table; the modulus search runs it
through _is_primitive.

The tower backend's identities, with R = Q' + 1, beta = alpha**R, logs to
base alpha and half = log(-1), which is (Q-1)/2 at odd p and 0 at p = 2:

* beta has order Q' - 1 (alpha has order R(Q' - 1)), so it generates the
  units of F_{Q'}, which are the alpha**k with R | k, and its minimal
  polynomial g is primitive of degree d': F_{Q'} = F_p[y]/(g), y = beta.
* alpha is not in F_{Q'}, so x = x0 + x1*alpha with x0, x1 in F_{Q'},
  F_p-linearly (beta**i * alpha**b is digit i of x_b), and alpha**2 =
  T*alpha - N with T = alpha + alpha**Q' and N = alpha**(Q'+1) = beta in
  F_{Q'}, as alpha**Q' is alpha's conjugate over F_{Q'}.
* Coset split: k = R*s + r, 0 <= r < R, gives alpha**k = beta**s *
  alpha**r, alpha**r = a0(r) + a1(r)*alpha, and a1(r) = 0 only at r = 0.
  The walk (a0 + a1*alpha)*alpha = -N*a1 + (a0 + T*a1)*alpha steps r with
  subfield operations alone.
* x != 0 has log R*log_beta(x0) when x1 = 0, else R*log_beta(x1) + L[u]
  with u = x0/x1 and L[u] = log(u + alpha).  At 0 < r < R, alpha**r =
  a1(r)*(u + alpha) with u = a0(r)/a1(r), so the walk sets L[u] =
  r - R*log_beta(a1(r)); every u comes up, as u + alpha, not in F_{Q'}, is
  beta**s * alpha**r with r != 0.
* 1 + alpha**k = (1 + beta**s*a0(r)) + beta**s*a1(r)*alpha, so its log
  Z(k) is a few subfield lookups and the rule above (none when both
  coordinates vanish).  For a = alpha**la, a + alpha**lt = alpha**(la +
  Z(lt - la)), and log(a**(p**j)) = p**j * la.

The intermediate subfield F_q is generated by gamma = alpha**((Q-1)//(q-1)).
Automorphism conventions used across the package:

* GaloisAut(field, r):  a -> a**(q**r), the Galois group of F_{q^m}/F_q
  (cyclic of order m; generators are the r coprime to m).
* FullAut(field, j):    a -> a**(p**j), the full automorphism group of
  F_{q^m} (cyclic of order d = e*m).
"""

from __future__ import annotations

import functools
import operator
from array import array
from collections import namedtuple

from .base import Record, _set
from .numtheory import _is_prime, _prime_factors
from .numtheory import galois_generators  # noqa: F401 (re-exported)

TABLE_LIMIT = 1 << 20  # the largest field the table backend builds on request
_DEFAULT_TABLE_LIMIT = 1 << 15  # the largest field that takes tables by default


def _default_backend(p: int, d: int) -> str:
    """The backend of a field with p**d elements when none is asked for (d
    is clamped at 0, so invalid input reaches FieldTower's own checks)."""
    if p ** max(d, 0) <= _DEFAULT_TABLE_LIMIT:
        return "table"
    return "tower" if d % 2 == 0 and p ** (d // 2) <= _DEFAULT_TABLE_LIMIT else "generic"


class FieldError(ValueError):
    """Invalid field construction or field-element operation."""


# --------------------------------------------------------------------------
# small helpers
# --------------------------------------------------------------------------

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


def _is_primitive(mod, p: int) -> bool:
    """Whether the monic f = mod (little-endian, leading 1 included) is
    primitive over F_p, for the modulus search: the order test of
    FieldTower._x_is_primitive, run by building the generic field on f.  A
    tower given its modulus runs that test on itself first in __init__."""
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

def _build_tables(p: int, d: int, modulus: tuple[int, ...]):
    """exp/log/zech arrays for F_p[x]/(modulus), which must be primitive.

    Returns (exp2, log, zech) as array('i'): exp2 has length 2*(Q-1) (the
    exponent table repeated so products of logs need no reduction), log has
    length Q with log[0] = -1, zech[l] = log(alpha**l + 1) with -1 when
    alpha**l + 1 = 0.  zech is None at p = 2, where addition is XOR.

    One walk gives the packed powers alpha**0, ..., alpha**(Q-2), one
    multiplication by x per step: at p = 2 a shift and an XOR by the packed
    f, at odd p the digit list shifted up and the top digit t times -f added
    in, packed as it goes.  Plain loops fill the arrays from them.

    The build checks no primitivity: the order test (_x_is_primitive), the
    one proof for both backends, runs first in FieldTower.__init__, on the
    tower being built.  It makes the Q - 1 powers of alpha every nonzero
    residue exactly once, so log inverts exp.
    """
    Q = p**d
    powers, cur = [], 1
    if p == 2:
        mod, top = pack_digits(modulus, 2), 1 << d
        for _ in range(Q - 1):
            powers.append(cur)
            cur <<= 1
            if cur & top:
                cur ^= mod
    else:
        neg_mod = [(-c) % p for c in modulus[:d]]
        weights = [p**i for i in range(d)]
        digits = [1] + [0] * (d - 1)
        for _ in range(Q - 1):
            powers.append(cur)
            t = digits.pop()
            digits.insert(0, 0)
            if t:
                digits = [(a + t * c) % p for a, c in zip(digits, neg_mod)]
                cur = sum(map(operator.mul, digits, weights))
            else:
                cur *= p  # a shift alone, with no digit to reduce
    log = array("i", [-1]) * Q
    for l, v in enumerate(powers):
        log[v] = l
    zech = None
    if p > 2:
        # alpha**l + 1 adds 1 to digit 0 mod p; log[0] = -1 marks it zero
        zech = array("i", [log[v + 1 if v % p < p - 1 else v + 1 - p] for v in powers])
    return array("i", powers) * 2, log, zech


# --------------------------------------------------------------------------
# chunk tables of the generic backend at odd p
# --------------------------------------------------------------------------

# A spread chunk takes the most digits k with p**k <= _CHUNK_ENTRIES (four
# at p = 3, 81 entries per table); a read-back lookup takes
# _READ_BITS // w lanes of w bits, but no more than the d lanes an element
# has.
_CHUNK_ENTRIES = 1 << 7
_READ_BITS = 16


class _Multiples:
    """The chunk table of one digit when p > _CHUNK_ENTRIES, too large to
    tabulate: entry c != 0 is c * row, or (p - c) * row when negated mod p."""

    __slots__ = ("row", "p")

    def __init__(self, row: int, p: int = 0):
        self.row, self.p = row, p

    def __getitem__(self, c: int) -> int:
        return (self.p - c if self.p else c) * self.row


class _Residues:
    """The read-back table of one lane wider than _READ_BITS, too wide to
    tabulate: entry v is v mod p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        self.p = p

    def __getitem__(self, v: int) -> int:
        return v % self.p


@functools.cache
def _lane_reader(p: int, w: int, lanes: int) -> list[int]:
    """The table that reads `lanes` lanes of w bits back per lookup: entry v
    is sum (lane i of v mod p) * p**i over them.  Built once per (p, w,
    lanes) and shared by every field with them."""
    digit = [v % p for v in range(1 << w)]
    table = digit
    for i in range(1, lanes):
        table = [hi + lo for hi in [c * p**i for c in digit] for lo in table]
    return table


# --------------------------------------------------------------------------
# logs of the tower backend
# --------------------------------------------------------------------------

_TowerLogs = namedtuple("_TowerLogs", "log exp R E0 E1 X0 L2 szech")


def _tower_logs(field: "FieldTower") -> _TowerLogs:
    """log (packed a to log a + 1, 0 for 0) and exp (its inverse) of the
    tower backend, by the identities of the module docstring, and the tables
    that they and the Zech step of FieldTower._reduce_tower read, with
    R = Q' + 1 and n = Q' - 1:

    * E0[r], E1[r]: log_beta of a0(r), a1(r), with 2n for 0, where the
      extended sexp holds 0 (lists: they index faster than arrays);
    * X0[i] = log_beta(1 + beta**i) + 2n for i < 2n, or 5n when that is 0,
      and 2n (log_beta(1) + 2n) for 2n <= i < 3n, so X0[s + E0[r]] - 2n is
      log_beta(x0) of 1 + beta**s * (a0(r) + a1(r)*alpha);
    * L2[i] = L[i mod n + 1] for i < 3n, and L[0] from 3n on, so that
      L2[X0[s + E0[r]] - l1] for 0 <= l1 < 2n is L at x0 / beta**l1, x0 = 0
      included;
    * szech: the subfield's Zech logs (_build_tables on g), repeated, -1
      for 0.

    L, indexed by log_beta(u) + 1 and 0 for u = 0, is the one log reads."""
    from .linalg import nullspace_p  # linalg builds on this module

    p, d, qm1 = field.p, field.d, field.Qm1
    dh, Qh = d // 2, p ** (d // 2)
    R, n = Qh + 1, Qh - 1
    # digit i of x0 + Qh*x1 goes to beta**i, digit dh + i to beta**i * alpha;
    # the inverse sends x**k to the coordinates of alpha**k, which are read
    # off the kernel vector (inverse column k, unit k) of (that map | -I)
    to_packed = [field.alpha_pow(R * i + b) for b in (0, 1) for i in range(dh)]
    cols = [digits_of(b, p, d) for b in to_packed]
    eqs = [[c[t] for c in cols] + [p - 1 if u == t else 0 for u in range(d)] for t in range(d)]
    packed = _linear_map(field, to_packed)
    coords = _linear_map(field, [pack_digits(v[:d], p) for v in nullspace_p(p, eqs, 2 * d)])
    # g: beta**dh = sum c_i beta**i gives g = y**dh - sum c_i y**i
    g = [-c % p for c in digits_of(coords(field.alpha_pow(R * dh)), p, dh)] + [1]
    sexp, slog, szech = _build_tables(p, dh, g)
    if p == 2:
        szech = array("i", [slog[v ^ 1] for v in sexp[:n]])
    szech *= 2  # indexed below 2n, like sexp
    half = n // 2 if p > 2 else 0  # log_beta(-1)
    lt = slog[coords(field.alpha_pow(2)) // Qh]  # log_beta(T); T != 0
    # L holds logs of F_Q, which pass 2**31 once Q' > 2**15 (on request)
    E0, E1, L = array("i", [0]) * R, array("i", [0]) * R, array("q", [0]) * (Qh + 1)
    l0, l1 = 0, -1  # alpha**0 = 1
    for r in range(R):
        E0[r], E1[r] = l0, l1
        if l1 < 0:
            l0, l1 = -1, l0
            continue
        L[(l0 - l1) % n + 1 if l0 >= 0 else 0] = (r - R * l1) % qm1
        t = l1 + lt  # log_beta(T*a1)
        if l0 >= 0:
            z = szech[(t - l0) % n]
            t = (l0 + z) % n if z >= 0 else -1
        l0, l1 = (l1 + 1 + half) % n, t % n if t >= 0 else -1

    def log(a: int) -> int:
        if not a:
            return 0
        x1, x0 = divmod(coords(a), Qh)
        if not x1:
            return R * slog[x0] + 1
        l1 = slog[x1]
        return (R * l1 + L[(slog[x0] - l1) % n + 1 if x0 else 0]) % qm1 + 1

    n2 = 2 * n
    E0, E1 = ([n2 if e < 0 else e for e in E] for E in (E0, E1))
    sexp += array("i", [0]) * n
    X0 = array("i", [z + n2 if z >= 0 else 5 * n for z in szech]) + array("i", [n2]) * n
    L2 = L[1 : n + 1] * 3 + array("q", [L[0]]) * (n2 + 1)

    def exp(la: int) -> int:
        if not la:
            return 0
        s, r = divmod(la - 1, R)
        return packed(sexp[s + E0[r]] + Qh * sexp[s + E1[r]])

    return _TowerLogs(log, exp, R, E0, E1, X0, L2, szech)


def _linear_map(field: "FieldTower", rows: list[int]):
    """The F_p-linear map on packed elements sending digit i to rows[i]: the
    XOR of rows at the set bits at p = 2, chunk tables in lanes at odd p."""
    if field.p == 2:
        return lambda a: functools.reduce(operator.xor,
                                          (r for i, r in enumerate(rows) if a >> i & 1), 0)
    tables = field._chunk_tables([field._apply(field._units, row) for row in rows])
    return lambda a: field._from_lanes(field._apply(tables, a), field.d)


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
        if backend not in ("table", "generic", "tower"):
            raise FieldError(f"unknown backend {backend!r}")
        if backend == "table" and self.Q > TABLE_LIMIT:
            raise FieldError(f"table backend needs p**d <= {TABLE_LIMIT}, not {p}**{self.d}")
        if backend == "tower" and (self.d % 2 or p ** (self.d // 2) > TABLE_LIMIT):
            raise FieldError(f"tower backend needs even d, p**(d/2) <= {TABLE_LIMIT}: {p}**{self.d}")
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

        # x mod f, packed: the digit 1 in place 1, or -f_0 at d = 1
        self.alpha = p if self.d > 1 else (-modulus[0]) % p
        self._mod_packed = pack_digits(modulus, p)
        self._frob_rows: dict[int, list] = {}  # j -> M_j, built on first use
        if p > 2:
            self._init_lanes()
        self._exp = self._log = self._zech = None  # mul takes the generic kernels until tables exist
        self._alpha_squares = [self.alpha]  # alpha**(2**i), i < the bit length of Q - 1
        for _ in range(self.Qm1.bit_length() - 1):
            self._alpha_squares.append(self.mul(self._alpha_squares[-1], self._alpha_squares[-1]))
        if not self._x_is_primitive():
            raise FieldError("modulus is not primitive")
        if backend == "table":
            self._exp, self._log, self._zech = _build_tables(p, self.d, modulus)

        self._half = self.Qm1 // 2 if p > 2 else 0  # log of -1
        self._norm_exp = self.Qm1 // (self.q - 1)
        self.gamma = self.alpha_pow(self._norm_exp)

        # the row kernel of linalg._insert_row, chosen once per field, and
        # whether it scales the reduced row by each pivot (fraction-free)
        if backend == "table":
            self.row_reduce = self._reduce_logs_xor if p == 2 else self._reduce_logs_zech
        elif backend == "tower":
            self.row_reduce = self._reduce_tower
        else:
            self.row_reduce = self._reduce_gf2 if p == 2 else self._reduce_lanes
        self.row_scales = backend == "generic" and p > 2

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
        coeffs = list(map(exact_int, coeffs))
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
        return self._from_lanes(self._apply(self._neg_units, a), self.d)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        if self.p == 2:
            return self._gmul2(a, b)
        return self._lane_product(self._apply(self._units, a) * self._apply(self._units, b))

    def _lane_product(self, prod: int) -> int:
        """The packed element of a Kronecker product of spread operands, or
        of a sum of two (_reduce_lanes).  Lanes d..2d-2 of prod are the
        digits of x^d..x^(2d-2); they are read back and fold through _fold."""
        d = self.d
        high = self._from_lanes(prod >> self._lane_bits * d, d - 1)
        return self._from_lanes((prod & self._low_mask) + self._apply(self._fold, high), d)

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

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k < 0:
                raise ZeroDivisionError("field inverse of zero")
            return 0 if k else 1
        k %= self.Qm1
        if self._exp is not None:
            return self._exp[self._log[a] * k % self.Qm1]
        result = 1  # square-and-multiply through mul
        while k:
            if k & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            k >>= 1
        return result

    def alpha_pow(self, k: int) -> int:
        k %= self.Qm1
        if self._exp is not None:
            return self._exp[k]
        return self._alpha_pow(k)

    def _alpha_pow(self, k: int) -> int:
        """alpha**k for 0 <= k <= Q - 1, the product of the _alpha_squares at
        the set bits of k (so it also serves before f is known primitive)."""
        result = 1
        for square in self._alpha_squares:
            if k & 1:
                result = self.mul(result, square)
            k >>= 1
        return result

    # -- generic backend: digit lanes and the primitivity proof -------------

    def _init_lanes(self) -> None:
        """Digit lanes of the generic backend at odd p.

        a = sum c_i x^i is spread as sum c_i 2^(w*i), one w-bit lane per
        digit, so integer + and * act on every digit at once and lanes are
        reduced mod p only when read back (_from_lanes).  That is exact as
        long as no lane exceeds 2^w - 1 and carries into the next.  w is the
        bit length of L = (3d - 1)(p - 1)^2, so every lane value up to L is
        below 2^w, and L bounds every lane formed:

        * a Kronecker product of two spread elements: lane k is
          sum_{i+j=k} a_i b_j, at most d terms of at most (p - 1)^2;
        * the fraction-free row step of _reduce_lanes sums two such
          products, pv * cur[j] and c * (-row[j]) with -row[j] kept spread,
          before one fold: at most 2d(p - 1)^2;
        * the fold (_lane_product) reads the d - 1 high lanes back mod p
          and adds them times the rows of _fold, whose lanes are below p:
          (d - 1)(p - 1)^2 more, so (2d - 1)(p - 1)^2 after one product
          (mul) and (3d - 1)(p - 1)^2 = L after the sum of two;
        * a Frobenius image, d rows times digits: d(p - 1)^2, and
          (d + 1)(p - 1)^2 with (p - 1) times a spread element added
          (frob_q_diffs), at most L since d >= 1;
        * a sum 2(p - 1) and a step of the _fold build below,
          (p - 1) + (p - 1)^2: each at most 2(p - 1)^2 <= L.

        Each read-back takes every lane mod p, and a lane below 2^w holds
        its exact value whatever w is, so no result depends on w.

        Lanes are nonnegative, so a shift and a mask read one, and a lookup
        in the table of _lane_reader reads min(_READ_BITS // w, d) of them
        at once (one lane mod p when w > _READ_BITS).  Every F_p-linear map
        applied to digits is kept as chunk tables (_chunk_tables) of its rows: _units of the rows x^i, so
        _apply(_units, a) spreads a and _apply(_neg_units, a) spreads -a;
        _fold of the rows x^(d+j) mod f, 0 <= j < d - 1; and each Frobenius
        matrix M_j (_frob_matrix).  p = 2
        keeps its XOR paths and builds none of this."""
        p, d = self.p, self.d
        w = self._lane_bits = ((3 * d - 1) * (p - 1) ** 2).bit_length()
        lanes = min(_READ_BITS // w, d)
        if lanes:
            read = _lane_reader(p, w, lanes)
        else:  # a lane wider than _READ_BITS is read alone
            read, lanes = _Residues(p), 1
        self._reader = (read, lanes, lanes * w, p**lanes, (1 << lanes * w) - 1)
        k = 1
        while p ** (k + 1) <= _CHUNK_ENTRIES:
            k += 1
        self._chunk = (k, p**k)
        low = self._low_mask = (1 << w * d) - 1
        ones = [1 << (w * i) for i in range(d)]
        self._units = self._chunk_tables(ones)
        self._neg_units = self._chunk_tables(ones, negate=True)
        xd = self._apply(self._units, pack_digits([-c % p for c in self.modulus[:d]], p))
        fold, row = [], xd
        for _ in range(d - 1):
            fold.append(row)
            row <<= w  # times x: lane d holds the digit of x^d, which is xd
            row = self._apply(self._units, self._from_lanes((row & low) + (row >> w * d) * xd, d))
        self._fold = self._chunk_tables(fold)

    def _chunk_tables(self, rows: list[int], negate: bool = False) -> list:
        """The F_p-linear map sending digit i to rows[i] as chunk tables, k
        digits per chunk (see _CHUNK_ENTRIES): entry c < p**k of table t is
        the sum of the digits c_i of c, or of -c_i mod p when negate, times
        rows[k*t + i].  Past _CHUNK_ENTRIES a chunk is one digit and its
        table multiplies."""
        p, k = self.p, self._chunk[0]
        if p > _CHUNK_ENTRIES:
            return [_Multiples(row, p if negate else 0) for row in rows]
        digits = [-c % p for c in range(p)] if negate else range(p)
        tables = []
        for s in range(0, len(rows), k):
            table = [0]
            for row in rows[s : s + k]:
                table = [c * row + t for c in digits for t in table]
            tables.append(table)
        return tables

    def _apply(self, tables: list, a: int) -> int:
        """sum c_i * rows[i] over the base-p digits c_i of a, for the chunk
        tables of rows: one divmod and one lookup per chunk of digits."""
        base = self._chunk[1]
        acc = 0
        for table in tables:
            a, c = divmod(a, base)
            if c:
                acc += table[c]
        return acc

    def _from_lanes(self, acc: int, count: int) -> int:
        """The packed element whose digits are lanes 0..count-1 of acc mod
        p; acc has no lane set from count on.  Lanes are read from the top
        in groups of `lanes` (_lane_reader), one lookup per group."""
        read, lanes, bits, base, mask = self._reader
        out = 0
        for shift in range(bits * ((count - 1) // lanes), -1, -bits):
            out = out * base + read[(acc >> shift) & mask]
        return out

    def _x_is_primitive(self) -> bool:
        """Whether x = alpha has order Q - 1 modulo f, that is f is
        primitive: x**(Q-1) = 1 and x**((Q-1)/l) != 1 for each prime l | Q-1.

        The order test alone also proves f irreducible.  R = F_p[x]/(f) has Q
        elements, and 0 is not a unit, so R has at most Q - 1 units.  If x has
        order Q - 1, its powers are Q - 1 distinct units, so every nonzero
        residue is a unit and R is a field: f is irreducible (a proper factor
        of f would be a nonzero non-unit), and x generates the multiplicative
        group.  mul and _alpha_pow compute in R whether or not it is a field."""
        qm1 = self.Qm1
        if self._alpha_pow(qm1) != 1:
            return False
        return all(self._alpha_pow(qm1 // ell) != 1 for ell in _prime_factors(qm1))

    # -- row kernels of linalg._insert_row -----------------------------------

    def row_entry(self, row, pc: int):
        """What row_reduce keeps of a basis row whose pivot pv, its first
        nonzero entry, is at pc: (pivot datum, [(j, datum of row[j]) for the
        nonzero row[j], j > pc]).  The table backend keeps log pv and the
        logs of the entries, the tower backend the row as it is (log + 1);
        the generic backend inv(pv) and the entries at p = 2, and at odd p
        pv and the negated entries -row[j] spread into lanes, one chunk
        lookup each, so that its fraction-free kernel takes no inverse."""
        tail = range(pc + 1, len(row))
        if self._exp is not None:
            log = self._log
            return log[row[pc]], [(j, log[row[j]]) for j in tail if row[j]]
        if self.backend == "tower":
            return row[pc], [(j, row[j]) for j in tail if row[j]]
        if self.p == 2:
            return self.inv(row[pc]), [(j, row[j]) for j in tail if row[j]]
        apply, neg_units = self._apply, self._neg_units
        return apply(self._units, row[pc]), [(j, apply(neg_units, row[j])) for j in tail if row[j]]

    # Each row_reduce(cur, c, entry) clears c = cur[pc] != 0, which the
    # caller has already set to 0, with the basis row of entry; that row is
    # 0 before pc, so only its tail enters.  The table and p = 2 kernels
    # subtract f * row with f = c / pv and leave the rest of cur as it was.
    # On the table backend the term f * row[j] is exp[lf + lb_j] with
    # lf = log(-f) taken once (exp repeats, so the index needs no reduction).
    # The generic kernel at odd p is fraction-free instead (Bareiss, Math.
    # Comp. 1968): cur <- pv * cur - c * row.  pv != 0, so cur and row span
    # the same space as before, and no inverse is taken; cur comes out
    # scaled by pv (row_scales), which linalg.det divides out once.

    def _reduce_logs_xor(self, cur: list, c: int, entry) -> None:
        """Table backend, p = 2: -f = f, and the sum is XOR."""
        lpv, tail = entry
        exp = self._exp
        lf = (self._log[c] - lpv) % self.Qm1
        for j, lb in tail:
            cur[j] ^= exp[lf + lb]

    def _reduce_logs_zech(self, cur: list, c: int, entry) -> None:
        """Table backend, odd p: -1 = alpha^half, and a + alpha^lt for
        a = alpha^la is alpha^(la + zech[(lt - la) mod Q-1]), or 0 when that
        Zech log is -1."""
        lpv, tail = entry
        exp, log, zech, qm1 = self._exp, self._log, self._zech, self.Qm1
        lf = (log[c] - lpv + self._half) % qm1
        for j, lb in tail:
            lt = lf + lb
            a = cur[j]
            if a:
                la = log[a]
                z = zech[(lt - la) % qm1]
                cur[j] = exp[la + z] if z >= 0 else 0
            else:
                cur[j] = exp[lt]

    def _reduce_tower(self, cur: list, c: int, entry) -> None:
        """Tower backend, any p (half = 0 at p = 2): the odd-p table kernel on
        log + 1 entries; lf + b - a is the Zech index k of entry j, as
        log(cur[j] - f * row[j]) = log cur[j] + Z(log(-f * row[j]) -
        log cur[j]) with f = c / pv.  The one Zech step of the backend is
        written out here, with no call per entry: for k = R*s + r,
        0 <= r < R, 1 + alpha**k = x0 + x1*alpha with x1 = beta**l1,
        l1 = s + E1[r], so Z(k) = R*l1 + L[x0 / x1] with L read off L2 and
        X0 (_tower_logs); at r = 0 it is R*log_beta(1 + beta**s), none when
        that is 0 (module docstring).  Every sum of the tower's row form is
        made here: the elimination, and through _row_step a twist (row_add)
        and frob_q_diffs."""
        pv, tail = entry
        _, _, R, E0, E1, X0, L2, szech = self._tower
        qm1 = self.Qm1
        lf = c - pv + self._half
        for j, b in tail:
            a = cur[j]
            if a:
                k = (lf + b - a) % qm1
                s = k // R
                r = k % R
                if r:
                    l1 = s + E1[r]
                    cur[j] = (a - 1 + R * l1 + L2[X0[s + E0[r]] - l1]) % qm1 + 1
                else:
                    z = szech[s]
                    cur[j] = (a - 1 + R * z) % qm1 + 1 if z >= 0 else 0
            else:
                cur[j] = (lf + b - 1) % qm1 + 1

    def _reduce_gf2(self, cur: list, c: int, entry) -> None:
        """Generic backend, p = 2: shift-and-XOR products, XOR sums."""
        ipv, tail = entry
        gmul = self._gmul2
        f = gmul(c, ipv)
        for j, b in tail:
            cur[j] ^= gmul(f, b)

    def _reduce_lanes(self, cur: list, c: int, entry) -> None:
        """Generic backend, odd p, fraction-free: cur <- pv * cur - c * row.
        Every nonzero entry of cur is scaled, also those before pc in
        non-pivot columns, and in the tail of row the Kronecker products
        pv * cur[j] and c * (-row[j]) are summed before one fold and one
        read-back (the lane bound is in _init_lanes)."""
        spv, tail = entry
        units, apply, product = self._units, self._apply, self._lane_product
        sums = [spv * apply(units, a) if a else 0 for a in cur]
        sc = apply(units, c)
        for j, nb in tail:
            sums[j] += sc * nb
        cur[:] = [product(s) if s else 0 for s in sums]

    # -- row form of the elimination (linalg) -------------------------------

    @functools.cached_property
    def _tower(self) -> _TowerLogs:
        """The logs of the tower backend, built on first row use."""
        return _tower_logs(self)

    def row_form(self, rows):
        """Rows of packed elements in the row form of the elimination: the
        rows themselves, or on the tower backend lists of log + 1 (0 for 0)."""
        if self.backend != "tower":
            return rows
        log = self._tower.log
        return [[log(a) for a in row] for row in rows]

    def packed_rows(self, rows):
        """Rows in the row form back as packed elements (tuples on the tower
        backend, the rows themselves otherwise)."""
        if self.backend != "tower":
            return rows
        exp = self._tower.exp
        return tuple(tuple(exp(a) for a in row) for row in rows)

    def frob_q_row(self, row, r: int) -> tuple[int, ...]:
        """The row (a^(q^r) for a in row) of a row in the row form, in the
        row form; r taken mod m.  On the tower backend log a^(p^j) =
        p^j * log a mod Q-1 with j = e*r mod d, so an entry la + 1 becomes
        la * p^j mod Q-1 + 1 and no element is packed; elsewhere frob_q per
        entry."""
        if self.backend != "tower":
            return tuple(self.frob_q(a, r) for a in row)
        qm1 = self.Qm1
        t = pow(self.p, self.e * (r % self.m), qm1)
        return tuple([(a - 1) * t % qm1 + 1 if a else 0 for a in row])

    def _row_step(self, cur, c: int, row) -> tuple[int, ...]:
        """cur - c * row for rows cur and row and c in the row form, as one
        call of the row kernel: the basis row (1, *row) has its pivot in a
        column 0 put in front of cur, and 1 is 1 in every row form (log 1 +
        1 on the tower), so the kernel subtracts (c / 1) * row."""
        out = [0, *cur]
        self.row_reduce(out, c, self.row_entry((1, *row), 0))
        return tuple(out[1:])

    def row_add(self, cur, c: int, row) -> tuple[int, ...]:
        """cur + c * row for rows cur and row in the row form and c packed,
        in the row form: the row step (_row_step) with -c, and no kernel
        call when c = 0."""
        if not c:
            return tuple(cur)
        return self._row_step(cur, self.row_form([[self.neg(c)]])[0][0], row)

    def row_normalise(self, row, pc: int) -> tuple[int, ...]:
        """row divided by its entry at pc, which is nonzero, in the row form:
        on the tower backend a subtraction of logs, elsewhere one inverse
        and a mul per entry, none when the entry is 1."""
        pv = row[pc]
        if self.backend == "tower":
            qm1 = self.Qm1
            return tuple((a - pv) % qm1 + 1 if a else 0 for a in row)
        if pv == 1:
            return tuple(row)
        s, mul = self.inv(pv), self.mul
        return tuple(mul(s, a) for a in row)

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
        p the rows beta^i in lanes are kept as chunk tables, and the
        digit-weighted sum of the rows is read back mod p (see _init_lanes)."""
        rows = self._frob_matrix(j)
        if self.p == 2:
            out = i = 0
            while a:
                if a & 1:
                    out ^= rows[i]
                a >>= 1
                i += 1
            return out
        return self._from_lanes(self._apply(rows, a), self.d)

    def _frob_matrix(self, j: int) -> list:
        """M_j (see _frob_map), built the first time j is asked for."""
        rows = self._frob_rows.get(j)
        if rows is None:
            rows = self._frob_rows[j] = self._build_frob_rows(j)
        return rows

    def _build_frob_rows(self, j: int) -> list:
        """Rows beta^0, ..., beta^(d-1) of M_j, beta = alpha^(p^j): one pow
        and d-1 multiplications; at odd p the rows in lanes, as chunk tables."""
        p, d = self.p, self.d
        beta = self.pow(self.alpha, p**j)
        rows = [1]
        for _ in range(d - 1):
            rows.append(self.mul(rows[-1], beta))
        if p == 2:
            return rows
        return self._chunk_tables([self._apply(self._units, row) for row in rows])

    def frob_q(self, a: int, r: int) -> int:
        """a ** (q**r); r taken mod m."""
        return self.frob_p(a, (self.e * (r % self.m)) % self.d)

    def frob_q_diffs(self, row, r: int) -> tuple[int, ...]:
        """The row (a^(q^r) - a for a in row) in the row form (row_form), r
        taken mod m (the systematic differences: codes.Differences passes all
        the entries of A as one row and cuts the block D_j out of the
        result).  a^(q^r) = a^(p^j) with j = e*r mod d, and j = 0 gives
        zeros.

        * table and tower: frob_q_row, then the row step (_row_step) with
          c = 1 subtracts the row, so each sum is the Zech step of the row
          kernel.
        * generic, p = 2: the Frobenius image XOR a.
        * generic, odd p: a^(p^j) - a = a^(p^j) + (p-1)a, formed in lanes as
          the digit-weighted rows of M_j plus (p-1) times the spread a, and
          read back once.  A lane of the first part is at most d(p-1)^2 (d
          rows, lanes below p, digits below p), of the second (p-1)^2, so
          (d+1)(p-1)^2 in all, within the bound L of _init_lanes.  One
          read-back per entry costs less than the row step through the
          fraction-free kernel, so this backend keeps the fused row."""
        j = self.e * (r % self.m) % self.d
        if j == 0:
            return (0,) * len(row)
        if self.backend != "generic":
            return self._row_step(self.frob_q_row(row, r), 1, row)
        if self.p == 2:
            return tuple(self._frob_map(a, j) ^ a for a in row)
        rows, units, apply, d = self._frob_matrix(j), self._units, self._apply, self.d
        pm1 = self.p - 1
        return tuple(self._from_lanes(apply(rows, a) + pm1 * apply(units, a), d) if a else 0
                     for a in row)

    def norm_q(self, a: int) -> int:
        """Norm of F_{q^m} over F_q: a ** ((q^m - 1)/(q - 1)).  norm(0) = 0."""
        return self.pow(a, self._norm_exp)

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


def exact_int(value) -> int:
    """value itself when it is an int other than a bool, as a JSON integer
    loads, else TypeError: a file's 4.0, 2.9, "4" or true is no integer."""
    if value.__class__ is not int:
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    return value


def field_from_dict(data: dict) -> FieldTower:
    return make_field(
        exact_int(data["p"]), exact_int(data["e"]), exact_int(data["m"]),
        modulus=tuple(map(exact_int, data["modulus"])),
    )


# --------------------------------------------------------------------------
# automorphisms
# --------------------------------------------------------------------------

class GaloisAut(Record):
    """sigma_r : a -> a^(q^r), an element of Gal(F_{q^m} / F_q)."""

    __slots__ = ("field", "r")

    def __init__(self, field: FieldTower, r: int):
        _set(self, "field", field)
        _set(self, "r", r % field.m)

    def __call__(self, a: int) -> int:
        return self.field.frob_q(a, self.r)

    def on_vector(self, v) -> tuple[int, ...]:
        f, r = self.field, self.r
        return tuple(f.frob_q(a, r) for a in v)

    def power(self, i: int) -> "GaloisAut":
        return GaloisAut(self.field, self.r * i)


class FullAut(Record):
    """tau_j : a -> a^(p^j), an element of Aut(F_{q^m}) (order d = e*m)."""

    __slots__ = ("field", "j")

    def __init__(self, field: FieldTower, j: int):
        _set(self, "field", field)
        _set(self, "j", j % field.d)

    def __call__(self, a: int) -> int:
        return self.field.frob_p(a, self.j)

    def on_vector(self, v) -> tuple[int, ...]:
        f, j = self.field, self.j
        return tuple(f.frob_p(a, j) for a in v)


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
