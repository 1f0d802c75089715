"""Linear rank-metric codes over F_{q^m} and their standard constructions.

A LinearCode is an F_{q^m}-subspace of F_{q^m}^n stored by its canonical
(RREF) generator matrix, so two codes are equal iff their stored generators
are equal.  CodeSpec describes a member of one of five parametric families
(Sheekey, "A new family of linear maximum rank distance codes", AMC 2016;
Puchinger, Rosenkilde and Sheekey, "Further generalisations of twisted
Gabidulin codes", 2017), which all follow one row rule.  A member has k
rows; row j is theta^j(g) + c_j*theta^(e_j)(g) when j is in the family's
twist map {j: (c_j, e_j)}, and theta^j(g) otherwise.  The twist maps are

* Gabidulin              {}
* Twisted                {0: (eta, k)}
* GeneralizedTwisted     {h_i: (eta_i, k-1+t_i mod m)}
* NewGabI  (m-k > k)     {i: (theta^i(eta), k+i mod m) for i < k}
* NewGabII (m-k <= k)    {i: (theta^i(eta), k+i mod m) for i < m-k}

with g of full F_q-rank n and theta a generating Galois automorphism.
build() checks a spec's family preconditions, forms its twist map and reads
every row off one Moore matrix theta^j(g), j < max(k, e_j + 1).  For the
GeneralizedTwisted family the twist offsets t_i must either all lie in
[1, n-k] or all lie in [m-n+1, m-k]; mixed ranges are rejected.  In every
family the construction is checked to produce dimension exactly k.

The classical multiplicative constraint on a Twisted code's eta
(norm(eta) != (-1)^(k*m), which guarantees the maximum rank distance) is
*advisory* here: build() records it via norm_condition_ok() and only enforces
it under strict_norm=True, because perfectly well-defined codes—including the
reference vectors shipped with the acceptance suite—violate it over F_2,
where no eta satisfies the constraint at all.

Subfield subcodes and rank-one codewords come from one place, the largest
Galois-stable subcode of C, which is the intersection of all its Galois images.
By Galois descent (Giorgetti-Previtali, "Galois invariance, trace codes and
subfield subcodes", Finite Fields Appl. 2010) that subcode is the
F_{q^m}-span of C n F_q^n, and its RREF basis has entries in F_q.

The minimum rank distance is a sweep over the projective codewords that
walks the F_p-digits of the message in Gray order, so each word costs one
precomputed vector addition (an XOR at p = 2) and no multiplication; the
proof is in _projective_spreads.  A sweep can also stop at the first word
of rank <= a floor: by the Singleton bound d <= n-k+1, so floor n-k
decides MRD-ness without the full minimum.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import linalg as la
from .gf import FieldTower, FullAut, GaloisAut, field_from_dict, field_to_dict

FAMILIES = ("Gabidulin", "Twisted", "GeneralizedTwisted", "NewGabI", "NewGabII")


class BuildError(ValueError):
    """A CodeSpec violates a construction precondition."""


class BudgetExceeded(RuntimeError):
    """An exact enumeration would exceed its configured cap."""


@dataclass(frozen=True)
class LinearCode:
    """F_{q^m}-linear code given by its canonical RREF generator matrix."""

    field: FieldTower
    n: int
    k: int
    gen: la.Matrix

    @classmethod
    def from_rows(cls, field: FieldTower, rows, n: int | None = None) -> "LinearCode":
        rows = la.mat(field, rows)
        if n is None:
            if not rows:
                raise ValueError("cannot infer the length of a zero code")
            n = len(rows[0])
        if rows and len(rows[0]) != n:
            raise ValueError(f"generator rows have length {len(rows[0])}, not n = {n}")
        R, _ = la.rref(field, rows)
        return cls(field, n, len(R), R)

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise ValueError("invalid code dimension")

    @cached_property
    def diffs(self) -> "Differences":
        """The code's one cache of systematic differences, which every
        sequence, fingerprint and Galois intersection of it reads."""
        return Differences(self)

    def __repr__(self):
        return f"LinearCode(n={self.n}, k={self.k}, q^m={self.field.q}^{self.field.m})"


class Differences:
    """The systematic differences D_j = theta^j(A) - A of one code, theta the
    Frobenius a -> a^q and A the k x (n-k) block of its RREF generator R off
    the pivot columns, indexed by j mod m; each D_j and its transpose is
    computed on first use.  LinearCode.diffs makes the one instance a code has.

    theta^j acts entrywise and fixes 0 and 1, so theta^j(R) is R with A
    replaced by theta^j(A): the rows of theta^j(R) - R are the rows of D_j,
    padded with zeros at the pivots, and xR lies in theta^j(C) exactly when
    x D_j = 0."""

    def __init__(self, code: LinearCode):
        self.code = code
        pivots = {next(c for c, a in enumerate(row) if a) for row in code.gen}
        self._A = tuple(tuple(a for c, a in enumerate(row) if c not in pivots)
                        for row in code.gen)
        self._rows: dict[int, la.Matrix] = {}
        self._cols: dict[int, la.Matrix] = {}

    def rows(self, j: int) -> la.Matrix:
        """D_j: k rows, n-k wide."""
        j %= self.code.field.m
        D = self._rows.get(j)
        if D is None:
            aut, sub = GaloisAut(self.code.field, j), self.code.field.sub
            D = self._rows[j] = tuple(tuple(map(sub, aut.on_vector(a), a)) for a in self._A)
        return D

    def cols(self, j: int) -> la.Matrix:
        """The transpose of D_j: n-k rows, k wide (no rows when k = 0)."""
        j %= self.code.field.m
        T = self._cols.get(j)
        if T is None:
            T = self._cols[j] = tuple(zip(*self.rows(j)))
        return T

    def meet(self, exps) -> la.Matrix:
        """RREF basis of C n theta^j(C) over j in exps: the rows xR for x in
        the kernel of the stacked D_j transposes."""
        field = self.code.field
        kernel = la.nullspace(field, [row for j in exps for row in self.cols(j)], self.code.k)
        return la.rref(field, [la.vec_mat(field, x, self.code.gen) for x in kernel])[0]


def code_equal(c1: LinearCode, c2: LinearCode) -> bool:
    return c1.field == c2.field and c1.n == c2.n and c1.gen == c2.gen


def dual(code: LinearCode) -> LinearCode:
    """Dual with respect to the standard bilinear form sum(u_i v_i)."""
    gen = la.nullspace(code.field, code.gen, code.n)
    return LinearCode(code.field, code.n, code.n - code.k, gen)


# --------------------------------------------------------------------------
# family specifications
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CodeSpec:
    family: str
    n: int
    k: int
    theta_exp: int = 1
    g: tuple[int, ...] = ()
    eta: Optional[tuple[int, ...]] = None  # one per twist for GeneralizedTwisted, else length 1
    t: Optional[tuple[int, ...]] = None
    h: Optional[tuple[int, ...]] = None


def _as_tuple(x) -> Optional[tuple[int, ...]]:
    if x is None:
        return None
    if isinstance(x, int):
        return (x,)
    return tuple(int(v) for v in x)


def make_spec(family: str, n: int, k: int, theta_exp: int = 1, g=(), eta=None, t=None, h=None) -> CodeSpec:
    return CodeSpec(family, n, k, theta_exp, tuple(int(a) for a in g),
                    _as_tuple(eta), _as_tuple(t), _as_tuple(h))


def norm_condition_ok(field: FieldTower, k: int, eta: int) -> bool:
    """norm(eta) != (-1)^(k*m), the classical requirement for a Twisted code
    to have maximum rank distance."""
    target = field.one if (k * field.m) % 2 == 0 else field.neg(field.one)
    return field.norm_q(eta) != target


def _validate_common(field: FieldTower, spec: CodeSpec) -> GaloisAut:
    if spec.family not in FAMILIES:
        raise BuildError(f"unknown family {spec.family!r}; expected one of {FAMILIES}")
    n, k, m = spec.n, spec.k, field.m
    if not 1 <= n <= m:
        raise BuildError(f"need 1 <= n <= m (got n={n}, m={m})")
    if not 1 <= k <= n:
        raise BuildError(f"need 1 <= k <= n (got k={k}, n={n})")
    if math.gcd(spec.theta_exp, m) != 1:
        raise BuildError(f"theta exponent {spec.theta_exp} does not generate the Galois group (m={m})")
    if len(spec.g) != n:
        raise BuildError(f"g must have length n={n}")
    if la.rank_q(field, spec.g) < n:
        raise BuildError("g must have full F_q-rank n")
    return GaloisAut(field, spec.theta_exp)


def build(field: FieldTower, spec: CodeSpec, strict_norm: bool = False) -> LinearCode:
    theta = _validate_common(field, spec)
    n, k, m = spec.n, spec.k, field.m
    family, eta = spec.family, spec.eta

    # the twist map {j: (c, e)}: row j is theta^j(g) + c*theta^e(g)
    if family == "Gabidulin":
        twists = {}

    elif family == "Twisted":
        if eta is None or len(eta) != 1:
            raise BuildError("Twisted requires a single eta")
        eta0 = field.check(eta[0])
        if k > n - 1:
            raise BuildError("Twisted requires k <= n-1")
        if strict_norm and not norm_condition_ok(field, k, eta0):
            raise BuildError("norm(eta) == (-1)^(k*m); the twisted code is not MRD "
                             "(build with strict_norm=False to construct it anyway)")
        twists = {0: (eta0, k)}

    elif family == "GeneralizedTwisted":
        t, h = spec.t, spec.h
        if eta is None or t is None or h is None:
            raise BuildError("GeneralizedTwisted requires eta, t and h tuples")
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
        twists = {hi: (field.check(ei), (k - 1 + ti) % m) for ei, ti, hi in zip(eta, t, h)}

    else:  # NewGabI, NewGabII
        if eta is None or len(eta) != 1:
            raise BuildError(f"{family} requires a single eta")
        eta0 = field.check(eta[0])
        if family == "NewGabI" and not m - k > k:
            raise BuildError("NewGabI requires m - k > k")
        if family == "NewGabII" and not m - k <= k:
            raise BuildError("NewGabII requires m - k <= k")
        twists = {i: (theta.power(i)(eta0), (k + i) % m) for i in range(min(k, m - k))}

    moore = la.moore_matrix(field, spec.g, max([k] + [e + 1 for _, e in twists.values()]), theta)
    rows = list(moore[:k])
    for j, (c, e) in twists.items():
        rows[j] = la.add_vec(field, rows[j], la.scale_vec(field, c, moore[e]))
    code = LinearCode.from_rows(field, rows, n)
    if code.k != k:
        raise BuildError(
            f"internal: construction degenerated to dimension {code.k} != k={k}"
        )
    return code


# --------------------------------------------------------------------------
# closed-form duals
# --------------------------------------------------------------------------

def _dual_generator_vector(field: FieldTower, g, n: int, k: int, theta: GaloisAut):
    """The canonical dual generator: the unique (up to scalar) nonzero vector
    orthogonal to theta^j(theta^{-(n-k-1)}(g)) for j = 0..n-2."""
    shifted = theta.power(-(n - k - 1)).on_vector(g)
    M = la.moore_matrix(field, shifted, n - 1, theta)
    ker = la.nullspace(field, M, n)
    if len(ker) != 1:
        raise AssertionError("dual generator kernel is not one-dimensional")  # pragma: no cover
    gp = ker[0]
    if la.rank_q(field, gp) != n:
        raise AssertionError("dual generator does not have full F_q-rank")  # pragma: no cover
    return gp


def gabidulin_dual_params(field: FieldTower, spec: CodeSpec) -> CodeSpec:
    """Closed-form parameters of the dual of a Gabidulin code: same theta,
    dimension n-k, generator vector from _dual_generator_vector."""
    if spec.family != "Gabidulin":
        raise BuildError("gabidulin_dual_params expects a Gabidulin spec")
    theta = _validate_common(field, spec)
    n, k = spec.n, spec.k
    if not 1 <= k <= n - 1:
        raise BuildError("dual parameters need 1 <= k <= n-1")
    gp = _dual_generator_vector(field, spec.g, n, k, theta)
    return make_spec("Gabidulin", n, n - k, spec.theta_exp, gp)


def twisted_dual_params(field: FieldTower, spec: CodeSpec) -> CodeSpec:
    """Closed-form parameters of the dual of a Twisted code (2 <= k <= n-2,
    eta != 0): same theta, dimension n-k, generator vector as in the
    Gabidulin case, and

        eta' = (-1)^n * eta * theta^(k-n+1)(D)/theta^(k-n)(D)
                               * theta^(k-n)(s)/s,

    with D = det of the full n x n Moore matrix of g and
    s = <theta^(n-k)(g') ; g>."""
    if spec.family != "Twisted":
        raise BuildError("twisted_dual_params expects a Twisted spec")
    theta = _validate_common(field, spec)
    n, k = spec.n, spec.k
    if not 2 <= k <= n - 2:
        raise BuildError("dual parameters need 2 <= k <= n-2")
    if spec.eta is None or len(spec.eta) != 1 or spec.eta[0] == 0:
        raise BuildError("twisted dual parameters need a single nonzero eta")
    eta = field.check(spec.eta[0])
    g = spec.g
    gp = _dual_generator_vector(field, g, n, k, theta)
    D = la.det(field, la.moore_matrix(field, g, n, theta))
    s = la.dot(field, theta.power(n - k).on_vector(gp), g)
    if D == 0 or s == 0:
        raise AssertionError("degenerate dual data")  # pragma: no cover
    sign = field.one if n % 2 == 0 else field.neg(field.one)
    etap = field.mul(sign, eta)
    etap = field.mul(etap, field.div(theta.power(k - n + 1)(D), theta.power(k - n)(D)))
    etap = field.mul(etap, field.div(theta.power(k - n)(s), s))
    return make_spec("Twisted", n, n - k, spec.theta_exp, gp, eta=(etap,))


# --------------------------------------------------------------------------
# code maps
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SemilinearMap:
    """x -> lam * tau(x) * A with A invertible over the subfield F_q and tau
    a full automorphism; the shape of code equivalence."""

    lam: int
    A: la.Matrix
    tau: FullAut

    def apply_vector(self, field: FieldTower, v):
        w = self.tau.on_vector(v)
        w = la.vec_mat(field, w, self.A)
        if self.lam != 1:
            w = la.scale_vec(field, self.lam, w)
        return w


def apply_semilinear(code: LinearCode, smap: SemilinearMap) -> LinearCode:
    field = code.field
    if smap.lam == 0:
        raise ValueError("lambda must be nonzero")
    if len(smap.A) != code.n:
        raise ValueError("matrix size must equal the code length")
    for row in smap.A:
        for a in row:
            if not field.in_subfield_q(a):
                raise ValueError("A must have entries in F_q")
    if la.det(field, smap.A) == 0:
        raise ValueError("A must be invertible")
    rows = tuple(smap.apply_vector(field, r) for r in code.gen)
    return LinearCode.from_rows(field, rows, code.n)


# --------------------------------------------------------------------------
# rank-one codewords, subfield subcode, minimum distance
# --------------------------------------------------------------------------

def _galois_stable_part(code: LinearCode) -> la.Matrix:
    """RREF basis of V = the intersection of theta^j(C) over j < m, theta the
    Frobenius a -> a^q, read off the differences D_1..D_(m-1) (see
    Differences).  Its rows are an F_q-basis of the subfield subcode
    C n F_q^n.

    theta permutes the theta^j(C), so theta(V) = V.  theta maps the RREF
    basis R of V to a basis of theta(V) = V that is again in RREF (it fixes 0
    and 1), and that form is unique, so theta(R) = R: R has entries in F_q and
    spans part of C n F_q^n.  Conversely a word w of C n F_q^n is fixed by
    theta, so it lies in every theta^j(C) and in V, and its coordinates in R
    are its own entries at the pivot columns, which lie in F_q."""
    return code.diffs.meet(range(1, code.field.m))


def subfield_subcode(code: LinearCode):
    """(dimension over F_q, F_q-basis rows) of the subcode with entries in F_q."""
    gen = _galois_stable_part(code)
    return len(gen), gen


def has_rank_one_codeword(code: LinearCode):
    """(bool, witness codeword).  A nonzero codeword of F_q-rank one is a
    scalar times a word of F_q^n, so one exists iff the subfield subcode is
    nonzero; the witness is the first row of its basis."""
    gen = _galois_stable_part(code)
    return (True, gen[0]) if gen else (False, None)


def _projective_spreads(code: LinearCode):
    """Yield la.spread(field, c) for each codeword c = sum_i m_i G_i whose
    message m has first nonzero coordinate 1: each of the (Q^k - 1)/(Q - 1)
    such words exactly once, with no field multiplication per word.

    The spread is F_p-linear in c, and m_i = sum_j c_ij x^j over the base-p
    digits c_ij of m_i (x^j is the element packed as p^j).  So with lead
    coordinate L the spread is spread(G_L) + sum_(i > L, j) c_ij B_ij, where
    B_ij = spread(x^j G_i) is computed once per sweep.  The free digits are
    walked in modular p-ary Gray order (Knuth, TAOCP 4A, 7.2.1.1): step t has
    digits g_r = (t_r - t_(r+1)) mod p, t_r the base-p digits of t.  From t
    to t+1, with s = v_p(t+1), the digits t_0..t_(s-1) fall from p-1 to 0
    and t_s rises by 1 (t_s < p-1).  So g_(s-1) turns from (p-1) - t_s into
    0 - (t_s + 1), the same residue; g_s rises by 1; every other g_r is
    0 - 0 or keeps both terms.  Each step therefore adds exactly one B: at
    p = 2 that is XOR on ints, at odd p n*e field additions.  t -> g is a
    bijection (t_r = sum of g_r' over r' >= r, mod p), so every digit vector
    is met once."""
    field = code.field
    p, d = field.p, field.d
    add = operator.xor if p == 2 else field.add
    steps_of = [[tuple(la.spread(field, [field.mul(p**j, a) for a in row])) for j in range(d)]
                for row in code.gen]
    for lead, row in enumerate(code.gen):
        word = tuple(la.spread(field, row))
        yield word
        steps = [b for later in steps_of[lead + 1:] for b in later]
        for t in range(1, p ** len(steps)):
            s, u = 0, t
            while u % p == 0:
                u //= p
                s += 1
            word = tuple(map(add, word, steps[s]))
            yield word


def _least_rank(code: LinearCode, floor: int) -> int:
    """Least F_q-rank of a nonzero codeword, except that the sweep ends at the
    first word of rank <= floor and returns that rank; so floor = 1 gives
    the minimum distance.  Every nonzero codeword is a nonzero multiple of
    one the walk yields, with the same rank.  A word's F_p-rank is e times
    its F_q-rank, so reducing it stops at best * e, where it can no longer
    beat best."""
    field = code.field
    e = field.e
    best = code.n + 1
    for word in _projective_spreads(code):
        r = la._fp_rank(field, word, best * e) // e
        if r < best:
            best = r
            if best <= floor:
                break
    return best


def min_distance_bruteforce(code: LinearCode, cap: int = 1 << 24) -> int:
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
    return _least_rank(code, 1)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def code_to_dict(code: LinearCode, provenance: dict | None = None) -> dict:
    field = code.field
    return {
        "field": field_to_dict(field),
        "n": code.n,
        "k": code.k,
        "gen": [[list(field.coeffs(a)) for a in row] for row in code.gen],
        "provenance": provenance or {},
    }


def code_from_dict(data: dict):
    """(code, provenance) from the dict code_to_dict writes.  A value of the
    wrong JSON type anywhere in it, the whole document included, raises
    ValueError."""
    try:
        field = field_from_dict(data["field"])
        rows = tuple(
            tuple(field.from_coeffs(c) for c in row) for row in data["gen"]
        )
        n, k = int(data["n"]), int(data["k"])
    except TypeError as exc:
        raise ValueError(f"malformed code: {exc}") from exc
    code = LinearCode.from_rows(field, rows, n)
    if code.k != k:
        raise ValueError("stored dimension does not match the generator matrix")
    return code, data.get("provenance", {})


def save_code(code: LinearCode, path: str, provenance: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(code_to_dict(code, provenance), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_code(path: str):
    with open(path, encoding="utf-8") as fh:
        return code_from_dict(json.load(fh))


def spec_to_provenance(spec: CodeSpec, field: FieldTower) -> dict:
    out = {
        "family": spec.family,
        "n": spec.n,
        "k": spec.k,
        "theta_exp": spec.theta_exp,
        "g": [list(field.coeffs(a)) for a in spec.g],
    }
    if spec.eta is not None:
        out["eta"] = [list(field.coeffs(a)) for a in spec.eta]
    if spec.t is not None:
        out["t"] = list(spec.t)
    if spec.h is not None:
        out["h"] = list(spec.h)
    return out
