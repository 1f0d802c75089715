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
every row off one Moore matrix theta^j(g), j < max(k, e_j + 1).  The Moore
rows, the twists and the RREF are all in the field's row form (logs on a
tower field, FieldTower.row_form); only the generator is packed.  For the
GeneralizedTwisted family the twist offsets t_i must either all lie in
[1, n-k] or all lie in [m-n+1, m-k]; mixed ranges are rejected.  In every
family the construction is checked to produce dimension exactly k.

The classical multiplicative constraint on a Twisted code's eta
(norm(eta) != (-1)^(k*m), which guarantees the maximum rank distance) is
*advisory* here: build() records it via norm_condition_ok() and only enforces
it under strict_norm=True, because perfectly well-defined codes—including the
reference vectors shipped with the acceptance suite—violate it over F_2,
where no eta satisfies the constraint at all.

Rank-one codewords come from the largest Galois-stable subcode of C, which
is the intersection of all its Galois images.  By Galois descent
(Giorgetti-Previtali, "Galois invariance, trace codes and subfield
subcodes", Finite Fields Appl. 2010) that subcode is the F_{q^m}-span of
C n F_q^n, and its RREF basis has entries in F_q.  Its dimension is k minus
a rank the code's differences trie already holds (_galois_stable_dim), so
whether a rank-one codeword exists costs no kernel or basis.

The minimum rank distance is a sweep over the projective codewords that
walks the F_p-digits of the message in Gray order, so each word costs one
precomputed vector addition (an XOR at p = 2) and no multiplication; the
proofs are in _gray_steps and _projective_spreads.

When C or C^perp has dimension one, whether C is MRD is one F_q-rank test
(_is_mrd_line); classify settles every other code by a recovered Gabidulin
generator.
"""

from __future__ import annotations

import json
import math
import operator
from typing import Optional

from . import linalg as la
from .base import FAMILIES, BudgetExceeded, BuildError, Record, _set  # noqa: F401 (re-exported)
from .gf import FieldError, FieldTower, GaloisAut, exact_int, field_from_dict, field_to_dict


class LinearCode(Record):
    """F_{q^m}-linear code given by its canonical RREF generator matrix."""

    __slots__ = ("field", "n", "k", "gen", "_row_gen", "_diffs")
    _compared = ("field", "n", "k", "gen")

    def __init__(self, field: FieldTower, n: int, k: int, gen: la.Matrix):
        if not 0 <= k <= n:
            raise ValueError("invalid code dimension")
        _set(self, "field", field)
        _set(self, "n", n)
        _set(self, "k", k)
        _set(self, "gen", gen)
        _set(self, "_row_gen", None)  # gen in the field's row form, kept by from_rows
        _set(self, "_diffs", None)

    def __repr__(self):
        return f"LinearCode(n={self.n}, k={self.k}, q^m={self.field.q}^{self.field.m})"

    @classmethod
    def from_rows(cls, field: FieldTower, rows, n: int | None = None,
                  in_row_form: bool = False) -> "LinearCode":
        """The code the rows span: rows of packed elements, checked, or with
        in_row_form rows already in the field's row form (FieldTower.row_form),
        as build makes them.  The RREF is formed in the row form, packed
        once for gen, and kept as it is: Differences reads its A off it."""
        rows = tuple(map(tuple, rows)) if in_row_form else la.mat(field, rows)
        if n is None:
            if not rows:
                raise ValueError("cannot infer the length of a zero code")
            n = len(rows[0])
        if rows and len(rows[0]) != n:
            raise ValueError(f"generator rows have length {len(rows[0])}, not n = {n}")
        R, _ = la.rref_rows(field, rows if in_row_form else field.row_form(rows))
        code = cls(field, n, len(R), field.packed_rows(R))
        _set(code, "_row_gen", R)
        return code

    @property
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each row of the RREF generator."""
        return tuple(next(c for c, a in enumerate(row) if a) for row in self.gen)

    @property
    def diffs(self) -> "Differences":
        """The code's one cache of systematic differences, which every
        sequence, fingerprint and Galois intersection of it reads; made on
        first use."""
        diffs = self._diffs
        if diffs is None:
            diffs = Differences(self)
            _set(self, "_diffs", diffs)
        return diffs


class Differences:
    """The systematic differences D_j = theta^j(A) - A of one code, theta the
    Frobenius a -> a^q and A the k x (n-k) block of its RREF generator R off
    the pivot columns, indexed by j mod m; each D_j and its transpose is
    computed on first use.  LinearCode.diffs makes the one instance a code has.

    theta^j acts entrywise and fixes 0 and 1, so theta^j(R) is R with A
    replaced by theta^j(A): the rows of theta^j(R) - R are the rows of D_j,
    padded with zeros at the pivots, and xR lies in theta^j(C) exactly when
    x D_j = 0.

    A is in the field's row form (FieldTower.row_form): read off R in the
    row form when the code kept it (LinearCode.from_rows, which build goes
    through), else converted from the packed R once.
    Every block is computed and fed in the row form; only rows and meet
    convert back.

    Every elimination of stacked blocks grows the code's private trie:
    _trie[side] for side "rows" (blocks D_j) or "cols" (blocks D_j^T) is the
    root node (rank, IncrementalRank, children) of no block fed, children[j]
    the node after one more block at exponent j mod m.  A stored node is
    never fed again, and its basis spans the stacked blocks on its path:
    each row fed keeps the span, and rows are skipped only at full rank.
    linalg.nullspace is canonical RREF for a span, so the kernel meet reads
    off a node is the one the stacked blocks give."""

    def __init__(self, code: LinearCode):
        self.code = code
        # A's entries row by row, one list: frob_q_diffs acts entrywise, so
        # one call forms a whole block
        pivots, R = set(code.pivots), code._row_gen
        A = [a for row in (code.gen if R is None else R)
             for c, a in enumerate(row) if c not in pivots]
        self._A = code.field.row_form([A])[0] if R is None else A
        self._blocks: dict[tuple[str, int], la.Matrix] = {}
        self._trie = {side: (0, la.IncrementalRank(code.field), {}) for side in ("rows", "cols")}

    def _block(self, side: str, j: int) -> la.Matrix:
        """D_j on side "rows", its transpose on side "cols", in the row form;
        j in Z_m."""
        B = self._blocks.get((side, j))
        if B is None:
            if side == "rows":
                w, D = self.code.n - self.code.k, self.code.field.frob_q_diffs(self._A, j)
                B = tuple([D[i * w:(i + 1) * w] for i in range(self.code.k)])
            else:
                B = tuple(zip(*self._block("rows", j)))
            self._blocks[side, j] = B
        return B

    def rows(self, j: int) -> la.Matrix:
        """D_j: k rows, n-k wide."""
        field = self.code.field
        return field.packed_rows(self._block("rows", j % field.m))

    def ranks(self, side: str, exps):
        """Rank of the stacked blocks at exponents exps after each block
        (lazily), from the longest prefix already fed.  At full rank, n-k on
        side "rows" and k on side "cols", no block is formed or fed."""
        m = self.code.field.m
        width = self.code.n - self.code.k if side == "rows" else self.code.k
        rank, inc, children = self._trie[side]
        for j in exps:
            j %= m
            node = children.get(j)
            if node is None:
                if rank < width:
                    inc = inc.copy()  # the stored node's basis stays as it is
                    for row in self._block(side, j):
                        if any(row):
                            rank += inc.add_row(row)
                            if rank == width:
                                break
                node = children[j] = (rank, inc, {})
            rank, inc, children = node
            yield rank

    def meet(self, exps) -> la.Matrix:
        """RREF basis of C n theta^j(C) over j in exps: the rows xR for x in
        the kernel of the stacked D_j transposes, read off the basis of the
        trie node for (0, *exps)."""
        field, m, path = self.code.field, self.code.field.m, (0, *exps)
        for _ in self.ranks("cols", path):  # grows the trie along the path
            pass
        node = self._trie["cols"]
        for j in path:
            node = node[2][j % m]
        kernel = la.nullspace(field, field.packed_rows(node[1].rows()), self.code.k)
        return la.rref(field, [la.vec_mat(field, x, self.code.gen) for x in kernel])[0]


def code_equal(c1: LinearCode, c2: LinearCode) -> bool:
    return c1.field == c2.field and c1.n == c2.n and c1.gen == c2.gen


def dual(code: LinearCode) -> LinearCode:
    """Dual with respect to the standard bilinear form sum(u_i v_i): the
    kernel basis read off the stored RREF, put in RREF by one elimination."""
    field, n = code.field, code.n
    gen = la.rref(field, la._free_column_basis(field, code.gen, code.pivots, n))[0]
    return LinearCode(field, n, n - code.k, gen)


# --------------------------------------------------------------------------
# family specifications
# --------------------------------------------------------------------------

class CodeSpec(Record):
    """A member of one family: eta has one entry per twist for
    GeneralizedTwisted, else one."""

    __slots__ = ("family", "n", "k", "theta_exp", "g", "eta", "t", "h")
    _defaults = {"theta_exp": 1, "g": (), "eta": None, "t": None, "h": None}


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

    # the Moore rows, the twists and the RREF in the field's row form
    g = field.row_form([spec.g])[0]
    moore = la.moore_rows(field, g, max([k] + [e + 1 for _, e in twists.values()]), theta)
    rows = list(moore[:k])
    for j, (c, e) in twists.items():
        rows[j] = field.row_add(rows[j], c, moore[e])
    code = LinearCode.from_rows(field, rows, n, in_row_form=True)
    if code.k != k:
        raise BuildError(
            f"internal: construction degenerated to dimension {code.k} != k={k}"
        )
    return code


# --------------------------------------------------------------------------
# code maps
# --------------------------------------------------------------------------

class SemilinearMap(Record):
    """x -> lam * tau(x) * A with A invertible over the subfield F_q and tau
    a full automorphism; the shape of code equivalence."""

    __slots__ = ("lam", "A", "tau")

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
            if not field.in_subfield(a, 1):
                raise ValueError("A must have entries in F_q")
    if la.det(field, smap.A) == 0:
        raise ValueError("A must be invertible")
    rows = tuple(smap.apply_vector(field, r) for r in code.gen)
    return LinearCode.from_rows(field, rows, code.n)


# --------------------------------------------------------------------------
# rank-one codewords, subfield subcode, minimum distance
# --------------------------------------------------------------------------

def _galois_stable_walk(code: LinearCode) -> tuple[int, int]:
    """(top, rank): the first i at which the "cols" ranks after the blocks at
    exponents 0..i and 0..i+1 agree (m-1 when none do), and that rank.  The
    walk reads the code's trie, so a t-row at exponent 1 already walked
    costs no elimination here."""
    prev = -1
    for i, r in enumerate(code.diffs.ranks("cols", range(code.field.m))):
        if r == prev:
            return i - 1, r
        prev = r
    return code.field.m - 1, prev


def _galois_stable_dim(code: LinearCode) -> int:
    """dim V, V as in _galois_stable_part: k minus the "cols" rank at the
    first repeat, with no kernel and no basis formed."""
    return code.k - _galois_stable_walk(code)[1]


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
    are its own entries at the pivot columns, which lie in F_q.  V is T_(m-1)
    of the t-row at exponent 1, equal to T_i at its first repeat
    (invariants), so the walk stops there, sharing t_sequence's eliminations.
    T_top is the set of xR with x in the common left kernel of the D_j
    (Differences.meet), so dim V is k minus the rank of the stacked D_j^T
    at top; the basis is formed only when that is positive."""
    top, rank = _galois_stable_walk(code)
    return code.diffs.meet(range(1, top + 1)) if rank < code.k else ()


def has_rank_one_codeword(code: LinearCode):
    """(bool, witness codeword).  A nonzero codeword of F_q-rank one is a
    scalar times a word of F_q^n, so one exists iff the subfield subcode is
    nonzero; the witness is the first row of its basis.  Recognition needs
    only the bool, which _galois_stable_dim gives without the basis."""
    gen = _galois_stable_part(code)
    return (True, gen[0]) if gen else (False, None)


def _gray_steps(p: int, count: int):
    """The walk over all p^count digit vectors g in modular p-ary Gray order
    (Knuth, TAOCP 4A, 7.2.1.1), from g = 0: yields, for each step, the index
    of the one digit that rises by 1 mod p while the others stay.

    Step t has digits g_r = (t_r - t_(r+1)) mod p, t_r the base-p digits of t.
    From t-1 to t, with s = v_p(t), the digits t_0..t_(s-1) fall from p-1 to
    0 and t_s rises by 1 (t_s < p-1 before).  So g_(s-1) turns from
    (p-1) - t_s into 0 - (t_s + 1), the same residue; g_s rises by 1; every
    other g_r is 0 - 0 or keeps both terms.  t -> g is a bijection
    (t_r = sum of g_r' over r' >= r, mod p), so every digit vector is met
    once.  The same s is the counter an odometer over t steps up, the ones
    below it wrapping to 0: _projective_spreads adds one B_s per step, and
    classify.bruteforce_equivalent adds prefix sums in odometer order."""
    for t in range(1, p ** count):
        s, u = 0, t
        while u % p == 0:
            u //= p
            s += 1
        yield s


def _projective_spreads(code: LinearCode):
    """Yield la.spread(field, c) for each codeword c = sum_i m_i G_i whose
    message m has first nonzero coordinate 1: each of the (Q^k - 1)/(Q - 1)
    such words exactly once, with no field multiplication per word.

    The spread is F_p-linear in c, and m_i = sum_j c_ij x^j over the base-p
    digits c_ij of m_i (x^j is the element packed as p^j).  So with lead
    coordinate L the spread is spread(G_L) + sum_(i > L, j) c_ij B_ij, where
    B_ij = spread(x^j G_i) is computed once per sweep.  The free digits are
    walked in the Gray order of _gray_steps, so each step adds exactly one
    B: at p = 2 that is XOR on ints, at odd p n*e field additions."""
    field = code.field
    p, d = field.p, field.d
    add = operator.xor if p == 2 else field.add
    steps_of = [[tuple(la.spread(field, [field.mul(p**j, a) for a in row])) for j in range(d)]
                for row in code.gen]
    for lead, row in enumerate(code.gen):
        word = tuple(la.spread(field, row))
        yield word
        steps = [b for later in steps_of[lead + 1:] for b in later]
        for s in _gray_steps(p, len(steps)):
            word = tuple(map(add, word, steps[s]))
            yield word


def _least_rank(code: LinearCode) -> int:
    """Least F_q-rank of a nonzero codeword, the sweep ending at a word of
    rank 1.  Every nonzero codeword is a nonzero multiple of one the walk
    yields, with the same rank.  A word's F_p-rank is e times its F_q-rank,
    so reducing it stops at best * e, where it can no longer beat best."""
    field = code.field
    e = field.e
    best = code.n + 1
    for word in _projective_spreads(code):
        r = la._fp_rank(field, word, best * e) // e
        if r < best:
            best = r
            if best == 1:
                break
    return best


def _is_mrd_line(code: LinearCode) -> bool:
    """Whether C is MRD (no nonzero codeword has F_q-rank <= n-k, by the
    Singleton bound), for a code with min(k, n-k) = 1: one F_q-rank test.

    k = 1: the codewords are lam*g, g the one row of the generator, and
    rank_q(lam*g) = rank_q(g) for lam != 0, so C is MRD (d = n) exactly
    when rank_q(g) = n.

    n-k = 1, c the one non-pivot column of the RREF R: C = h^perp for h with
    h_c = 1 and h_(p_i) = -R[i][c] at the pivot p_i of row i (row i of R
    dotted with h is R[i][c] - R[i][c] = 0).  A word of F_q-rank one is
    lam*b, lam != 0 and b in F_q^n nonzero, and it lies in C exactly when
    sum b_i h_i = 0, so C is MRD (d = 2) exactly when the entries of h, which
    span what 1 and the R[i][c] span, are F_q-independent: rank_q = n."""
    field, n, R = code.field, code.n, code.gen
    if code.k == 1:
        return la.rank_q(field, R[0]) == n
    c, = set(range(n)).difference(code.pivots)
    return la.rank_q(field, [1] + [row[c] for row in R]) == n


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
    return _least_rank(code)


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


def _member(doc: dict, key: str, kind: str, convert):
    """convert(doc[key]) for one member of a code file.  A missing member,
    also one of an object member (a KeyError from convert), or a value that
    convert refuses raises ValueError naming the member; a FieldError keeps
    its own message."""
    if key not in doc:
        raise ValueError(f"malformed code: missing member '{key}'")
    try:
        return convert(doc[key])
    except FieldError:
        raise
    except KeyError as exc:
        raise ValueError(f"malformed code: missing member '{key}.{exc.args[0]}'") from None
    except (TypeError, ValueError):
        raise ValueError(f"malformed code: member '{key}' must be {kind}") from None


def code_from_dict(data: dict):
    """(code, provenance) from the dict code_to_dict writes.  A missing
    member, or a value of the wrong JSON type anywhere in it, the whole
    document included, raises ValueError naming the member."""
    if not isinstance(data, dict):
        raise ValueError("malformed code: the document must be a JSON object")
    field = _member(data, "field", "an object of integers p, e, m and an integer array "
                    "modulus", field_from_dict)
    rows = _member(data, "gen", "an array of rows, each an array of coefficient arrays",
                   lambda gen: tuple(tuple(field.from_coeffs(c) for c in row) for row in gen))
    n, k = (_member(data, key, "an integer", exact_int) for key in ("n", "k"))
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
