"""Galois sum/intersection invariants of rank-metric codes.

For a code C of dimension k and a Galois automorphism sigma (a -> a^(q^r)):

    S_i = C + sigma(C) + ... + sigma^i(C)        s_i = dim S_i
    T_i = C n sigma(C) n ... n sigma^i(C)        t_i = dim T_i
    Delta_i = s_{i+1} - s_i                      Lambda_i = t_i - t_{i+1}

Both sequences stabilize as soon as two consecutive values agree; s by step
n-k at the latest and t by step k.  Every dimension comes from the
systematic differences D_j = sigma^j(A) - A of the code (codes.Differences:
R = (I_k | A) up to the order of columns).  LinearCode.diffs is the one
cache of them per code, indexed by j mod m: every sequence, profile,
fingerprint and intersection here reads it, and so do the rank-one
codeword test and Gabidulin recognition.  For a set J of exponents that
contains 0, as every sequence and every triple class key does:

    dim sum_{j in J} sigma^j(C)  = k + rank(D_j stacked, j in J, j != 0)
    dim  n_{j in J}  sigma^j(C)  = k - rank(D_j^T stacked, j in J, j != 0)

Galois automorphisms act entrywise and fix 0 and 1, so sigma^j(R) - R has
the rows of D_j off the pivots and zeros on them, and R with those rows spans
the sum.  The pivot entries of a word y sigma^j(R) are y, so xR lies in
sigma^j(C) exactly when xR = x sigma^j(R), that is when x D_j = 0; the
intersection is R times the common left kernel of the D_j.  One routine,
Differences.ranks, takes a side, D_j (n-k wide) or D_j^T (k wide), and a
sequence of exponents: J = (0, r, 2r, ...) for the s- or t-row at exponent
r, and a triple's class key (0, a, b) for the triples.  It feeds the blocks
at those exponents into an IncrementalRank and records the rank after each
block.
Blocks are indexed by j mod m, so each code has at most m differences to
compute, however many sequences and fingerprints of it are asked for.

Four shortcuts rest on these facts, each proved here; they are statements
about subspaces, so they hold whichever matrices the ranks are taken of:

* Fixed-length rows stop at the first repeat and pad.  S_i is contained in
  S_{i+1} = C + sigma(S_i), so s_i = s_{i+1} means S_i = S_{i+1}; then
  S_{i+2} = C + sigma(S_{i+1}) = C + sigma(S_i) = S_{i+1}, and by induction
  every later value is s_i.  Likewise T_{i+1} = C n sigma(T_i) for t.
* Mirror exponents.  S_i(sigma^-1) = sum_{j<=i} sigma^-j(C)
  = sigma^-i(sum_{j<=i} sigma^(i-j)(C)) = sigma^-i(S_i(sigma)), and a Galois
  automorphism applied to a whole subspace keeps its dimension (it is a
  bijection that maps an F_{q^m}-basis to an F_{q^m}-basis).  Likewise for
  T_i, so the rows at exponent m-r equal those at r.
* Translation classes of triples.  sigma^(a+s)(C) + sigma^(b+s)(C) +
  sigma^(c+s)(C) is sigma^s of the sum for {a, b, c}, and likewise for the
  intersection, so the pair of dimensions depends only on the set {a, b, c}
  up to a common shift mod m.  Its key is the least of sorted((x - s) % m)
  over s in the triple, the shifts that put a 0 first.
* Shared elimination prefixes.  The rank after the blocks at j_1, ..., j_i
  is the dimension of the span of their stacked rows, so it depends only on
  the sequence (j_1, ..., j_i) mod m, and the basis an IncrementalRank holds
  after them spans exactly that space.  Feeding further blocks to a copy of
  it therefore gives the ranks a fresh pass over the whole sequence would
  give, and the copy is a list copy because basis rows are immutable
  (linalg).  So each code keeps a private trie of eliminated prefixes per
  side in code.diffs, and every pass starts from the longest prefix of its
  sequence already fed: the triple key (0, a, b) reuses the state after
  (0, a), which is also the start of the row at exponent a, and a row asked
  for again, with or without a fixed length, feeds nothing new.

Rows stop being fed at full rank, n-k for sums and k for intersections, and
no block is formed there: the span is the whole space, so no row adds to it.

Fingerprints package these dimensions into equivalence-invariant keys:

* consecutive:     for every Galois exponent r in 0..m-1, the fixed-length
                   rows (s_1..s_{n-k}) and (t_1..t_k); the key is the sorted
                   multiset of those pairs, and the exponent-indexed map is
                   kept for diagnostics/witnesses.
* random triples:  dimensions (dim sum, dim intersection) of sigma_1(C),
                   sigma_2(C), sigma_3(C) over seeded random distinct
                   exponent triples; the key is the sorted list of pairs.

Per-exponent (and per-trial) comparison between two codes is also sound
because the full automorphism group is abelian and equivalence matrices have
entries fixed by every Galois automorphism.
"""

from __future__ import annotations

from functools import lru_cache

from . import codes as cd
from .base import Record


def sum_code(code: cd.LinearCode, auts) -> cd.LinearCode:
    """The code sum(aut(C) for aut in auts)."""
    rows = []
    for aut in auts:
        rows.extend(aut.on_vector(r) for r in code.gen)
    return cd.LinearCode.from_rows(code.field, rows, code.n)


def intersect_code(code: cd.LinearCode, auts) -> cd.LinearCode:
    """The code intersect(aut(C) for aut in auts): the first aut applied to
    the intersection of C with its images under the others relative to it."""
    first, *rest = auts
    rows = code.diffs.meet([aut.r - first.r for aut in rest])
    return cd.LinearCode.from_rows(code.field, map(first.on_vector, rows), code.n)


def _sequence(code: cd.LinearCode, side: str, sigma_exp: int, i_max: int | None,
              bound: int) -> list[int]:
    """Ranks of the block at 0, then with the block at sigma_exp added, and so
    on: i_max+1 values when i_max is given (a negative i_max counts as 0),
    otherwise up to and including the first repeated value, which must come
    by index bound.  No block past the first repeat is fed; a fixed-length
    row repeats that value to its end."""
    length = (bound if i_max is None else max(i_max, 0)) + 1
    seq: list[int] = []
    for v in code.diffs.ranks(side, (sigma_exp * i for i in range(length))):
        if seq and v == seq[-1]:
            # every later value is v (see the module docstring)
            return seq + [v] * (1 if i_max is None else length - len(seq))
        seq.append(v)
    if i_max is None:
        raise AssertionError("sequence failed to stabilize")  # pragma: no cover
    return seq


def s_sequence(code: cd.LinearCode, sigma_exp: int, i_max: int | None = None) -> list[int]:
    """[s_0, s_1, ...]: fixed length i_max+1 when i_max is given, otherwise
    up to and including the first repeated value."""
    return [code.k + v for v in _sequence(code, "rows", sigma_exp, i_max, code.n - code.k + 1)]


def t_sequence(code: cd.LinearCode, sigma_exp: int, i_max: int | None = None) -> list[int]:
    """[t_0, t_1, ...]; same length conventions as s_sequence."""
    return [code.k - v for v in _sequence(code, "cols", sigma_exp, i_max, code.k + 1)]


class InvariantProfile(Record):
    """Fixed-length dimension data of one (code, sigma) pair: s_0 .. s_{n-k},
    t_0 .. t_k, Delta_0 .. Delta_{n-k} (Delta_{n-k} = 0) and Lambda_0 ..
    Lambda_k (Lambda_k = 0)."""

    __slots__ = ("sigma", "s", "t", "delta", "lam")

    @property
    def key(self):
        return (self.s[1:], self.t[1:])


def invariant_profile(code: cd.LinearCode, sigma_exp: int) -> InvariantProfile:
    n, k = code.n, code.k
    s, t = s_sequence(code, sigma_exp, n - k + 1), t_sequence(code, sigma_exp, k + 1)
    return InvariantProfile(sigma_exp % code.field.m, tuple(s[: n - k + 1]), tuple(t[: k + 1]),
                            tuple(b - a for a, b in zip(s, s[1:])),
                            tuple(a - b for a, b in zip(t, t[1:])))


class Fingerprint(Record):
    """Equivalence-invariant key plus its per-exponent / per-trial detail.

    Equality, hashing and repr use only (mode, key): the key is the sorted
    multiset the comparison contract is defined on, while detail keeps the
    exponent-indexed profiles (or trial-indexed dimension pairs) for witness
    extraction."""

    __slots__ = ("mode", "key", "detail")
    _compared = ("mode", "key")


def fingerprint_consecutive(code: cd.LinearCode) -> Fingerprint:
    """Sorted multiset of (s-row, t-row) over all m Galois exponents."""
    m = code.field.m
    profiles: list[InvariantProfile] = []
    for r in range(m):
        # the rows at m-r equal those at r (mirror exponents, see above)
        if m - r < r:
            mirror = profiles[m - r]
            profiles.append(InvariantProfile(r, mirror.s, mirror.t, mirror.delta, mirror.lam))
        else:
            profiles.append(invariant_profile(code, r))
    key = tuple(sorted(p.key for p in profiles))
    return Fingerprint("consecutive", key, tuple(profiles))


@lru_cache(maxsize=32)
def random_triples(m: int, trials: int, seed: int) -> tuple[tuple[int, int, int], ...]:
    """The seeded exponent triples shared by every code in a comparison
    (cached per argument tuple, so every code compared draws them once)."""
    from .rng import DetRNG  # here, not above: `rankinv invariants` draws no triple

    if m < 3:
        raise ValueError("need m >= 3 for distinct triples")
    return tuple(tuple(DetRNG(seed, f"census-triples/{idx}").sample_distinct(3, m))
                 for idx in range(trials))


@lru_cache(maxsize=32)
def _translation_classes(triples, m: int) -> tuple[tuple[int, int, int], ...]:
    """The translation class key of each triple (cached per triple set, so
    every code compared keys them once): the least of sorted((x - s) % m)
    over s in the triple (see above)."""
    return tuple(min(tuple(sorted((x - s) % m for x in triple)) for s in triple)
                 for triple in triples)


def fingerprint_random_triples(code: cd.LinearCode, trials: int = 100, seed: int = 0) -> Fingerprint:
    """Sorted (dim sum, dim intersection) pairs over seeded sigma-triples."""
    m, k = code.field.m, code.k
    classes = _translation_classes(random_triples(m, trials, seed), m)
    by_class = {}
    for cls in dict.fromkeys(classes):
        *_, a = code.diffs.ranks("rows", cls)
        *_, b = code.diffs.ranks("cols", cls)
        by_class[cls] = (k + a, k - b)
    pairs = tuple(by_class[cls] for cls in classes)
    return Fingerprint("random_triples", tuple(sorted(pairs)), pairs)
