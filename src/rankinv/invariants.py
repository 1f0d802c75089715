"""Galois sum/intersection invariants of rank-metric codes.

For a code C of dimension k and a Galois automorphism sigma (a -> a^(q^r)):

    S_i = C + sigma(C) + ... + sigma^i(C)        s_i = dim S_i
    T_i = C n sigma(C) n ... n sigma^i(C)        t_i = dim T_i
    Delta_i = s_{i+1} - s_i                      Lambda_i = t_i - t_{i+1}

Both sequences stabilize as soon as two consecutive values agree; s by step
n-k at the latest and t by step k.  One routine, _ranks, gives every
dimension: it feeds blocks of rows into one IncrementalRank and records the
rank after each block.  A sum's blocks are Galois images of the rows of C.
An intersection's are the images of the rows of dual(C), and its dimension
is n minus the rank, because sigma(dual C) = dual(sigma(C)) and the dual of a
sum of duals is the intersection.  Fingerprints compute the dual once.

Every block is taken from an image cache, one per generator matrix, that
maps j (mod m) to theta^j(rows), theta the Frobenius a -> a^q, and computes
each image on first use.  Block i for exponent r is image r*i mod m, so each
matrix has at most m images to compute, however many sequences use them.

Three shortcuts rest on these facts, each proved here:

* Fixed-length rows stop at the first repeat and pad.  S_i is contained in
  S_{i+1} = C + sigma(S_i), so s_i = s_{i+1} means S_i = S_{i+1}; then
  S_{i+2} = C + sigma(S_{i+1}) = C + sigma(S_i) = S_{i+1}, and by induction
  every later value is s_i.  The same holds for the sums of duals behind t.
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

from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache

from . import codes as cd
from . import linalg as la
from .gf import GaloisAut
from .rng import DetRNG


def sum_code(code: cd.LinearCode, auts) -> cd.LinearCode:
    """The code sum(aut(C) for aut in auts)."""
    rows = []
    for aut in auts:
        rows.extend(aut.on_vector(r) for r in code.gen)
    return cd.LinearCode.from_rows(code.field, rows, code.n)


def intersect_code(code: cd.LinearCode, auts) -> cd.LinearCode:
    """The code intersect(aut(C) for aut in auts), via duals."""
    dual_sum = sum_code(cd.dual(code), auts)
    return cd.dual(dual_sum)


class _Images:
    """theta^j(rows) of one generator matrix, indexed by j and taken mod m;
    each image is computed on first use."""

    def __init__(self, field, rows):
        self.field = field
        self._blocks = {0: tuple(rows)}

    def __getitem__(self, j: int) -> tuple:
        j %= self.field.m
        block = self._blocks.get(j)
        if block is None:
            aut = GaloisAut(self.field, j)
            block = self._blocks[j] = tuple(aut.on_vector(r) for r in self._blocks[0])
        return block


def _ranks(field, blocks):
    """Rank of the rows fed so far, after each block of rows (lazily).  Rows
    met at full rank (rank = row length) are skipped: they cannot add to it."""
    inc = la.IncrementalRank(field)
    for block in blocks:
        for row in block:
            if inc.rank == len(row):
                break
            inc.add_row(row)
        yield inc.rank


def _sequence(images: _Images, sigma_exp: int, i_max: int | None, bound: int | None = None) -> list[int]:
    """[dim G, dim(G + sigma(G)), ...] for the rows G = images[0]: i_max+1
    values when i_max is given (a negative i_max counts as 0), otherwise up
    to and including the first repeated value, which must come by index
    bound.  No block past the first repeat is built; a fixed-length row
    repeats that value to its end."""
    length = (bound if i_max is None else max(i_max, 0)) + 1
    seq: list[int] = []
    for v in _ranks(images.field, (images[sigma_exp * i] for i in range(length))):
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
    return _sequence(_Images(code.field, code.gen), sigma_exp, i_max, code.n - code.k + 1)


def t_sequence(code: cd.LinearCode, sigma_exp: int, i_max: int | None = None) -> list[int]:
    """[t_0, t_1, ...]; same length conventions as s_sequence."""
    sd = _sequence(_Images(code.field, cd.dual(code).gen), sigma_exp, i_max, code.k + 1)
    return [code.n - v for v in sd]


@dataclass(frozen=True)
class InvariantProfile:
    """Fixed-length dimension data of one (code, sigma) pair."""

    sigma: int
    s: tuple[int, ...]       # s_0 .. s_{n-k}
    t: tuple[int, ...]       # t_0 .. t_k
    delta: tuple[int, ...]   # Delta_0 .. Delta_{n-k}   (Delta_{n-k} = 0)
    lam: tuple[int, ...]     # Lambda_0 .. Lambda_k     (Lambda_k = 0)

    @property
    def key(self):
        return (self.s[1:], self.t[1:])


def invariant_profile(code: cd.LinearCode, sigma_exp: int) -> InvariantProfile:
    return _CodeImages(code).profile(sigma_exp)


@dataclass(frozen=True)
class Fingerprint:
    """Equivalence-invariant key plus its per-exponent / per-trial detail.

    Equality, hashing and repr use only (mode, key): the key is the sorted
    multiset the comparison contract is defined on, while detail keeps the
    exponent-indexed profiles (or trial-indexed dimension pairs) for witness
    extraction."""

    mode: str
    key: tuple
    detail: tuple = dc_field(compare=False, repr=False)


class _CodeImages:
    """One code with the image caches of its rows and of its dual's rows.
    The fingerprints of one code share it, so the dual and each Galois image
    are computed once."""

    def __init__(self, code: cd.LinearCode):
        self.code = code
        self.sums = _Images(code.field, code.gen)
        self.meets = _Images(code.field, cd.dual(code).gen)

    def profile(self, sigma_exp: int) -> InvariantProfile:
        n, k = self.code.n, self.code.k
        s = _sequence(self.sums, sigma_exp, n - k + 1)
        t = [n - v for v in _sequence(self.meets, sigma_exp, k + 1)]
        delta = tuple(s[i + 1] - s[i] for i in range(n - k + 1))
        lam = tuple(t[i] - t[i + 1] for i in range(k + 1))
        return InvariantProfile(
            sigma=sigma_exp % self.code.field.m,
            s=tuple(s[: n - k + 1]),
            t=tuple(t[: k + 1]),
            delta=delta,
            lam=lam,
        )

    def fingerprint_consecutive(self) -> Fingerprint:
        m = self.code.field.m
        profiles: list[InvariantProfile] = []
        for r in range(m):
            # the rows at m-r equal those at r (mirror exponents, see above)
            profiles.append(replace(profiles[m - r], sigma=r) if m - r < r else self.profile(r))
        key = tuple(sorted(p.key for p in profiles))
        return Fingerprint("consecutive", key, tuple(profiles))

    def fingerprint_random_triples(self, trials: int, seed: int) -> Fingerprint:
        field, n, m = self.code.field, self.code.n, self.code.field.m
        by_class: dict[tuple, tuple[int, int]] = {}
        pairs = []
        for triple in random_triples(m, trials, seed):
            # one pair per translation class (see above)
            cls = min(tuple(sorted((x - s) % m for x in triple)) for s in triple)
            pair = by_class.get(cls)
            if pair is None:
                *_, a = _ranks(field, (self.sums[x] for x in cls))
                *_, b = _ranks(field, (self.meets[x] for x in cls))
                pair = by_class[cls] = (a, n - b)
            pairs.append(pair)
        return Fingerprint("random_triples", tuple(sorted(pairs)), tuple(pairs))


def fingerprint_consecutive(code: cd.LinearCode) -> Fingerprint:
    """Sorted multiset of (s-row, t-row) over all m Galois exponents."""
    return _CodeImages(code).fingerprint_consecutive()


@lru_cache(maxsize=32)
def random_triples(m: int, trials: int, seed: int) -> tuple[tuple[int, int, int], ...]:
    """The seeded exponent triples shared by every code in a comparison
    (cached per argument tuple, so every class of a census draws them once)."""
    if m < 3:
        raise ValueError("need m >= 3 for distinct triples")
    return tuple(tuple(DetRNG(seed, f"census-triples/{idx}").sample_distinct(3, m))
                 for idx in range(trials))


def fingerprint_random_triples(code: cd.LinearCode, trials: int = 100, seed: int = 0) -> Fingerprint:
    """Sorted (dim sum, dim intersection) pairs over seeded sigma-triples."""
    return _CodeImages(code).fingerprint_random_triples(trials, seed)
