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

from dataclasses import dataclass, field as dc_field
from itertools import accumulate, repeat

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


def _ranks(field, blocks):
    """Rank of the rows fed so far, after each block of rows (lazily)."""
    inc = la.IncrementalRank(field)
    for block in blocks:
        for row in block:
            inc.add_row(row)
        yield inc.rank


def _sequence(field, gen, sigma_exp: int, i_max: int | None, bound: int | None = None) -> list[int]:
    """[dim G, dim(G + sigma(G)), ...] for the rows G: i_max+1 values when
    i_max is given, otherwise up to and including the first repeated value,
    which must come by index bound.  Each block is sigma applied to the block
    before it, built only when its rank is asked for."""
    sigma = GaloisAut(field, sigma_exp)
    blocks = accumulate(repeat(None, i_max if i_max is not None else bound),
                        lambda block, _: tuple(sigma.on_vector(r) for r in block), initial=gen)
    ranks = _ranks(field, blocks)
    if i_max is not None:
        return list(ranks)
    seq = [next(ranks)]
    for v in ranks:
        seq.append(v)
        if v == seq[-2]:
            return seq
    raise AssertionError("sequence failed to stabilize")  # pragma: no cover


def s_sequence(code: cd.LinearCode, sigma_exp: int, i_max: int | None = None) -> list[int]:
    """[s_0, s_1, ...]: fixed length i_max+1 when i_max is given, otherwise
    up to and including the first repeated value."""
    return _sequence(code.field, code.gen, sigma_exp, i_max, code.n - code.k + 1)


def t_sequence(code: cd.LinearCode, sigma_exp: int, i_max: int | None = None) -> list[int]:
    """[t_0, t_1, ...]; same length conventions as s_sequence."""
    sd = _sequence(code.field, cd.dual(code).gen, sigma_exp, i_max, code.k + 1)
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
    return _profile(code, cd.dual(code).gen, sigma_exp)


def _profile(code: cd.LinearCode, dual_gen, sigma_exp: int) -> InvariantProfile:
    n, k = code.n, code.k
    s = _sequence(code.field, code.gen, sigma_exp, n - k + 1)
    t = [n - v for v in _sequence(code.field, dual_gen, sigma_exp, k + 1)]
    delta = tuple(s[i + 1] - s[i] for i in range(n - k + 1))
    lam = tuple(t[i] - t[i + 1] for i in range(k + 1))
    return InvariantProfile(
        sigma=sigma_exp % code.field.m,
        s=tuple(s[: n - k + 1]),
        t=tuple(t[: k + 1]),
        delta=delta,
        lam=lam,
    )


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


def fingerprint_consecutive(code: cd.LinearCode) -> Fingerprint:
    """Sorted multiset of (s-row, t-row) over all m Galois exponents."""
    dual_gen = cd.dual(code).gen
    profiles = tuple(_profile(code, dual_gen, r) for r in range(code.field.m))
    key = tuple(sorted(p.key for p in profiles))
    return Fingerprint("consecutive", key, profiles)


def random_triples(m: int, trials: int, seed: int) -> list[tuple[int, int, int]]:
    """The seeded exponent triples shared by every code in a comparison."""
    if m < 3:
        raise ValueError("need m >= 3 for distinct triples")
    out = []
    for idx in range(trials):
        rng = DetRNG(seed, f"census-triples/{idx}")
        out.append(tuple(rng.sample_distinct(3, m)))
    return out


def fingerprint_random_triples(code: cd.LinearCode, trials: int = 100, seed: int = 0) -> Fingerprint:
    """Sorted (dim sum, dim intersection) pairs over seeded sigma-triples."""
    field = code.field
    dual_gen = cd.dual(code).gen
    pairs = []
    for triple in random_triples(field.m, trials, seed):
        auts = [GaloisAut(field, r) for r in triple]
        *_, a = _ranks(field, (tuple(aut.on_vector(r) for r in code.gen) for aut in auts))
        *_, b = _ranks(field, (tuple(aut.on_vector(r) for r in dual_gen) for aut in auts))
        pairs.append((a, code.n - b))
    return Fingerprint("random_triples", tuple(sorted(pairs)), tuple(pairs))
