"""The census: how many parameter classes of one-twist generalized-twisted
codes over a doubled field (m = 2n) the invariant fingerprints distinguish.

census() reports the lower bounds LB1/LB2 against the parameter upper bound
UB (counting.census_ub), reading each code's dimensions off a gain graph
instead of building it; its docstring holds the proofs.  classify re-exports
census and CensusReport, so `classify.census` is the entry point that the
CLI calls.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import gf
from . import invariants as iv
from . import linalg as la
from .counting import _q_to_pe, census_param_classes
from .numtheory import _prime_factors
from .rng import DetRNG


@dataclass(frozen=True)
class CensusReport:
    q: int
    n: int
    m: int
    k: int
    seed: int
    trials: int
    g: tuple[int, ...]
    eta: int
    ub: int
    lb1: int
    lb2: int
    params: tuple[tuple[int, int, int], ...]
    fingerprints1: tuple           # consecutive keys, aligned with params
    fingerprints2: tuple           # random-triple keys, aligned with params


def _frame_add(ring, state, units: int, u: int, w: int, a: int, b: int):
    """(state, rank) after the units e_v, v in the bit mask units, and the
    row zeta^a*e_u + zeta^b*e_w (u != w) join the frame (see census), where
    ring = (N, half): zeta has order N and zeta^half = -1.  A state is
    (cov, edges): cov the mask of covered vertices, and edges the forest on
    uncovered vertices, each edge (mask of its ends, u, w, d) with
    f_w = zeta^d*f_u, so the rank is |cov| + len(edges) (see census).  A
    new edge between uncovered ends walks the potentials of u's tree until
    w is reached: a balanced cycle drops it, an unbalanced one covers u and
    so, by the closure, its tree."""
    cov, edges = state
    new = cov | units
    ends = 1 << u | 1 << w
    if new & ends:
        new |= ends
    else:
        n_ring, half = ring
        d = (half + a - b) % n_ring
        pots = {u: 0}
        grown = True
        while grown and w not in pots:  # potentials on u's tree, until w is reached
            grown = False
            for _, x, y, dxy in edges:
                if x in pots:
                    if y not in pots:
                        pots[y] = pots[x] + dxy
                        grown = True
                elif y in pots:
                    pots[x] = pots[y] - dxy
                    grown = True
        if w not in pots:
            edges = edges + [(ends, u, w, d)]
        elif (pots[w] - d) % n_ring:  # an unbalanced cycle covers the tree
            new |= 1 << u
        # a balanced cycle: the edge is dependent and is dropped
    if edges and new != cov:  # an edge with a covered end covers its other end
        grown = True
        while grown:
            grown = False
            rest = []
            for edge in edges:
                if new & edge[0]:
                    new |= edge[0]
                    grown = True
                else:
                    rest.append(edge)
            edges = rest
    return (new, edges), new.bit_count() + len(edges)


def _frame_blocks(ring, n: int, k: int, conj, r: int, t: int, h: int):
    """The rows of sigma^a(C) and of sigma^a(C^perp), a in Z_m, as the
    (units, u, w, a, b) of _frame_add (see census); zeta^conj[a] = eta^[a]."""
    n_ring, half = ring
    full, support = (1 << n) - 1, sum(1 << r * j % n for j in range(k))
    x, y = r * h % n, r * (k - 1 + t) % n
    shifts = [(a % n, (x + a) % n, (y + a) % n, c) for a, c in enumerate(conj)]
    code, perp = support & ~(1 << x), full & ~support & ~(1 << y)
    return ([((code << s | code >> n - s) & full, u, w, 0, c) for s, u, w, c in shifts],
            [((perp << s | perp >> n - s) & full, u, w, (c + half) % n_ring, 0)
             for s, u, w, c in shifts])


def _census_class_keys(args):
    """Both fingerprint keys of one parameter class, off the frame (census),
    with no field arithmetic: every argument is a plain int or a tuple of
    them, and classes holds each distinct triple class (0, c1, c2) with its
    count."""
    ring, n, k, conj, cls, classes = args
    m = len(conj)
    keys = []
    for side, length in zip(_frame_blocks(ring, n, k, conj, *cls), (n - k, k)):
        state0, v0 = _frame_add(ring, (0, []), *side[0])
        firsts = [_frame_add(ring, state0, *side[a]) for a in range(n + 1)]  # blocks 0 and a
        rows = []  # the rows at m-a equal those at a; a row stops at full rank or a repeat
        for a, (state, v) in enumerate(firsts):
            row, last = [v], v0
            while len(row) < length and last < v < n:
                last = v
                state, v = _frame_add(ring, state, *side[a * (len(row) + 1) % m])
                row.append(v)
            rows.append(tuple(row) + (v,) * (length - len(row)))
        # c1 is the least of the triple's three gaps c1, c2 - c1, m - c2, so
        # firsts[c1] holds blocks 0 and c1; a full-rank pair settles the
        # triple (census)
        pair = [v for _, v in firsts]
        pair += pair[n - 1:0:-1]  # pair[g] = rank of blocks 0 and g, g in Z_m
        keys.append((rows, [n if n in (pair[c1], pair[c2 - c1], pair[c2])
                            else _frame_add(ring, firsts[c1][0], *side[c2])[1]
                            for (_, c1, c2), _ in classes]))
    (s_rows, s3), (t_rows, t3) = keys
    pairs = [(s, tuple(n - v for v in t)) for s, t in zip(s_rows, t_rows)]
    counts = {}  # each distinct (s, t) of the triple key, with its count
    for s, t, (_, count) in zip(s3, t3, classes):
        counts[s, n - t] = counts.get((s, n - t), 0) + count
    triples = []
    for st in sorted(counts):
        triples += [st] * counts[st]
    return tuple(sorted(pairs + pairs[1:n])), tuple(triples)  # a in 1..n-1 stands for m-a too


def _eta_exponents(field: gf.FieldTower, eta: int) -> tuple[int, int, int]:
    """(N, half, le) for the nonzero eta (see census): zeta = eta, or -eta
    when p is odd and eta has odd order, has order N, zeta^half = -1 and
    zeta^le = eta.  ord(eta) is Q - 1 with each prime l | Q - 1 divided out
    while eta^(o/l) = 1."""
    o = field.Qm1
    for ell in _prime_factors(o):
        while o % ell == 0 and field.pow(eta, o // ell) == 1:
            o //= ell
    if field.p == 2:
        return o, 0, 1
    if o % 2 == 0:
        return o, o // 2, 1
    return 2 * o, o, o + 1


def census(q: int, n: int, k: int, seed: int, trials: int = 100,
           jobs: int = 1) -> tuple[CensusReport, gf.FieldTower]:
    """Fingerprint the one-twist generalized-twisted code of every parameter
    class over F_{q^m}, m = 2n, with a shared random g (entries in F_{q^n},
    full F_q-rank) and eta outside F_{q^n}; count distinguishable
    fingerprints.  The classes run one after another in this process, for
    every jobs >= 1 (jobs < 1 is an error): a class costs well under a
    millisecond, so a process pool's start-up cost more than it saved.

    No code is built: the keys are read off the Moore frame of g.  Write
    x^[a] = x^(q^a), sigma^a for it applied entrywise, and [v] = v mod n.

    * Basis.  e_j = g^[j], j in Z_n, is a basis of F_{q^m}^n: g has F_q-rank
      n (Moore; Lidl and Niederreiter, Finite Fields, Lemma 3.51), and
      g^[n] = g as g lies in F_{q^n}^n.
    * Shift.  sigma^a(e_j) = e_[j+a], so sigma^a(sum c_j e_j) = sum c_j^[a] e_[j+a].
    * Sparse rows.  Class (r, t, h) has rows theta^j(g) = e_[rj], j < k,
      j != h, and e_x + eta*e_y, x = [rh], y = [r(k-1+t)] (n divides m).
      gcd(r, n) = 1 and 1 <= t <= n-k, so S = {[rj] : j < k} and y are k+1
      distinct indices.
    * Complement.  For u.v = sum u_j v_j in e-coordinates, C^perp has the
      n-k independent rows e_v, v outside S and y, and -eta*e_x + e_y.  By
      the shift, sigma^a(u).sigma^a(v) = (u.v)^[a]: sigma^a commutes with perp.

    So dim sum_{a in J} sigma^a(C) is the rank of the rows shifted by each
    a in J with gains eta^[a] (a mod m), and dim n_{a in J} sigma^a(C) is n
    minus that rank for C^perp.  Such rows form the frame matroid of a gain
    graph on Z_n (Zaslavsky, "Biased graphs II: the three matroids", JCTB
    1991): a unit covers its vertex, a*e_u + b*e_w is an edge, and the rank
    is n - dim K, K the f with f_v = 0 on units and a*f_u + b*f_w = 0 on
    edges.  On a component f_v = phi_v*f_root along a spanning tree, and
    f_root = 0 once a vertex is covered or an edge closes a cycle with
    a*phi_u + b*phi_w != 0 (unbalanced): the rank is n minus the number of
    uncovered components with only balanced cycles.

    * Forest.  _frame_add keeps the covered vertices cov and a forest of
      edges on uncovered vertices, so the rank is |cov| + (number of edges).
      This holds after each step: an edge with a covered end covers its
      other end (a*f_u = -b*f_w, a, b != 0), and the closure repeats that;
      an edge joining two trees keeps them one balanced tree; one closing a
      balanced cycle is implied by the tree path (it fixes f_w from f_u as
      the path does) and is dropped; one closing an unbalanced cycle forces
      f_root = 0 and covers its tree.  So each uncovered component is a
      balanced tree (a lone vertex included) with t vertices and t - 1
      edges, and the rank is n - #components = |cov| + sum (t - 1).

    * Exponents.  Every gain is 1, eta^[a] or -eta^[a], so every phi_v lies
      in the cyclic group generated by zeta, chosen by _eta_exponents with
      o = ord(eta): zeta = eta, N = o and half = 0 when p = 2, as then
      -1 = 1; zeta = eta, N = o and half = o/2 when o is even, as eta^(o/2)
      has order 2 and -1 is the one such element of a cyclic group; and
      otherwise zeta = -eta, of order N = 2o as gcd(2, o) = 1, with
      zeta^o = -eta^o = -1 (half = o) and zeta^(o+1) = -zeta = eta.  So with
      le = 1, or o+1 in the last case, eta^[a] = zeta^(le*q^a) and
      -1 = zeta^half, and since zeta has order N, zeta^x = zeta^y exactly
      when x = y mod N.  A gain or potential is thus its exponent mod N, a
      product the sum of exponents, and a*phi_u + b*phi_w = 0, that is
      a*phi_u = -1*b*phi_w, the congruence x_a + x_u = half + x_b + x_w.
      Once ord(eta) is found (one pow per prime l | Q - 1, and one more per
      factor l divided out) the keys take no field arithmetic.

    The sets J, with their proofs, are those of invariants: mirror halves, a
    stop at the first repeat (or full rank), triple translation classes.

    * Full-rank pairs.  Rank is monotone in the set of blocks, and
      rank(a + J) = rank(J): the blocks at a + J are sigma^a of those at J,
      and sigma^a keeps dimensions.  So rank{0, g} = rank{m - g, 0}, and for
      the triple class (0, c1, c2), c1 its least gap, the pairs {0, c1},
      {c1, c2} and {0, c2} have the ranks of {0, g} for g = c1,
      min(c2 - c1, m - c2 + c1) and min(c2, m - c2), all at most n and all
      computed for the rows.  When one of them is n, so is the triple's
      rank, and no _frame_add call is made for it."""
    m = 2 * n
    if n < 6:
        raise ValueError("census needs n >= 6")
    if not 2 <= k <= n - 2:
        raise ValueError("census needs 2 <= k <= n-2")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    p, e = _q_to_pe(q)
    field = gf.make_field(p, e, m)

    g = la.random_full_rank_vector(field, n, DetRNG(seed, "census-g"), subfield_size=q**n)
    rng_eta = DetRNG(seed, "census-eta")
    for _ in range(10000):
        eta = field.random_element(rng_eta)
        if not field.in_subfield(eta, n):
            break
    else:  # pragma: no cover
        raise RuntimeError("could not sample eta outside the half-degree subfield")

    params = tuple(census_param_classes(n, k))
    n_ring, half, le = _eta_exponents(field, eta)
    conj = tuple(le * pow(q, a, n_ring) % n_ring for a in range(m))
    classes = tuple(Counter(iv._translation_classes(iv.random_triples(m, trials, seed), m)).items())
    tasks = [((n_ring, half), n, k, conj, cls, classes) for cls in params]
    fps1, fps2 = zip(*map(_census_class_keys, tasks))
    report = CensusReport(
        q=q, n=n, m=m, k=k, seed=seed, trials=trials, g=g, eta=eta,
        ub=len(params), lb1=len(set(fps1)), lb2=len(set(fps2)),
        params=params, fingerprints1=fps1, fingerprints2=fps2,
    )
    return report, field
