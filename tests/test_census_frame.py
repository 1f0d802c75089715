"""The census reads every key off the Moore frame of g (rankinv.census).

The keys are checked against the fingerprints of the built codes, each of
the five facts the census docstring proves is checked on its own, the frame
rank is checked against elimination, and the keys of stored seeds against
bench/refs.json."""

import hashlib
import json
import math
from pathlib import Path

import pytest
import sympy

from conftest import FP_FIELDS, FP_IDS
import rankinv.census as cs
import rankinv.codes as cd
import rankinv.invariants as iv
import rankinv.linalg as la
from rankinv import gf
from rankinv.gf import GaloisAut, make_field
from rankinv.rng import DetRNG

REFS = Path(__file__).resolve().parents[1] / "bench" / "refs.json"

# (backend, q, n, k): p in {2, 3} and e in {1, 2}; q = 4 and q = 9 have
# Q above TABLE_LIMIT, so they run on the generic backend
CASES = [("table", 2, 6, 2), ("table", 3, 6, 2), ("table", 2, 7, 3), ("table", 3, 6, 4),
         ("table", 2, 8, 3), ("generic", 2, 6, 2), ("generic", 3, 6, 3),
         ("generic", 4, 6, 2), ("generic", 9, 6, 2)]
CASE_IDS = [f"{b}-q{q}n{n}k{k}" for b, q, n, k in CASES]
# the built codes' fingerprints on the tower backend (d = 2n*e is even)
TOWER_CASES = [("tower", 2, 6, 2), ("tower", 3, 6, 3), ("tower", 4, 6, 2), ("tower", 9, 6, 2)]
TOWER_IDS = [f"{b}-q{q}n{n}k{k}" for b, q, n, k in TOWER_CASES]


def _census(monkeypatch, backend, q, n, k, seed, trials=20):
    """census() with every field it makes on the given backend."""
    real = gf.make_field
    monkeypatch.setattr(gf, "make_field", lambda p, e, m: real(p, e, m, backend=backend))
    report, field = cs.census(q, n, k, seed, trials=trials)
    assert field.backend == backend
    return report, field


def _code(field, report, cls):
    r, t, h = cls
    return cd.build(field, cd.make_spec("GeneralizedTwisted", report.n, report.k, r, report.g,
                                        eta=(report.eta,), t=(t,), h=(h,)))


def _frame(field, report):
    """E, whose row j is e_j = g^[j], and the census's ring (N, half), the
    exponents conj with zeta^conj[a] = eta^[a], a in Z_m, and zeta."""
    n_ring, half, le = cs._eta_exponents(field, report.eta)
    zeta = report.eta if le == 1 else field.neg(report.eta)
    conj = tuple(le * field.q**a % n_ring for a in range(field.m))
    return _moore(field, report.g), (n_ring, half), conj, zeta


def _moore(field, g):
    return tuple(GaloisAut(field, j).on_vector(g) for j in range(len(g)))


def _e_rows(field, zeta, n, block):
    """The rows of one _frame_add block in e-coordinates, its gains the
    powers of zeta."""
    units, u, w, a, b = block
    rows = [tuple(int(i == v) for i in range(n)) for v in range(n) if units >> v & 1]
    edge = [0] * n
    edge[u], edge[w] = field.pow(zeta, a), field.pow(zeta, b)
    return rows + [tuple(edge)]


def _span(field, rows, n):
    return cd.LinearCode.from_rows(field, rows, n)


def _e_image(field, rows, a):
    """sigma^a in e-coordinates: conjugate each entry and shift by a (mod n)."""
    n = len(rows[0])
    return [tuple(field.frob_q(row[(i - a) % n], a) for i in range(n)) for row in rows]


# --------------------------------------------------------------------------
# keys against the fingerprints of the built codes
# --------------------------------------------------------------------------

@pytest.mark.parametrize("case", CASES + TOWER_CASES, ids=CASE_IDS + TOWER_IDS)
@pytest.mark.parametrize("seed", [1, 7, 19])
def test_census_keys_match_built_code_fingerprints(monkeypatch, case, seed):
    backend, q, n, k = case
    report, field = _census(monkeypatch, backend, q, n, k, seed)
    for cls, fp1, fp2 in zip(report.params, report.fingerprints1, report.fingerprints2):
        code = _code(field, report, cls)
        assert fp1 == iv.fingerprint_consecutive(code).key, cls
        assert fp2 == iv.fingerprint_random_triples(code, 20, seed).key, cls


# --------------------------------------------------------------------------
# the four facts
# --------------------------------------------------------------------------

FACT_CASES = [("table", 3, 6, 2), ("table", 2, 7, 3), ("generic", 9, 6, 2)]
FACT_IDS = [f"{b}-q{q}n{n}k{k}" for b, q, n, k in FACT_CASES]


@pytest.mark.parametrize("case", FACT_CASES, ids=FACT_IDS)
def test_frame_basis(monkeypatch, case):
    backend, q, n, k = case
    report, field = _census(monkeypatch, backend, q, n, k, seed=3, trials=0)
    # the Moore criterion both ways: full F_q-rank, and a vector that lacks it
    assert la.rank_q(field, report.g) == n and la.rank(field, _moore(field, report.g)) == n
    flat = report.g[:-1] + (field.add(report.g[0], report.g[1]),)
    assert la.rank(field, _moore(field, flat)) < n
    # g lies in F_{q^n}^n, so the indices of the basis run mod n
    assert GaloisAut(field, n).on_vector(report.g) == report.g


@pytest.mark.parametrize("case", FACT_CASES, ids=FACT_IDS)
def test_frame_shift(monkeypatch, case):
    backend, q, n, k = case
    report, field = _census(monkeypatch, backend, q, n, k, seed=4, trials=0)
    E, ring, conj, zeta = _frame(field, report)
    m = field.m
    for a in range(m):
        for j in range(n):
            assert GaloisAut(field, a).on_vector(E[j]) == E[(j + a) % n]
    for cls in report.params:
        code = _code(field, report, cls)
        side = cs._frame_blocks(ring, n, k, conj, *cls)[0]
        for a in range(m):
            image = _span(field, [GaloisAut(field, a).on_vector(row) for row in code.gen], n)
            rows = [la.vec_mat(field, c, E) for c in _e_rows(field, zeta, n, side[a])]
            assert cd.code_equal(_span(field, rows, n), image), (cls, a)


@pytest.mark.parametrize("case", FACT_CASES, ids=FACT_IDS)
def test_frame_sparse_rows(monkeypatch, case):
    backend, q, n, k = case
    report, field = _census(monkeypatch, backend, q, n, k, seed=5, trials=0)
    E, ring, conj, zeta = _frame(field, report)
    for r, t, h in report.params:
        support = [r * j % n for j in range(k)] + [r * (k - 1 + t) % n]
        assert len(set(support)) == k + 1
        units, u, w, a, b = cs._frame_blocks(ring, n, k, conj, r, t, h)[0][0]
        assert (u, w) == (r * h % n, support[-1])
        assert (field.pow(zeta, a), field.pow(zeta, b)) == (1, report.eta)
        assert units == sum(1 << v for v in support[:k]) & ~(1 << u)
        rows = [la.vec_mat(field, c, E) for c in _e_rows(field, zeta, n, (units, u, w, a, b))]
        assert cd.code_equal(_span(field, rows, n), _code(field, report, (r, t, h)))


@pytest.mark.parametrize("case", FACT_CASES, ids=FACT_IDS)
def test_frame_complement(monkeypatch, case):
    backend, q, n, k = case
    report, field = _census(monkeypatch, backend, q, n, k, seed=6, trials=0)
    _, ring, conj, zeta = _frame(field, report)
    for cls in report.params:
        sides = cs._frame_blocks(ring, n, k, conj, *cls)
        code_e = _e_rows(field, zeta, n, sides[0][0])
        perp_e = la.nullspace(field, code_e, n)  # the coordinate form in e-coordinates
        for a in range(field.m):
            rows = _e_rows(field, zeta, n, sides[0][a])
            comp = _e_rows(field, zeta, n, sides[1][a])
            # the blocks at a are sigma^a of those at 0, and sigma^a commutes with perp
            assert cd.code_equal(_span(field, rows, n), _span(field, _e_image(field, code_e, a), n))
            assert cd.code_equal(_span(field, comp, n), _span(field, _e_image(field, perp_e, a), n))
            assert cd.code_equal(_span(field, comp, n),
                                 _span(field, la.nullspace(field, rows, n), n)), (cls, a)


# --------------------------------------------------------------------------
# the frame rank against elimination
# --------------------------------------------------------------------------

def _alpha_ring(field):
    """zeta = alpha, of order N = Q - 1, with -1 = alpha^((Q-1)/2), or 1 at p = 2."""
    return field.Qm1, field.Qm1 // 2 if field.p > 2 else 0


def _check_blocks(field, n, blocks):
    """Feed the blocks, gains as exponents of alpha, to _frame_add one by
    one; after each, the rank must be the rank of all rows so far."""
    ring, state, rows = _alpha_ring(field), (0, []), []
    for block in blocks:
        state, rank = cs._frame_add(ring, state, *block)
        rows += _e_rows(field, field.alpha, n, block)
        assert rank == la.rank(field, rows), blocks


def _balanced(field, phi, u, w, a):
    """The gain b with alpha^a*alpha^phi_u + alpha^b*alpha^phi_w = 0."""
    n_ring, half = _alpha_ring(field)
    return (a + phi[u] - phi[w] + half) % n_ring


@pytest.mark.parametrize("case", FP_FIELDS, ids=FP_IDS)
def test_frame_rank_matches_elimination(case):
    backend, p, e, m = case
    field = make_field(p, e, m, backend=backend)
    N = field.Qm1
    rng = DetRNG(29, f"frame-rank/{backend}/{p}/{e}/{m}")
    for _ in range(60):
        n = 2 + rng.randbelow(7)
        phi = [rng.randbelow(N) for _ in range(n)]
        blocks = []
        for _ in range(1 + rng.randbelow(2 * n)):
            u, w = rng.sample_distinct(2, n)
            units = rng.randbelow(1 << n) if rng.randbelow(3) == 0 else 0
            a = rng.randbelow(N)
            # mostly gains of one potential, so that cycles close balanced
            b = _balanced(field, phi, u, w, a) if rng.randbelow(4) else rng.randbelow(N)
            blocks.append((units, u, w, a, b))
            if rng.randbelow(4) == 0:  # a parallel edge
                c = rng.randbelow(N)
                if rng.randbelow(2):  # the same row scaled: dependent
                    blocks.append((0, u, w, (a + c) % N, (b + c) % N))
                else:  # turned round, with a random gain
                    blocks.append((0, w, u, c, rng.randbelow(N)))
        _check_blocks(field, n, blocks)


@pytest.mark.parametrize("case", FP_FIELDS, ids=FP_IDS)
def test_frame_rank_on_structured_graphs(case):
    backend, p, e, m = case
    field = make_field(p, e, m, backend=backend)
    N = field.Qm1
    rng = DetRNG(31, f"frame-structured/{backend}/{p}/{e}/{m}")
    for n in (2, 4, 6, 8):
        phi = [rng.randbelow(N) for _ in range(n)]
        cycle = [(v, (v + 1) % n) for v in range(n)]
        balanced = [(0, u, w, a, _balanced(field, phi, u, w, a))
                    for u, w in cycle for a in [rng.randbelow(N)]]
        # a balanced cycle leaves one component uncovered: rank n - 1
        _check_blocks(field, n, balanced)
        state = (0, [])
        for block in balanced:
            state, rank = cs._frame_add(_alpha_ring(field), state, *block)
        assert rank == n - 1
        # a new gain on the last edge unbalances the cycle
        units, u, w, a, b = balanced[-1]
        _check_blocks(field, n, balanced[:-1] + [(units, u, w, a, (b + 1) % N)])
        # y - x = n/2: the shift by n/2 turns the edge round, as in the census
        h = n // 2
        for x in range(h):
            a, b = rng.randbelow(N), rng.randbelow(N)
            _check_blocks(field, n, [(0, x, x + h, 0, a), (0, x + h, x, 0, b)])
            _check_blocks(field, n, [(0, x, x + h, 0, a), (0, x + h, x, a, 0)])
        # a unit on a tree covers the whole tree
        tree = balanced[:-1]
        _check_blocks(field, n, tree + [(1 << (n - 1), 0, 1, 0, phi[0])])
        # a path laid from its middle outward, then units on both its ends:
        # covering must repeat until no edge has a covered end
        path = sorted(tree, key=lambda block: abs(2 * block[1] + 2 - n))
        _check_blocks(field, n, path + [(1 | 1 << (n - 1), 0, n - 1, 0, 0)])


# --------------------------------------------------------------------------
# triple keys settled by full-rank pairs
# --------------------------------------------------------------------------

# p in {2, 3} and e in {1, 2}, on each field's default backend
SHORTCUT_CASES = [(3, 6, 2), (3, 7, 3), (2, 8, 3), (4, 6, 2), (9, 6, 2)]


@pytest.mark.parametrize("q,n,k", SHORTCUT_CASES)
def test_full_rank_pair_settles_the_triple(q, n, k):
    # on every class and both sides, for every triple class (0, c1, c2) with
    # c1 its least gap: the pair of blocks {c1, c2} has the rank of {0, c2 - c1}
    # (translation), and when one of the three pairs has full rank n, so has
    # the triple, read directly off firsts[c1] and block c2
    report, field = cs.census(q, n, k, seed=1, trials=0)
    n_ring, half, le = cs._eta_exponents(field, report.eta)
    ring, m = (n_ring, half), field.m
    conj = tuple(le * pow(q, a, n_ring) % n_ring for a in range(m))

    def rank(side, *blocks):
        state, v = (0, []), 0
        for a in blocks:
            state, v = cs._frame_add(ring, state, *side[a])
        return state, v

    settled = 0
    for cls in report.params:
        for side in cs._frame_blocks(ring, n, k, conj, *cls):
            pair = [rank(side, 0, g)[1] for g in range(m)]
            for c1 in range(1, m // 3 + 1):
                first = rank(side, 0, c1)[0]
                for c2 in range(2 * c1, m - c1 + 1):
                    assert rank(side, c1, c2)[1] == pair[c2 - c1], (cls, c1, c2)
                    if n in (pair[c1], pair[c2 - c1], pair[c2]):
                        assert cs._frame_add(ring, first, *side[c2])[1] == n, (cls, c1, c2)
                        settled += 1
    assert settled


def test_census_frame_call_count(monkeypatch):
    # pins the _frame_add calls of one census: 2940 before full-rank pairs
    # settled the triple keys, so losing that shortcut fails here
    calls = []
    real = cs._frame_add
    monkeypatch.setattr(cs, "_frame_add", lambda *args: calls.append(1) or real(*args))
    cs.census(3, 7, 3, seed=1, trials=100)
    assert len(calls) == 2148


# --------------------------------------------------------------------------
# the exponent ring
# --------------------------------------------------------------------------

@pytest.mark.parametrize("case", FP_FIELDS, ids=FP_IDS)
def test_eta_exponents_give_zeta_of_order_n(case):
    # every nonzero eta = alpha^l, whose order is (Q-1)/gcd(l, Q-1): zeta
    # (eta, or -eta when p is odd and eta has odd order) has order N,
    # zeta^le = eta and zeta^half = -1; at odd p both parities of ord(eta) occur
    backend, p, e, m = case
    field = make_field(p, e, m, backend=backend)
    minus_one = field.neg(1)
    parities = set()
    for l in range(field.Qm1):
        eta = field.alpha_pow(l)
        order = field.Qm1 // math.gcd(l, field.Qm1)
        n_ring, half, le = cs._eta_exponents(field, eta)
        zeta = eta if le == 1 else field.neg(eta)
        assert n_ring in (order, 2 * order) and (le == 1) == (n_ring == order)
        assert field.pow(zeta, le) == eta and field.pow(zeta, half) == minus_one
        assert field.pow(zeta, n_ring) == 1
        assert all(field.pow(zeta, n_ring // ell) != 1 for ell in sympy.primefactors(n_ring))
        parities.add(order % 2)
    assert parities == ({1} if p == 2 else {0, 1})


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_class_keys_make_no_field_call(monkeypatch, case):
    # the class tasks are plain ints, and the keys come out unchanged with
    # every FieldTower method, the constructor included, made to fail
    backend, q, n, k = case
    tasks = []
    real = cs._census_class_keys
    monkeypatch.setattr(cs, "_census_class_keys", lambda task: tasks.append(task) or real(task))
    report, _ = _census(monkeypatch, backend, q, n, k, seed=8)

    def plain(x):
        return type(x) is int or type(x) is tuple and all(map(plain, x))

    assert len(tasks) == report.ub and all(map(plain, tasks))

    def refuse(*args, **kwargs):
        raise AssertionError("a FieldTower call while computing class keys")

    for name, attr in vars(gf.FieldTower).items():
        if callable(attr):
            monkeypatch.setattr(gf.FieldTower, name, refuse)
    assert [real(task) for task in tasks] == list(zip(report.fingerprints1,
                                                       report.fingerprints2))


# --------------------------------------------------------------------------
# byte-identity with the stored references
# --------------------------------------------------------------------------

def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


@pytest.mark.parametrize("seed", ["0", "9", "31"])
def test_census_matches_stored_references(seed):
    """The census references in bench/refs.json, captured at a trusted commit
    with trials=100, pin the keys independently of any oracle."""
    refs = json.loads(REFS.read_text())["census"][seed]
    for qnk, ref in refs.items():
        q, n, k = map(int, qnk.split(","))
        report, _ = cs.census(q, n, k, int(seed), trials=100)
        assert (report.lb1, report.lb2) == (ref["lb1"], ref["lb2"]), qnk
        assert [_digest(pair) for pair in zip(report.fingerprints1, report.fingerprints2)] \
            == ref["classes"], qnk
