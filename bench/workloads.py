"""The four benchmark workloads: seeded inputs, batches of operations, checks.

Every workload builds its inputs from the run's seed alone and hands the
program only those inputs.  A batch is a list of operations; the worker times
each operation and each batch, then checks every result outside the timed
region.

* census    `classify.census` at (3,6,2), (3,7,3), (2,8,3), trials=100,
            jobs=1; one operation is one parameter class (112 per batch).
* classify  recognition, `distinguish` and `bruteforce_equivalent` calls on
            seeded codes with planted answers; one operation is one call.
* generic   (3,8,3) census classes over F_{3^16}, which is above TABLE_LIMIT
            and so runs the generic field backend; one operation builds one
            class and computes both fingerprints.  g and eta are fixed, so
            every class has a reference; the seed picks the classes.
* cli       fresh-process `rankinv` invocations of every subcommand; one
            operation is one invocation, checked byte for byte.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import rankinv.classify as cl
import rankinv.codes as cd
import rankinv.invariants as iv
import rankinv.linalg as la
from rankinv.gf import FullAut, GaloisAut, galois_generators, make_field
from rankinv.rng import DetRNG

from tracer import translation_classes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"


@dataclass
class Op:
    label: str                      # kind of call, for per-kind latencies
    weight: int                     # operations this call counts for
    run: Callable[[], object]       # timed
    check: Callable[[object], int]  # untimed; failed operations among weight


def late(module, name: str, *args, **kwargs) -> Callable[[], object]:
    """A call that looks the function up on its module when it runs, so that
    the tracer's wrappers, installed after the inputs are built, are seen."""
    return lambda: getattr(module, name)(*args, **kwargs)


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def field_label(field) -> str:
    return f"p{field.p}d{field.d}"


def table_bytes(field) -> int:
    """Bytes held in the field object's lookup tables (0 for no tables)."""
    total = 0
    for value in vars(field).values():
        if hasattr(value, "itemsize") and hasattr(value, "__len__"):
            total += len(value) * value.itemsize
    return total


def seeded_order(items, rng: DetRNG) -> list:
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randbelow(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


class Workload:
    """Base: builds FIELDS in set-up and times each construction."""

    name = ""
    FIELDS: tuple = ()

    def __init__(self, seed: int, refs: dict):
        self.seed = seed
        self.refs = refs.get(self.name, {})
        self.field_seconds: dict[str, float] = {}
        self.field_tables: dict[str, int] = {}
        self.fields = {}
        for p, e, m in self.FIELDS:
            t0 = time.perf_counter()
            field = make_field(p, e, m)
            self.field_seconds[field_label(field)] = time.perf_counter() - t0
            self.field_tables[field_label(field)] = table_bytes(field)
            self.fields[(p, e, m)] = field
        self.prepare()

    def prepare(self) -> None:
        pass

    def batch(self, index: int, trace_dir: Path | None = None) -> list[Op]:
        raise NotImplementedError

    def record(self) -> dict:
        """Input properties and field facts for the run record."""
        return {
            "backends": {field_label(f): f.backend for f in self.fields.values()},
            "table_bytes": self.field_tables,
        }

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------
# census
# --------------------------------------------------------------------------

# (q, n, k) -> UB, frozen from the closed-form class count (criterion 2).
CENSUS_UB = {(3, 6, 2): 16, (3, 7, 3): 36, (2, 8, 3): 60}
CENSUS_TRIALS = 100


class Census(Workload):
    name = "census"
    FIELDS = ((3, 1, 12), (3, 1, 14), (2, 1, 16))

    def batch(self, index, trace_dir=None):
        return [
            Op(f"census-{q}-{n}-{k}", ub,
               late(cl, "census", q, n, k, self.seed, trials=CENSUS_TRIALS, jobs=1),
               partial(self.check, (q, n, k)))
            for (q, n, k), ub in CENSUS_UB.items()
        ]

    def check(self, qnk, result) -> int:
        report, _ = result
        ub = CENSUS_UB[qnk]
        if (report.ub != ub or len(report.fingerprints1) != ub
                or not 1 <= report.lb1 <= ub or not 1 <= report.lb2 <= ub):
            return ub
        ref = self.refs.get(str(self.seed), {}).get("%d,%d,%d" % qnk)
        if ref is None:
            return 0
        if (report.lb1, report.lb2) != (ref["lb1"], ref["lb2"]):
            return ub
        got = [digest(pair) for pair in zip(report.fingerprints1, report.fingerprints2)]
        return sum(a != b for a, b in zip(got, ref["classes"]))

    def record(self):
        rec = super().record()
        rec["distinct_class_ratio"] = {
            "%d,%d,%d" % (q, n, k): translation_classes(
                iv.random_triples(2 * n, CENSUS_TRIALS, self.seed), 2 * n) / CENSUS_TRIALS
            for (q, n, k) in CENSUS_UB
        }
        rec["reference_checked"] = str(self.seed) in self.refs
        return rec


# --------------------------------------------------------------------------
# classify
# --------------------------------------------------------------------------

DISTINGUISH_TRIALS = 25


def f8_codes_dim2_len3(field) -> list:
    """Every [3, 2] code over F_8, in a fixed order (73 codes)."""
    Q = field.Q
    rows = [((1, 0, a), (0, 1, b)) for a in range(Q) for b in range(Q)]
    rows += [((1, a, 0), (0, 0, 1)) for a in range(Q)]
    rows.append(((0, 1, 0), (0, 0, 1)))
    return [cd.LinearCode.from_rows(field, r, 3) for r in rows]


def _nonzero(field, rng):
    return field.alpha_pow(rng.randbelow(field.Qm1))


def _image(code, rng):
    """A random semilinear image lam * tau(C) * A of the code."""
    field = code.field
    smap = cd.SemilinearMap(
        lam=_nonzero(field, rng),
        A=la.random_invertible_matrix_q(field, code.n, rng),
        tau=FullAut(field, rng.randbelow(field.d)),
    )
    return cd.apply_semilinear(code, smap)


class Classify(Workload):
    name = "classify"
    FIELDS = ((2, 1, 7), (3, 1, 7), (3, 1, 5), (2, 2, 3), (2, 1, 3), (2, 1, 4))

    def prepare(self):
        rng = DetRNG(self.seed, "bench-classify")
        f27, f37, f35, f43, f8, f16 = (self.fields[k] for k in self.FIELDS)

        def random_code(field, family, n, k, theta, **kw):
            g = la.random_full_rank_vector(field, n, rng)
            return cd.build(field, cd.make_spec(family, n, k, theta, g, **kw))

        # [6,3] over F_{2^7}: full 16,513-word distance sweeps.  Gabidulin
        # codes are MRD; twisted and hook-0 offset twists are not MRD at q=2
        # and lie in the proven rejection ranges (m < 2n-2, and
        # 1 < k < n-t with m < 2n-4).
        th = rng.choice(galois_generators(7))
        g = la.random_full_rank_vector(f27, 6, rng)
        gab = cd.build(f27, cd.make_spec("Gabidulin", 6, 3, th, g))
        tw = cd.build(f27, cd.make_spec("Twisted", 6, 3, th, g, eta=_nonzero(f27, rng)))
        gtw = cd.build(f27, cd.make_spec("GeneralizedTwisted", 6, 3, th, g,
                                         eta=(_nonzero(f27, rng),),
                                         t=(rng.choice([1, 2]),), h=(0,)))
        recognition = [(gab, th, True), (tw, th, False), (gtw, th, False)]
        # reduced-twist codes over F_{3^7} with the eta of criterion 7.  The
        # rows of NewGabI are theta^i(g + eta*theta^k(g)), so it is the
        # Gabidulin code of that vector, and MRD exactly when the vector has
        # full F_q-rank (a random g misses that now and then).
        for family, k in (("NewGabI", 2), ("NewGabII", 4)):
            eta = next(a for a in range(2, f37.Q) if cd.norm_condition_ok(f37, k, a))
            g37 = la.random_full_rank_vector(f37, 5, rng)
            code = cd.build(f37, cd.make_spec(family, 5, k, 1, g37, eta=eta))
            want = True
            if family == "NewGabI":
                shifted = GaloisAut(f37, k).on_vector(g37)
                lead = tuple(f37.add(a, f37.mul(eta, b)) for a, b in zip(g37, shifted))
                want = la.rank_q(f37, lead) == 5
            recognition.append((code, 1, want))
        # p = 3 and e = 2 towers
        th35 = rng.choice(galois_generators(5))
        g35 = la.random_full_rank_vector(f35, 5, rng)
        gab35 = cd.build(f35, cd.make_spec("Gabidulin", 5, 2, th35, g35))
        tw35 = cd.build(f35, cd.make_spec("Twisted", 5, 2, th35, g35, eta=_nonzero(f35, rng)))
        gab43 = random_code(f43, "Gabidulin", 3, 2, 1)
        recognition += [(gab35, th35, True), (gab43, 1, True),
                        (random_code(f43, "Gabidulin", 3, 1, 2), 2, True)]
        # every [3,2] code over F_8: recognized exactly when MRD
        mrd = set(self.refs["f8_mrd"])
        for idx, code in enumerate(f8_codes_dim2_len3(f8)):
            recognition.append((code, rng.choice([1, 2]), idx in mrd))
        self.recognition = recognition
        self.non_mrd_planted = sum(not want for _, _, want in recognition) / len(recognition)

        ops = [Op("is_theta_gabidulin", 1, late(cl, "is_theta_gabidulin", code, theta),
                  partial(_expect_recognition, want))
               for code, theta, want in recognition]
        # semilinear images end Unknown after the full invariant sweep;
        # Gabidulin against twisted with the same theta and g separates at
        # sigma = theta (s_1 = k+1 against k+2)
        for code in (gab, tw, gab35, gab43):
            ops.append(Op("distinguish", 1,
                          late(cl, "distinguish", code, _image(code, rng),
                               trials=DISTINGUISH_TRIALS, seed=self.seed),
                          partial(_expect_status, "Unknown")))
        for c1, c2 in ((gab, tw), (gab, gtw), (gab35, tw35)):
            ops.append(Op("distinguish", 1,
                          late(cl, "distinguish", c1, c2,
                               trials=DISTINGUISH_TRIALS, seed=self.seed),
                          partial(_expect_status, "Inequivalent")))
        for code in (random_code(f16, "Gabidulin", 4, 2, rng.choice([1, 3])), gab35, gab43):
            ops.append(Op("bruteforce_equivalent", 1,
                          late(cl, "bruteforce_equivalent", code, _image(code, rng)),
                          partial(_expect_status, "Equivalent")))
        self.ops = ops

    def batch(self, index, trace_dir=None):
        return self.ops

    def record(self):
        rec = super().record()
        rec["non_mrd_planted_share"] = self.non_mrd_planted
        return rec


def _expect_recognition(want: bool, result) -> int:
    return int(result[0] is not want)


def _expect_status(want: str, verdict) -> int:
    return int(verdict.status != want)


# --------------------------------------------------------------------------
# generic backend
# --------------------------------------------------------------------------

GENERIC_N, GENERIC_K = 8, 3
GENERIC_TRIALS = 10
GENERIC_INPUT_SEED = 0


def generic_inputs(field):
    """The fixed g (entries in F_{3^8}, full F_3-rank) and eta (outside
    F_{3^8}) shared by every generic class."""
    g = la.random_full_rank_vector(field, GENERIC_N, DetRNG(GENERIC_INPUT_SEED, "bench-generic-g"),
                                   subfield_size=field.q ** GENERIC_N)
    rng = DetRNG(GENERIC_INPUT_SEED, "bench-generic-eta")
    eta = field.random_element(rng)
    while field.in_subfield(eta, GENERIC_N):
        eta = field.random_element(rng)
    return g, eta


def generic_class_keys(field, g, eta, cls):
    r, t, h = cls
    code = cd.build(field, cd.make_spec("GeneralizedTwisted", GENERIC_N, GENERIC_K, r, g,
                                        eta=(eta,), t=(t,), h=(h,)))
    return (iv.fingerprint_consecutive(code).key,
            iv.fingerprint_random_triples(code, trials=GENERIC_TRIALS,
                                          seed=GENERIC_INPUT_SEED).key)


class Generic(Workload):
    name = "generic"
    FIELDS = ((3, 1, 16),)

    def prepare(self):
        self.field = self.fields[(3, 1, 16)]
        self.g, self.eta = generic_inputs(self.field)
        # Cost differs between theta exponents, so consecutive batches cycle
        # through r = 1, 3, 5, 7; the seed orders the (t, h) within each r.
        rng = DetRNG(self.seed, "bench-generic-order")
        by_r: dict[int, list] = {}
        for cls in cl.census_param_classes(GENERIC_N, GENERIC_K):
            by_r.setdefault(cls[0], []).append(cls)
        columns = [seeded_order(group, rng) for _, group in sorted(by_r.items())]
        self.order = [cls for row in zip(*columns) for cls in row]

    def batch(self, index, trace_dir=None):
        cls = self.order[index % len(self.order)]
        return [Op("generic-class", 1,
                   partial(generic_class_keys, self.field, self.g, self.eta, cls),
                   partial(self.check, cls))]

    def check(self, cls, keys) -> int:
        return int(digest(keys) != self.refs["%d,%d,%d" % cls])

    def record(self):
        rec = super().record()
        m = self.field.m
        rec["distinct_class_ratio"] = translation_classes(
            iv.random_triples(m, GENERIC_TRIALS, GENERIC_INPUT_SEED), m) / GENERIC_TRIALS
        return rec


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------

WORKED_MODULUS = "1:0:1:0:1:1:0:0:0:0:0:0:0:0:0:1"
WORKED_G = ",".join(f"a^{e}" for e in (16474, 23822, 10386, 28105, 21661, 2599, 30721, 198))
WORKED_ETA = "a^22859"

# Golden s-rows of the worked [8,3] pair (s_1 .. up to the first repeat),
# the tables of criterion 1.
GOLDEN_GAB_ROWS = {
    1: (4, 5, 6, 7, 8, 8), 2: (5, 7, 8, 8), 3: (6, 8, 8), 4: (6, 8, 8),
    5: (6, 8, 8), 6: (6, 8, 8), 7: (6, 7, 8, 8), 8: (6, 7, 8, 8),
    9: (6, 8, 8), 10: (6, 8, 8), 11: (6, 8, 8), 12: (6, 8, 8),
    13: (5, 7, 8, 8), 14: (4, 5, 6, 7, 8, 8),
}
GOLDEN_TW_ROWS = {r: (5, 6, 7, 8, 8) if r in (1, 14) else (6, 8, 8) for r in range(1, 15)}

STARTUP_ARGV = ("census", "--n", "6", "--k", "2", "--ub-only")
STARTUP_SAMPLES = 5


def golden_rows_ok(stdout: str, golden: dict) -> bool:
    """The csv `invariants` rows of the worked pair against the golden
    s-rows, padded with their stable value to s_1 .. s_{n-k}."""
    rows = [line for line in stdout.splitlines() if not line.startswith("#")]
    got = {}
    for line in rows:
        r, *vals = (int(x) for x in line.split(","))
        got[r] = tuple(vals[:5])
    want = {r: (row + (row[-1],) * 5)[:5] for r, row in golden.items()}
    return got == want


def subcommand(argv) -> str:
    return f"{argv[0]}-{argv[1]}" if argv[0] in ("code", "classify") else argv[0]


class Cli(Workload):
    name = "cli"
    # built here only for the record; each invocation builds its own
    FIELDS = ((2, 1, 15), (3, 1, 5), (2, 1, 12), (2, 1, 4))

    def prepare(self):
        self.workdir = WORK / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        rng = DetRNG(self.seed, "bench-cli")
        theta = str(rng.choice(galois_generators(5)))
        eta = f"a^{rng.randbelow(3 ** 5 - 1)}"
        seed = str(self.seed)
        worked = ["--m", "15", "--modulus", WORKED_MODULUS, "--n", "8", "--k", "3", "--g", WORKED_G]
        seeded = ["--p", "3", "--m", "5", "--n", "5", "--k", "2", "--theta", theta,
                  "--random-g", "--seed", seed]
        # (label, argv, extra check on stdout, depends on the seed)
        self.commands = [
            ("build-gab", ["code", "build", "--family", "Gabidulin", *worked, "--out", "gab.json"],
             None, False),
            ("build-tw", ["code", "build", "--family", "Twisted", *worked, "--eta", WORKED_ETA,
                          "--out", "tw.json"], None, False),
            ("dual-gab", ["code", "dual", "--file", "gab.json", "--out", "dual.json"], None, False),
            ("invariants-gab", ["invariants", "--file", "gab.json", "--format", "csv"],
             partial(golden_rows_ok, golden=GOLDEN_GAB_ROWS), False),
            ("invariants-tw", ["invariants", "--file", "tw.json", "--format", "csv"],
             partial(golden_rows_ok, golden=GOLDEN_TW_ROWS), False),
            ("compare-worked", ["compare", "gab.json", "tw.json", "--trials", "10"],
             lambda out: "Inequivalent" in out, False),
            ("classify-worked", ["classify", "gabidulin", "--file", "gab.json"],
             lambda out: "is_gabidulin = true" in out, False),
            ("count", ["count", "--q", "2", "--k", "2", "--n", "4", "--m", "4"], None, False),
            ("census-ub", list(STARTUP_ARGV), lambda out: "UB = 16" in out, False),
            ("build-rnd-gab", ["code", "build", "--family", "Gabidulin", *seeded,
                               "--out", "rnd_gab.json"], None, True),
            ("build-rnd-tw", ["code", "build", "--family", "Twisted", *seeded, "--eta", eta,
                              "--out", "rnd_tw.json"], None, True),
            ("classify-rnd-gab", ["classify", "gabidulin", "--file", "rnd_gab.json",
                                  "--theta", theta],
             lambda out: "is_gabidulin = true" in out, True),
            ("classify-rnd-tw", ["classify", "gabidulin", "--file", "rnd_tw.json",
                                 "--theta", theta],
             lambda out: "is_gabidulin = false" in out, True),
            ("compare-rnd", ["compare", "rnd_gab.json", "rnd_gab.json", "--trials", "10",
                             "--bruteforce"],
             lambda out: "bruteforce: Equivalent" in out, True),
            ("census-small", ["census", "--q", "2", "--n", "6", "--k", "2", "--seed", seed,
                              "--trials", "10", "--format", "csv"], None, True),
        ]
        self.seen: dict[str, bytes] = {}
        self.startup = [self.invoke(list(STARTUP_ARGV))[1] for _ in range(STARTUP_SAMPLES)]

    def invoke(self, argv, trace_out: str = "-"):
        cmd = [sys.executable, str(BENCH / "cli_launcher.py"), trace_out, *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                              timeout=170)
        return proc, time.perf_counter() - t0

    def batch(self, index, trace_dir=None):
        ops = []
        for i, (label, argv, extra, seeded) in enumerate(self.commands):
            trace_out = str(trace_dir / f"cli-{index}-{i}.json") if trace_dir else "-"

            def run(argv=argv, trace_out=trace_out):
                return self.invoke(argv, trace_out)[0]

            ops.append(Op(subcommand(argv), 1, run,
                          partial(self.check, label, extra, seeded)))
        return ops

    def check(self, label, extra, seeded, proc) -> int:
        if proc.returncode != 0:
            return 1
        out = proc.stdout
        # identical arguments must give byte-identical output
        if self.seen.setdefault(label, out) != out:
            return 1
        key = f"{self.seed}/{label}" if seeded else label
        ref = self.refs.get(key)
        if ref is not None and hashlib.sha256(out).hexdigest() != ref:
            return 1
        if extra is not None and not extra(out.decode()):
            return 1
        return 0

    def record(self):
        rec = super().record()
        rec["reference_checked"] = f"{self.seed}/build-rnd-gab" in self.refs
        return rec

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Census, Classify, Generic, Cli)}
