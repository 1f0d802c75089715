"""L0 microbenchmark: `mul`, `add` and `frob_q` through the public
FieldTower methods, on the table and the generic backend of the same field
for p = 2 (F_{2^16}) and p = 3 (F_{3^12})."""

from __future__ import annotations

import statistics
import time

from rankinv.gf import make_field
from rankinv.rng import DetRNG

FIELDS = {"p2": (2, 1, 16), "p3": (3, 1, 12)}
# operand pairs per timed repeat; the generic backend is ~100x slower
PAIRS = {"table": 4096, "generic": 128}
REPEATS = 5


def _ns_per_call(fn, args) -> float:
    """Median over REPEATS of the mean time per call, in nanoseconds."""
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        for a, b in args:
            fn(a, b)
        samples.append((time.perf_counter_ns() - t0) / len(args))
    return statistics.median(samples)


def run(seed: int) -> dict:
    out = {}
    for plabel, (p, e, m) in FIELDS.items():
        for backend in ("table", "generic"):
            field = make_field(p, e, m, backend=backend)
            rng = DetRNG(seed, f"bench-l0/{plabel}")
            count = PAIRS[backend]
            pairs = [(field.random_nonzero(rng), field.random_nonzero(rng)) for _ in range(count)]
            frob_args = [(a, 1 + rng.randbelow(m - 1)) for a, _ in pairs]
            key = f"{backend}_{plabel}"
            out[f"gf.mul_ns.{key}"] = _ns_per_call(field.mul, pairs)
            out[f"gf.add_ns.{key}"] = _ns_per_call(field.add, pairs)
            out[f"gf.frob_q_ns.{key}"] = _ns_per_call(field.frob_q, frob_args)
        out[f"gf.mul_ns.generic_over_table_{plabel}"] = (
            out[f"gf.mul_ns.generic_{plabel}"] / out[f"gf.mul_ns.table_{plabel}"])
    return out
