"""Capture the reference outputs that the benchmark checks runs against.

    python3 bench/make_refs.py PART [PART ...]     PART: classify census generic cli

Run it only at a commit whose outputs are trusted: it rewrites the named
parts of bench/refs.json.  census and cli references cover the seeds in
REF_SEEDS; generic covers every class, so it holds for any seed.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import rankinv.classify as cl  # noqa: E402
import rankinv.codes as cd  # noqa: E402
from rankinv.gf import make_field  # noqa: E402

import workloads as wl  # noqa: E402

REFS = BENCH / "refs.json"
REF_SEEDS = range(32)


def classify_refs() -> dict:
    f8 = make_field(2, 1, 3)
    mrd = [i for i, code in enumerate(wl.f8_codes_dim2_len3(f8))
           if cd.min_distance_bruteforce(code) == 2]
    return {"f8_mrd": mrd}


def census_refs() -> dict:
    out = {}
    for seed in REF_SEEDS:
        per_seed = out[str(seed)] = {}
        for q, n, k in wl.CENSUS_UB:
            report, _ = cl.census(q, n, k, seed, trials=wl.CENSUS_TRIALS, jobs=1)
            per_seed[f"{q},{n},{k}"] = {
                "lb1": report.lb1, "lb2": report.lb2,
                "classes": [wl.digest(pair) for pair in
                            zip(report.fingerprints1, report.fingerprints2)],
            }
        print(f"census seed {seed} done", file=sys.stderr, flush=True)
    return out


def generic_refs() -> dict:
    field = make_field(3, 1, 16)
    g, eta = wl.generic_inputs(field)
    out = {}
    for cls in cl.census_param_classes(wl.GENERIC_N, wl.GENERIC_K):
        out["%d,%d,%d" % cls] = wl.digest(wl.generic_class_keys(field, g, eta, cls))
        print(f"generic class {cls} done", file=sys.stderr, flush=True)
    return out


def cli_refs() -> dict:
    out = {}
    for seed in REF_SEEDS:
        workload = wl.Cli(seed, {})
        try:
            for op, (label, _, _, seeded) in zip(workload.batch(0), workload.commands):
                proc = op.run()
                if proc.returncode != 0:
                    raise RuntimeError(f"{label} exited {proc.returncode}: {proc.stderr!r}")
                out[f"{seed}/{label}" if seeded else label] = hashlib.sha256(proc.stdout).hexdigest()
        finally:
            workload.close()
        print(f"cli seed {seed} done", file=sys.stderr, flush=True)
    return out


PARTS = {"classify": classify_refs, "census": census_refs,
         "generic": generic_refs, "cli": cli_refs}


def main(parts) -> int:
    unknown = [p for p in parts if p not in PARTS]
    if unknown or not parts:
        print(f"usage: make_refs.py PART...  (PART in {', '.join(PARTS)})", file=sys.stderr)
        return 2
    computed = {part: PARTS[part]() for part in parts}
    refs = json.loads(REFS.read_text()) if REFS.exists() else {}
    refs.update(computed)
    REFS.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
