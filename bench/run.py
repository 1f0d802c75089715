"""rankinv benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {census,classify,generic,cli} --seed N \
                         --seconds S --trace {0,1}

Run it from anywhere inside a checkout that holds `src/rankinv`; it builds
nothing and imports the package from `src/`.  The workloads, their metrics
and the bounds a change may not exceed are declared in BENCHMARK.json at the
root of the checkout.

With --trace 0 the run reports the end-to-end metrics:
  ops_per_s    operations per second, the median over batches of
               (operations in the batch / seconds the batch took)
  setup_s      time from process start to the first timed operation, median
               of three processes (on cli: of five `census --ub-only` calls)
  peak_rss_mb  peak resident memory of the measuring process (on cli: of the
               largest `rankinv` invocation)
ops_per_s and setup_s are scaled to a reference machine speed that a fixed
kernel measures during the run (calib.py); the record keeps the unscaled
values as ops_per_s_raw and setup_s_raw.
With --trace 1 it runs one batch untraced and again traced and reports the
per-layer metrics.  Before the result it prints a summary line (with
failed_ratio and, on classify and cli, op_p50_ms and op_tail_ms) and a
`# record` line with the run record.  The last line of standard output is
the result: {"correct", "attempted", "failed", "metrics"}.  A failed output
check makes the run exit 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import KERNEL_REF_S, kernel_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROCESSES = 3
WORKER_TIMEOUT_S = 170


def start_worker(argv):
    """Start a worker and wait for its `ready` line.  Returns the process
    and the seconds from start to ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up ({line.strip()!r})")
    return proc, ready


def finish_worker(proc) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "rankinv" / "__init__.py").is_file():
        print(f"error: no rankinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    kernel, setup = [], []
    try:
        if not args.trace and args.workload != "cli":
            for _ in range(SETUP_PROCESSES - 1):
                kernel.append(kernel_seconds())
                probe, ready = start_worker(base + ["--setup-only"])
                finish_worker(probe)
                setup.append(ready)
        kernel.append(kernel_seconds())
        proc, ready = start_worker(base + ["--seconds", str(args.seconds),
                                           "--trace", str(args.trace)])
        setup.append(ready)
        result = json.loads(finish_worker(proc).strip().splitlines()[-1])
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    values = dict(result["metrics"])
    record = dict(result["record"], workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, errors=result["errors"])
    if args.workload == "cli":
        setup = result["setup_samples"]
    values["setup_s"] = statistics.median(setup)
    record["setup_samples_s"] = setup
    if not args.trace:
        kernel += record["kernel_s"]
        scale = statistics.median(kernel) / KERNEL_REF_S
        record.update(kernel_s=kernel, speed_scale=scale,
                      ops_per_s_raw=values["ops_per_s"], setup_s_raw=values["setup_s"])
        values["ops_per_s"] *= scale
        values["setup_s"] /= scale
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    attempted, failed = result["attempted"], result["failed"]

    shown = ("trace.overhead_ratio", "trace.coverage_ratio") if args.trace else values
    summary = [f"workload={args.workload}", f"seed={args.seed}",
               f"failed_ratio={failed / attempted:.6g}"]
    summary += [f"{m['name']}={values[m['name']]:.6g}[{m['unit']}]"
                for m in declared if m["name"] in shown]
    if "op_p50_ms" in record and args.workload in ("classify", "cli"):
        summary.append(f"op_p50_ms={record['op_p50_ms']:.6g}")
        tl = record.get("op_tail")
        if tl:
            summary.append(f"op_tail_ms=p{tl['percentile']}:{tl['ms']:.6g}(n={tl['samples']})")
    print("# " + " ".join(summary))
    for err in result["errors"]:
        print(f"# failed: {err}")
    print("# record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
