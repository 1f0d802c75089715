"""One benchmark process: set up a workload, then run and check its batches.

    python3 bench/worker.py --workload NAME --seed N [--seconds S --trace 0|1 | --setup-only]

Prints `ready` once set-up is done (the parent times set-up up to that line)
and, unless --setup-only, one JSON line with the counts, the metrics and the
run record.  `run.py` is the entry point; it starts this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import numpy  # noqa: E402

import rankinv.gf as gf  # noqa: E402

import microbench  # noqa: E402
from calib import SpeedSamples  # noqa: E402
import workloads as wl  # noqa: E402
from stats import tail  # noqa: E402
from tracer import TARGETS, Tracer, merge_summaries  # noqa: E402

MIN_BATCHES = 1
# fields whose construction time is reported on its own (gf.make_field.s.*)
FIELD_LABELS = ("p3d12", "p3d14", "p2d16", "p3d16", "p2d15")
CLI_SUBCOMMANDS = ("code-build", "code-dual", "invariants", "compare",
                   "classify-gabidulin", "count", "census")


def l3_bytes():
    try:
        return os.sysconf(194) or None  # glibc's _SC_LEVEL3_CACHE_SIZE
    except (ValueError, OSError):
        return None


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rankinv").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_batch(workload, index, tracer=None, trace_dir=None, speed=None):
    """Run one batch; returns (op samples, attempted, failed, errors).
    A sample is (label, seconds, weight)."""
    samples, errors = [], []
    attempted = failed = 0
    for op_id, op in enumerate(workload.batch(index, trace_dir)):
        if speed is not None:
            speed.tick()
        if tracer is not None:
            tracer.op_id = op_id
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a raising operation is a failed operation
            result = exc
        elapsed = time.perf_counter() - t0
        attempted += op.weight
        if isinstance(result, Exception):
            failed += op.weight
            errors.append(f"{op.label}: {result!r}")
        else:
            try:
                bad = op.check(result)
            except Exception as exc:  # a result the check cannot read fails it
                bad = op.weight
                errors.append(f"{op.label}: check raised {exc!r}")
            else:
                if bad:
                    errors.append(f"{op.label}: {bad} failed check")
            failed += bad
        samples.append((op.label, elapsed, op.weight))
    return samples, attempted, failed, errors


def batch_seconds(samples) -> float:
    return sum(s[1] for s in samples)


def batch_ops(samples) -> int:
    return sum(s[2] for s in samples)


def run_timed(workload, seconds: float) -> dict:
    batches, attempted, failed, errors = [], 0, 0, []
    planned = MIN_BATCHES
    speed = SpeedSamples()
    while len(batches) < planned:
        samples, a, f, e = run_batch(workload, len(batches), speed=speed)
        batches.append(samples)
        attempted, failed, errors = attempted + a, failed + f, errors + e
        if len(batches) == 1:
            planned = max(MIN_BATCHES, round(seconds / batch_seconds(samples)))
    rates = [batch_ops(b) / batch_seconds(b) for b in batches]
    singles = [s[1] * 1000 for b in batches for s in b if s[2] == 1]
    if workload.name == "cli":
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"ops_per_s": statistics.median(rates), "peak_rss_mb": peak}
    speed.tick()
    record = {
        "kernel_s": speed.samples,
        "batches": len(batches),
        "batch_seconds": [batch_seconds(b) for b in batches],
        "failed_ratio": failed / attempted,
    }
    if singles:
        record["op_p50_ms"] = statistics.median(singles)
        t = tail(singles)
        record["op_tail"] = (None if t is None
                             else {"percentile": t[0], "ms": t[1], "samples": t[2]})
    return {"attempted": attempted, "failed": failed, "errors": errors[:20],
            "metrics": metrics, "record": record}


def run_traced(workload, seed: int) -> dict:
    """Batch 0 untraced, then batch 0 again under the tracer, then the L0
    microbenchmark with every wrapper removed."""
    untraced, a0, f0, e0 = run_batch(workload, 0)
    trace_dir = wl.WORK / f"trace-{os.getpid()}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    with tracer:
        traced, a1, f1, e1 = run_batch(workload, 0, tracer, trace_dir)
    if workload.name == "cli":
        children = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("cli-*.json"))]
        summary = merge_summaries(children)
        covered = sum(sum(c["top_ns_by_op"].values()) for c in children) / 1e9
    else:
        summary = tracer.summary()
        covered = sum(summary["top_ns_by_op"].values()) / 1e9
        tracer.dump(wl.WORK / f"spans-{workload.name}-{seed}.json")
    for path in trace_dir.iterdir():
        path.unlink()
    trace_dir.rmdir()

    metrics = layer_metrics(workload, summary, untraced)
    metrics["trace.overhead_ratio"] = batch_seconds(traced) / batch_seconds(untraced)
    metrics["trace.coverage_ratio"] = covered / batch_seconds(traced)
    metrics.update(microbench.run(seed))
    record = {
        "untraced_batch_s": batch_seconds(untraced),
        "traced_batch_s": batch_seconds(traced),
        "trace_overhead_ratio": metrics["trace.overhead_ratio"],
        "trace_coverage_ratio": metrics["trace.coverage_ratio"],
    }
    return {"attempted": a0 + a1, "failed": f0 + f1, "errors": (e0 + e1)[:20],
            "metrics": metrics, "record": record}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(workload, summary, untraced) -> dict:
    spans = summary["spans"]
    m = {}
    for name, _, _ in TARGETS:
        rec = spans.get(name, {"calls": 0, "self_ns": 0})
        m[f"{name}.calls"] = rec["calls"]
        m[f"{name}.self_s"] = rec["self_ns"] / 1e9
    for name, count in summary["counts"].items():
        m[f"{name}.calls"] = count
    dmin = "codes.min_distance_bruteforce"
    words = summary["children"].get(dmin, {}).get("linalg.vec_mat", 0)
    m[f"{dmin}.words"] = words
    m[f"{dmin}.words_per_sweep"] = _ratio(words, summary["dmin_calls"])
    m["classify.is_theta_gabidulin.non_mrd_share"] = _ratio(summary["dmin_non_mrd"],
                                                            summary["dmin_calls"])
    m["classify.distinguish.unknown_share"] = _ratio(
        summary["distinguish_unknown"], m["classify.distinguish.calls"])
    m["linalg.IncrementalRank.add_row.useful_ratio"] = _ratio(
        summary["add_row_useful"], m["linalg.IncrementalRank.add_row.calls"])
    m["invariants.random_triples.distinct_class_ratio"] = _ratio(
        summary["triple_classes"], summary["triple_trials"])

    if workload.name == "cli":
        field_s = {label: statistics.median(v) for label, v in summary["field_build_s"].items()}
    else:
        field_s = workload.field_seconds
    m["gf.make_field.s"] = sum(field_s.values())
    for label in FIELD_LABELS:
        m[f"gf.make_field.s.{label}"] = field_s.get(label, 0.0)
    tables = workload.field_tables
    m["gf.table_bytes"] = sum(tables.values())
    l3 = l3_bytes()
    m["gf.table_bytes.l3_share"] = _ratio(max(tables.values(), default=0), l3)

    by_label: dict[str, list[float]] = {}
    for label, seconds, _ in untraced:
        by_label.setdefault(label, []).append(seconds * 1000)
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.p50_ms"] = statistics.median(by_label[sub]) if sub in by_label else 0.0
    startup = getattr(workload, "startup", None)
    m["cli.startup_ms"] = statistics.median(startup) * 1000 if startup else 0.0
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    refs = json.loads((BENCH / "refs.json").read_text())
    workload = wl.WORKLOADS[args.workload](args.seed, refs)
    print("ready", flush=True)
    if args.setup_only:
        workload.close()
        return 0
    try:
        if args.trace:
            result = run_traced(workload, args.seed)
        else:
            result = run_timed(workload, args.seconds)
        record = result["record"]
        record.update(workload.record())
    finally:
        workload.close()
    record.update({
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "table_limit": gf.TABLE_LIMIT,
        "l3_bytes": l3_bytes(),
    })
    if args.workload == "cli":
        result["setup_samples"] = workload.startup
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
