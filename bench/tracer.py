"""Span tracing of rankinv's public functions, installed from outside `src/`.

A Tracer wraps the module attributes and class methods named in TARGETS.
Each call of a wrapped function records one span: name, start, end, parent
span and the operation it belongs to.  Spans live in flat arrays in memory and
are written out once, by `dump`, when the run ends.  Per-element field
operations (`FieldTower.mul` and friends) are only counted, not spanned,
because they run millions of times per operation.

`install` replaces every reference to a target that a rankinv module holds
(`from .gf import make_field` leaves a second reference in `classify` and
`cli`), and `uninstall` puts the original objects back, so untraced runs call
exactly the code under `src/`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

# (span name, module, attribute path).  The names are the per-layer metric
# prefixes; an attribute path with a dot is a method of a class.
TARGETS = (
    ("gf.make_field", "rankinv.gf", "make_field"),
    ("linalg.IncrementalRank.add_row", "rankinv.linalg", "IncrementalRank.add_row"),
    ("linalg.rref", "rankinv.linalg", "rref"),
    ("linalg.nullspace", "rankinv.linalg", "nullspace"),
    ("linalg.row_space_intersection", "rankinv.linalg", "row_space_intersection"),
    ("linalg.rank_q", "rankinv.linalg", "rank_q"),
    ("linalg.rank_p", "rankinv.linalg", "rank_p"),
    ("linalg.vec_mat", "rankinv.linalg", "vec_mat"),
    ("linalg.nullspace_p", "rankinv.linalg", "nullspace_p"),
    ("linalg.det", "rankinv.linalg", "det"),
    ("codes.min_distance_bruteforce", "rankinv.codes", "min_distance_bruteforce"),
    ("codes.build", "rankinv.codes", "build"),
    ("codes.dual", "rankinv.codes", "dual"),
    ("codes.from_rows", "rankinv.codes", "LinearCode.from_rows"),
    ("codes.has_rank_one_codeword", "rankinv.codes", "has_rank_one_codeword"),
    ("codes.apply_semilinear", "rankinv.codes", "apply_semilinear"),
    ("codes.load_code", "rankinv.codes", "load_code"),
    ("codes.save_code", "rankinv.codes", "save_code"),
    ("invariants.s_sequence", "rankinv.invariants", "s_sequence"),
    ("invariants.t_sequence", "rankinv.invariants", "t_sequence"),
    ("invariants.invariant_profile", "rankinv.invariants", "invariant_profile"),
    ("invariants.fingerprint_consecutive", "rankinv.invariants", "fingerprint_consecutive"),
    ("invariants.fingerprint_random_triples", "rankinv.invariants", "fingerprint_random_triples"),
    ("invariants.sum_code", "rankinv.invariants", "sum_code"),
    ("invariants.intersect_code", "rankinv.invariants", "intersect_code"),
    ("invariants.random_triples", "rankinv.invariants", "random_triples"),
    ("classify.census", "rankinv.classify", "census"),
    ("classify.distinguish", "rankinv.classify", "distinguish"),
    ("classify.bruteforce_equivalent", "rankinv.classify", "bruteforce_equivalent"),
    ("classify.is_theta_gabidulin", "rankinv.classify", "is_theta_gabidulin"),
    ("cli.main", "rankinv.cli", "main"),
)

# Counted per-element operations: (counter name, FieldTower method).
# `frob` counts frob_p, which every Frobenius power (frob_q included) goes
# through.
COUNTED = (("gf.mul", "mul"), ("gf.add", "add"), ("gf.inv", "inv"), ("gf.frob", "frob_p"))


def translation_classes(triples, m: int) -> int:
    """Number of distinct exponent sets {a, b, c} up to a common shift mod m."""
    classes = set()
    for triple in triples:
        classes.add(min(tuple(sorted((x - s) % m for x in triple)) for s in range(m)))
    return len(classes)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts = {name: 0 for name, _ in COUNTED}
        # observations of return values, for ratios measured at the boundary
        self.add_row_useful = 0
        self.triple_trials = 0
        self.triple_classes = 0
        self.dmin_calls = 0
        self.dmin_non_mrd = 0
        self.distinguish_unknown = 0
        self.field_build_ns: dict[str, int] = {}
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span_wrapper(self, name: str, fn, observe=None):
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = end = clock()
                stack.pop()
            if observe is not None:
                observe(args, result, end - self.start[idx])
            return result

        return functools.wraps(fn)(wrapper)

    def count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(self_, a, *rest):
            counts[name] += 1
            return fn(self_, a, *rest)

        return functools.wraps(fn)(wrapper)

    # -- observers -------------------------------------------------------------

    def _observe_make_field(self, args, field, ns):
        label = f"p{field.p}d{field.d}"
        self.field_build_ns[label] = max(ns, self.field_build_ns.get(label, 0))

    def _observe_add_row(self, args, result, ns):
        self.add_row_useful += bool(result)

    def _observe_triples(self, args, result, ns):
        m = args[0]
        self.triple_trials += len(result)
        self.triple_classes += translation_classes(result, m)

    def _observe_dmin(self, args, result, ns):
        code = args[0]
        self.dmin_calls += 1
        self.dmin_non_mrd += result < code.n - code.k + 1

    def _observe_distinguish(self, args, result, ns):
        self.distinguish_unknown += result.status == "Unknown"

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        observers = {
            "gf.make_field": self._observe_make_field,
            "linalg.IncrementalRank.add_row": self._observe_add_row,
            "invariants.random_triples": self._observe_triples,
            "codes.min_distance_bruteforce": self._observe_dmin,
            "classify.distinguish": self._observe_distinguish,
        }
        modules = [importlib.import_module(m) for m in
                   ("rankinv.gf", "rankinv.linalg", "rankinv.codes", "rankinv.invariants",
                    "rankinv.classify", "rankinv.cli")]
        for name, modname, path in TARGETS:
            module = importlib.import_module(modname)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    new = classmethod(self.span_wrapper(name, original.__func__))
                else:
                    new = self.span_wrapper(name, original, observers.get(name))
                self._replace(cls, attr, original, new)
                continue
            original = getattr(module, path)
            new = self.span_wrapper(name, original, observers.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, original, new)
        from rankinv.gf import FieldTower

        for name, attr in COUNTED:
            original = FieldTower.__dict__[attr]
            self._replace(FieldTower, attr, original, self.count_wrapper(name, original))

    def _replace(self, owner, attr: str, original, new) -> None:
        setattr(owner, attr, new)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation -----------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children.

        Spans nest strictly (one thread, a stack), so the children of a span
        never overlap and their summed durations are the covered part."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self nanoseconds, plus the
        children per parent name (for words-per-sweep style counts), the
        top-level time per operation, the counters and the observations."""
        selfs = self.self_times_ns()
        per_name: dict[str, dict] = {}
        top_by_op: dict[int, int] = {}
        children: dict[str, dict[str, int]] = {}
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            rec = per_name.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["total_ns"] += dur
            rec["self_ns"] += selfs[i]
            p = self.parent[i]
            if p < 0:
                op = self.op[i]
                top_by_op[op] = top_by_op.get(op, 0) + dur
            else:
                pname = self.names[self.name[p]]
                by_child = children.setdefault(pname, {})
                by_child[name] = by_child.get(name, 0) + 1
        return {
            "spans": per_name,
            "children": children,
            "top_ns_by_op": {str(k): v for k, v in top_by_op.items()},
            "counts": dict(self.counts),
            "add_row_useful": self.add_row_useful,
            "triple_trials": self.triple_trials,
            "triple_classes": self.triple_classes,
            "dmin_calls": self.dmin_calls,
            "dmin_non_mrd": self.dmin_non_mrd,
            "distinguish_unknown": self.distinguish_unknown,
            # slowest construction per field, as a list so processes merge
            "field_build_s": {k: [v / 1e9] for k, v in self.field_build_ns.items()},
        }

    def dump(self, path) -> None:
        """Write every span as parallel arrays (names indexed by `name`)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "op": self.op.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
            }, fh)


def merge_summaries(summaries) -> dict:
    """Add up summaries from several processes (the cli workload)."""
    out = {"spans": {}, "children": {}, "top_ns_by_op": {}, "counts": {}, "field_build_s": {}}
    for s in summaries:
        for name, rec in s["spans"].items():
            acc = out["spans"].setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            for key in acc:
                acc[key] += rec[key]
        for pname, by_child in s["children"].items():
            acc = out["children"].setdefault(pname, {})
            for name, cnt in by_child.items():
                acc[name] = acc.get(name, 0) + cnt
        for op, ns in s["top_ns_by_op"].items():
            out["top_ns_by_op"][op] = out["top_ns_by_op"].get(op, 0) + ns
        for name, cnt in s["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + cnt
        for label, times in s["field_build_s"].items():
            out["field_build_s"].setdefault(label, []).extend(times)
        for key, value in s.items():
            if isinstance(value, int):
                out[key] = out.get(key, 0) + value
    return out
