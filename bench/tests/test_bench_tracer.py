"""Span self-time arithmetic, wrapper installation and removal."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import importlib  # noqa: E402

import rankinv.classify as cl  # noqa: E402
import rankinv.codes as cd  # noqa: E402
import rankinv.invariants as iv  # noqa: E402
import rankinv.linalg as la  # noqa: E402
from rankinv.gf import FieldTower, make_field  # noqa: E402

from tracer import TARGETS, Tracer, merge_summaries, translation_classes  # noqa: E402


def _spans(tracer, rows):
    """rows: (name, parent, start, end, op)."""
    for name, parent, start, end, op in rows:
        tracer.name.append(tracer._name_id(name))
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.op.append(op)


def test_self_time_subtracts_direct_children_only():
    t = Tracer()
    _spans(t, [
        ("a", -1, 0, 100, 0),    # children b (30) and d (20)
        ("b", 0, 10, 40, 0),     # child c (10)
        ("c", 1, 15, 25, 0),
        ("d", 0, 50, 70, 0),
        ("a", -1, 200, 260, 1),  # a second operation, no children
    ])
    assert t.self_times_ns() == [50, 20, 10, 20, 60]
    s = t.summary()
    assert s["spans"]["a"] == {"calls": 2, "total_ns": 160, "self_ns": 110}
    assert s["spans"]["b"] == {"calls": 1, "total_ns": 30, "self_ns": 20}
    assert s["top_ns_by_op"] == {"0": 100, "1": 60}
    assert s["children"] == {"a": {"b": 1, "d": 1}, "b": {"c": 1}}
    # self times of all spans add up to the top-level time
    assert sum(t.self_times_ns()) == 160


def test_wrappers_record_nesting_and_operation():
    t = Tracer()
    inner = t.span_wrapper("inner", lambda x: x + 1)
    outer = t.span_wrapper("outer", lambda x: inner(x) * 2)
    t.op_id = 7
    assert outer(1) == 4
    assert list(t.parent) == [-1, 0]
    assert list(t.op) == [7, 7]
    assert [t.names[i] for i in t.name] == ["outer", "inner"]
    assert t.start[0] <= t.start[1] <= t.end[1] <= t.end[0]
    assert all(s >= 0 for s in t.self_times_ns())


def _originals():
    found = {}
    for _, modname, path in TARGETS:
        module = importlib.import_module(modname)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            found[(owner, attr)] = owner.__dict__[attr]
        else:
            found[(module, path)] = getattr(module, path)
    for attr in ("mul", "add", "inv", "frob_p"):
        found[(FieldTower, attr)] = FieldTower.__dict__[attr]
    found[(cl, "make_field")] = cl.make_field
    return found


def test_uninstall_restores_every_original():
    before = _originals()
    original_mul = FieldTower.__dict__["mul"]
    t = Tracer()
    with t:
        assert FieldTower.__dict__["mul"] is not original_mul
        assert cl.make_field is not before[(cl, "make_field")]
        assert cl.make_field.__wrapped__ is before[(cl, "make_field")]
    assert FieldTower.mul is original_mul
    assert all(before[key] is value for key, value in _originals().items())


def test_traced_calls_are_counted_and_spanned():
    field = make_field(2, 1, 4)
    g = (1, field.alpha, field.alpha_pow(2), field.alpha_pow(3))
    t = Tracer()
    with t:
        code = cd.build(field, cd.make_spec("Gabidulin", 4, 2, 1, g))
        iv.s_sequence(code, 1)
        la.rank_q(field, code.gen[0])
    s = t.summary()
    assert s["spans"]["codes.build"]["calls"] == 1
    assert s["spans"]["codes.from_rows"]["calls"] >= 1
    assert s["children"]["codes.build"]["codes.from_rows"] == 1
    assert s["spans"]["linalg.IncrementalRank.add_row"]["calls"] > 0
    assert s["counts"]["gf.mul"] > 0
    assert 0 < s["add_row_useful"] <= s["spans"]["linalg.IncrementalRank.add_row"]["calls"]
    assert s["field_build_s"] == {}  # make_field was not called under the tracer


def test_merge_adds_counts_and_keeps_field_builds():
    a = {"spans": {"x": {"calls": 1, "total_ns": 5, "self_ns": 4}}, "children": {},
         "top_ns_by_op": {"-1": 5}, "counts": {"gf.mul": 3}, "field_build_s": {"p2d4": [0.1]},
         "dmin_calls": 1}
    b = {"spans": {"x": {"calls": 2, "total_ns": 7, "self_ns": 6}}, "children": {},
         "top_ns_by_op": {"-1": 7}, "counts": {"gf.mul": 4}, "field_build_s": {"p2d4": [0.3]},
         "dmin_calls": 2}
    m = merge_summaries([a, b])
    assert m["spans"]["x"] == {"calls": 3, "total_ns": 12, "self_ns": 10}
    assert m["counts"] == {"gf.mul": 7}
    assert m["field_build_s"] == {"p2d4": [0.1, 0.3]}
    assert m["dmin_calls"] == 3


def test_translation_classes():
    # {0,1,2} and {1,2,3} differ by a shift; {0,1,3} does not
    assert translation_classes([(0, 1, 2), (3, 1, 2), (0, 1, 3)], 5) == 2
    assert translation_classes([(0, 2, 4), (1, 3, 0)], 5) == 1
