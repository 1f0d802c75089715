"""The package's value types: construction, repr, equality, hashing and
immutability.

The records are plain classes with __slots__, built, compared, hashed and
printed by rankinv.base.Record.  Their repr strings are pinned to the ones
the frozen dataclasses they replace printed, on both field backends."""

import copy
import importlib
import pickle
import pkgutil

import pytest

import rankinv
import rankinv.classify as cl
import rankinv.codes as cd
import rankinv.counting as ct
import rankinv.invariants as iv
from rankinv.gf import FullAut, GaloisAut, make_field

BACKENDS = ["table", "generic"]


def _field(backend):
    return make_field(2, 1, 4, backend=backend)


def _records(F):
    """(record, an equal record built apart, a record differing in one field)
    for every record type."""
    code = cd.build(F, cd.make_spec("Gabidulin", 4, 2, 1, (1, 2, 4, 8)))
    fp = iv.fingerprint_consecutive(code)
    witness = {"invariant": "dimension", "k1": 1, "k2": 2}
    return [
        (GaloisAut(F, 5), GaloisAut(F, 1), GaloisAut(F, 2)),
        (FullAut(F, 6), FullAut(F, 2), FullAut(F, 1)),
        (cd.LinearCode.from_rows(F, [(1, 2, 4)], 3), cd.LinearCode.from_rows(F, [(2, 4, 8)], 3),
         cd.LinearCode.from_rows(F, [(1, 2, 5)], 3)),
        (cd.make_spec("Twisted", 4, 2, 1, (1, 2, 4, 8), eta=3),
         cd.CodeSpec("Twisted", 4, 2, 1, (1, 2, 4, 8), (3,)),
         cd.make_spec("Twisted", 4, 2, 1, (1, 2, 4, 8), eta=5)),
        (cd.SemilinearMap(3, ((1, 0), (0, 1)), FullAut(F, 1)),
         cd.SemilinearMap(lam=3, A=((1, 0), (0, 1)), tau=FullAut(F, 5)),
         cd.SemilinearMap(3, ((1, 0), (0, 1)), FullAut(F, 2))),
        (iv.invariant_profile(code, 1), iv.invariant_profile(code, 5),
         iv.invariant_profile(code, 2)),
        (fp, iv.Fingerprint("consecutive", fp.key, ()),
         iv.Fingerprint("consecutive", fp.key[1:], fp.detail)),
        (cl.Verdict("Unknown", None), cl.Verdict("Unknown", None, ""),
         cl.Verdict("Unknown", None, "x")),
        (ct.CountBound("x", "exact", 5, True), ct.CountBound("x", "exact", 5, True, ""),
         ct.CountBound("x", "exact", 6, True)),
        (ct.counting(2, 2, 4, 4), ct.counting(2, 2, 4, 4), ct.counting(2, 2, 4, 5)),
        tuple(cl.Verdict("Inequivalent", w, "dimensions differ: 1 vs 2")
              for w in (witness, dict(witness), dict(witness, k2=3))),
    ]


REPRS = [
    "GaloisAut(field=FieldTower(p=2, e=1, m=4, backend='{b}'), r=1)",
    "FullAut(field=FieldTower(p=2, e=1, m=4, backend='{b}'), j=2)",
    "LinearCode(n=3, k=1, q^m=2^4)",
    "CodeSpec(family='Twisted', n=4, k=2, theta_exp=1, g=(1, 2, 4, 8), eta=(3,), t=None, "
    "h=None)",
    "SemilinearMap(lam=3, A=((1, 0), (0, 1)), tau=FullAut(field=FieldTower(p=2, e=1, m=4, "
    "backend='{b}'), j=1))",
    "InvariantProfile(sigma=1, s=(2, 3, 4), t=(2, 1, 0), delta=(1, 1, 0), lam=(1, 1, 0))",
    "Fingerprint(mode='consecutive', key=(((2, 2), (2, 2)), ((3, 4), (1, 0)), ((3, 4), (1, 0)), "
    "((4, 4), (0, 0))))",
    "Verdict(status='Unknown', witness=None, detail='')",
    "CountBound(name='x', kind='exact', value=5, applicable=True, note='')",
    None,  # CountResult: below
    "Verdict(status='Inequivalent', witness={{'invariant': 'dimension', 'k1': 1, 'k2': 2}}, "
    "detail='dimensions differ: 1 vs 2')",
]

COUNT_RESULT_REPR = (
    "CountResult(q=2, k=2, n=4, m=4, bounds=(CountBound(name='gabidulin_fixed_theta', "
    "kind='exact', value=1344, applicable=True, note='distinct Gabidulin codes for one "
    "generating theta'), CountBound(name='gabidulin_all_theta_lower', kind='lower', value=1344, "
    "applicable=False, note='distinct Gabidulin codes over all generating theta'), "
    "CountBound(name='gabidulin_all_theta_upper', kind='upper', value=1344, applicable=False, "
    "note=''), CountBound(name='inequivalent_mrd_lower', kind='lower', value=1, "
    "applicable=False, note='inequivalent MRD codes (not only Gabidulin)'), "
    "CountBound(name='gabidulin_classes_m_eq_n', kind='exact', value=1, applicable=False, "
    "note='equivalence classes of Gabidulin codes when m = n'), "
    "CountBound(name='gabidulin_classes_m_gt_n_lower', kind='lower', value=None, "
    "applicable=False, note='needs m > n'), CountBound(name='gabidulin_classes_m_gt_n_upper', "
    "kind='upper', value=None, applicable=False, note='needs m > n'), "
    "CountBound(name='twisted_fixed_theta', kind='exact', value=0, applicable=True, "
    "note='distinct twisted codes (nonzero eta with the norm constraint) for one theta; zero "
    "at q=2'), CountBound(name='twisted_all_theta_upper', kind='upper', value=0, "
    "applicable=True, note=''), CountBound(name='eta_orbit_count', kind='exact', value=1, "
    "applicable=True, note='orbits of the automorphism group on twist scalars of admissible "
    "norm'), CountBound(name='twisted_classes_m_eq_n', kind='exact', value=1, "
    "applicable=False, note='equivalence classes of twisted codes when m = n')))")


@pytest.mark.parametrize("backend", BACKENDS)
def test_repr_is_the_dataclass_repr(backend):
    for (rec, _, _), want in zip(_records(_field(backend)), REPRS):
        want = COUNT_RESULT_REPR if want is None else want.format(b=backend)
        assert repr(rec) == want


@pytest.mark.parametrize("backend", BACKENDS)
def test_equality_and_hash_follow_class_and_fields(backend):
    for rec, same, different in _records(_field(backend)):
        assert rec == same and not rec != same and rec is not same
        assert rec != different and not rec == different
        if not isinstance(rec, cl.Verdict):  # a witness dict is unhashable
            assert hash(rec) == hash(same)
            assert len({rec, same, different}) == 2
        assert rec != object() and rec != tuple(rec.__slots__)


@pytest.mark.parametrize("backend", BACKENDS)
def test_equal_fields_of_different_classes_are_unequal(backend):
    F = _field(backend)
    assert GaloisAut(F, 1) != FullAut(F, 1)
    assert not GaloisAut(F, 1) == FullAut(F, 1)
    # a fingerprint is its (mode, key): the detail is not compared or hashed
    fp = iv.Fingerprint("consecutive", ((1,),), ("one detail",))
    same = iv.Fingerprint("consecutive", ((1,),), ("another",))
    assert fp == same and hash(fp) == hash(same)
    assert fp != iv.Fingerprint("random_triples", ((1,),), ("one detail",))


@pytest.mark.parametrize("backend", BACKENDS)
def test_attributes_are_read_only(backend):
    for rec, _, _ in _records(_field(backend)):
        for name in rec.__slots__:
            before = getattr(rec, name)
            with pytest.raises(AttributeError):
                setattr(rec, name, before)
            with pytest.raises(AttributeError):
                delattr(rec, name)
            assert getattr(rec, name) is before
        with pytest.raises(AttributeError):
            rec.extra = 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_copies_and_pickles_are_equal_records(backend):
    for rec, _, _ in _records(_field(backend)):
        for copied in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert type(copied) is type(rec) and copied == rec
            with pytest.raises(AttributeError):
                copied.extra = 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_linear_code_diffs_are_made_once(backend, monkeypatch):
    made = []
    real = cd.Differences
    monkeypatch.setattr(cd, "Differences", lambda code: made.append(code) or real(code))
    F = _field(backend)
    code = cd.build(F, cd.make_spec("Gabidulin", 4, 2, 1, (1, 2, 4, 8)))
    first = code.diffs
    iv.s_sequence(code, 1)
    iv.t_sequence(code, 3)
    iv.fingerprint_consecutive(code)
    assert code.diffs is first and made == [code]
    # a code equal to it keeps its own cache
    twin = cd.LinearCode(F, code.n, code.k, code.gen)
    assert twin == code and twin.diffs is not first and len(made) == 2


def _fields(F):
    """(record type, its constructor's fields by name, in order) for every
    record type."""
    return [
        (GaloisAut, {"field": F, "r": 5}),
        (FullAut, {"field": F, "j": 6}),
        (cd.LinearCode, {"field": F, "n": 3, "k": 1, "gen": ((1, 2, 4),)}),
        (cd.CodeSpec, {"family": "Twisted", "n": 4, "k": 2, "theta_exp": 1, "g": (1, 2, 4, 8),
                       "eta": (3,), "t": None, "h": None}),
        (cd.SemilinearMap, {"lam": 3, "A": ((1, 0), (0, 1)), "tau": FullAut(F, 1)}),
        (iv.InvariantProfile, {"sigma": 1, "s": (2, 3, 4), "t": (2, 1, 0), "delta": (1, 1, 0),
                               "lam": (1, 1, 0)}),
        (iv.Fingerprint, {"mode": "consecutive", "key": ((1,),), "detail": ("d",)}),
        (cl.Verdict, {"status": "Unknown", "witness": None, "detail": "x"}),
        (ct.CountBound, {"name": "x", "kind": "exact", "value": 5, "applicable": True,
                         "note": "y"}),
        (ct.CountResult, {"q": 2, "k": 2, "n": 4, "m": 4,
                          "bounds": (ct.CountBound("x", "exact", 5, True),)}),
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_keywords_and_positions_build_equal_records(backend):
    for cls, fields in _fields(_field(backend)):
        rec = cls(*fields.values())
        assert rec == cls(**fields) and repr(rec) == repr(cls(**fields))
        first, *rest = fields
        assert rec == cls(fields[first], **{name: fields[name] for name in rest})


def test_left_out_fields_take_their_defaults():
    assert cd.CodeSpec("Gabidulin", 4, 2) == cd.CodeSpec("Gabidulin", 4, 2, 1, (), None, None,
                                                         None)
    spec = cd.CodeSpec("Twisted", 4, 2, eta=(3,))
    assert (spec.theta_exp, spec.g, spec.eta, spec.t, spec.h) == (1, (), (3,), None, None)
    assert ct.CountBound("x", "exact", 5, True).note == ""
    assert cl.Verdict("Unknown", None).detail == ""


@pytest.mark.parametrize("backend", BACKENDS)
def test_bad_constructor_calls_raise_type_error(backend):
    for cls, fields in _fields(_field(backend)):
        first, *rest = fields
        values = list(fields.values())
        with pytest.raises(TypeError):  # the first field missing
            cls(**{name: fields[name] for name in rest})
        with pytest.raises(TypeError):  # one positional field too many
            cls(*values, None)
        with pytest.raises(TypeError):  # a field that is not one
            cls(*values, bogus=1)
        with pytest.raises(TypeError):  # the first field twice
            cls(*values, **{first: fields[first]})


def test_every_record_type_is_checked_here():
    for info in pkgutil.iter_modules(rankinv.__path__):
        importlib.import_module(f"rankinv.{info.name}")
    types, todo = set(), [rankinv.base.Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            types.add(sub)
            todo.append(sub)
    F = _field("table")
    assert types == {type(rec) for rec, _, _ in _records(F)} == {cls for cls, _ in _fields(F)}
    for cls in types:  # one ==, hash for every record, so the checks above cover them all
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls
