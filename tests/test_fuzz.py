"""Fuzzing of the inputs that come from outside the program: element text,
code documents and the argv of the integer-only subcommands.

Sizes are bounded (fields with e*m <= 8 and p <= 7, integers <= 64), so the
inputs test shape and type and reach no enumeration budget.  Each strategy
draws mostly well-formed input and bends one part of it, so that the checks
past the first one are reached too."""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from rankinv import cli
from rankinv import codes as cd
from rankinv.base import BuildError
from rankinv.gf import FieldError, make_field, parse_element

FIELDS = [(2, 1, 4), (2, 2, 3), (3, 1, 3), (3, 2, 2), (5, 1, 2), (7, 1, 2)]
SMALL = st.integers(-3, 64)
JSON = st.recursive(
    st.none() | st.booleans() | SMALL | st.floats(-4, 4, width=16) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=8)


@settings(max_examples=200)
@given(st.sampled_from(FIELDS),
       st.text(max_size=12) | st.from_regex(r"\s?(a|alpha|α|A)(\^-?[0-9]{0,4})?|[0-9]{0,2}(:[0-9]{0,2}){0,9}",
                                            fullmatch=True))
def test_parse_element_gives_an_element_or_a_clean_error(shape, text):
    field = make_field(*shape)
    try:
        value = parse_element(field, text)
    except (FieldError, ValueError):
        return
    assert isinstance(value, int) and 0 <= value < field.Q


@st.composite
def code_documents(draw):
    """A code_to_dict document of a small code, whose rows may be ragged or
    hold digits outside [0, p), and one member of which may be replaced by
    arbitrary JSON or dropped."""
    p, e, m = draw(st.sampled_from(FIELDS))
    field = make_field(p, e, m)
    n = draw(st.integers(1, 5))
    coeffs = st.lists(st.integers(0, p - 1) | st.integers(-1, p), max_size=field.d)
    gen = draw(st.lists(st.lists(coeffs, min_size=n, max_size=n) | st.lists(coeffs, max_size=6),
                        max_size=n))
    doc = {"field": {"p": p, "e": e, "m": m, "modulus": list(field.modulus)},
           "n": n, "k": draw(st.integers(0, n)), "gen": gen, "provenance": {}}
    owner, key = draw(st.sampled_from([(None, None), (doc, "n"), (doc, "k"), (doc, "gen"),
                                       (doc, "provenance"), (doc, "field")]
                                      + [(doc["field"], key) for key in doc["field"]]))
    if owner is not None:
        if draw(st.booleans()):
            owner[key] = draw(JSON | st.lists(SMALL, max_size=9))
        else:
            del owner[key]
    return doc


@settings(max_examples=200)
@given(code_documents() | JSON)
def test_code_from_dict_gives_a_code_or_a_clean_error(doc):
    try:
        code, _ = cd.code_from_dict(doc)
    except (ValueError, FieldError, BuildError):
        return
    assert code.n == doc["n"] and code.k == doc["k"]


def _value(name):
    if name == "--format":
        return st.sampled_from(["json", "csv", "pretty"])
    if name == "--q":
        return st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25, 27]).map(str)
    return st.integers(1, 12).map(str)


@st.composite
def argvs(draw):
    """argv for count or census --ub-only with every other option given a
    valid value, in any order, save that one option may be left out or carry
    any small integer or short text."""
    command, names = draw(st.sampled_from([
        ("count", ["--q", "--k", "--n", "--m", "--field-cap", "--format"]),
        ("census", ["--q", "--n", "--k", "--seed", "--trials", "--jobs", "--format"]),
    ]))
    bent = draw(st.sampled_from([None, *names]))
    options = [["--ub-only"]] if command == "census" else []
    for name in names:
        value = draw(st.none() | SMALL.map(str) | st.text(max_size=4) if name == bent else _value(name))
        if value is not None:
            options.append([name, value])
    return [command, *(token for option in draw(st.permutations(options)) for token in option)]


@settings(max_examples=200)
@given(argvs())
def test_count_and_ub_only_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1
    assert (code == 0) == (err.getvalue() == "")
