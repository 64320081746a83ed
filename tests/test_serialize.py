"""File formats: rationals, families, instances, and canonical JSON."""

import json
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import cycle_instance, triangle
from cspgap import (
    Constraint,
    Instance,
    Predicate,
    PredicateFamily,
    ValidationError,
    cut_family,
    format_rational,
    parse_rational,
    solve_basic_lp,
)
from cspgap.serialize import (
    canonical_dumps,
    digits_to_tuple,
    family_from_dict,
    family_to_dict,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    solution_from_dict,
    solution_to_dict,
    tuple_to_digits,
)


def test_rational_format_always_carries_denominator():
    assert format_rational(Fraction(1)) == "1/1"
    assert format_rational(Fraction(4, 10)) == "2/5"
    assert format_rational(Fraction(-3, 9)) == "-1/3"


@pytest.mark.parametrize(
    "text,value",
    [("1/2", Fraction(1, 2)), ("-7/3", Fraction(-7, 3)), ("4", Fraction(4)),
     ("10/4", Fraction(5, 2))],
)
def test_rational_parse(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize(
    "text",
    ["0.5", "1/0", "1/-2", "x", "", "1 / 2", 5, None, ["1/2"],
     pytest.param("7" * 5000, id="5000-digit integer"),
     pytest.param("1/" + "7" * 5000, id="5000-digit denominator")],
)
def test_rational_parse_rejects(text):
    with pytest.raises(ValidationError):
        parse_rational(text)


def test_digit_strings():
    assert tuple_to_digits((0, 1)) == "01"
    assert digits_to_tuple("01", 2) == (0, 1)
    assert digits_to_tuple("a1", 11) == (10, 1)
    with pytest.raises(ValidationError):
        digits_to_tuple("2", 2)
    for text in ("0!", "A1"):
        with pytest.raises(ValidationError):
            digits_to_tuple(text, 36)


def test_family_round_trip():
    fam = cut_family()
    assert family_from_dict(family_to_dict(fam)) == fam


def test_instance_round_trip():
    inst = cycle_instance(5)
    assert instance_from_dict(instance_to_dict(inst)) == inst


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_whatever_the_constructors_accept_round_trips(data):
    """Now and then a field arrives as a numpy int, bool, float, string, Fraction or None."""
    np = pytest.importorskip("numpy")

    def loose(value):
        kind = data.draw(st.sampled_from(["as is"] * 12 + ["numpy", "other"]))
        if kind == "as is":
            return value
        if kind == "numpy" and isinstance(value, int):
            return np.int64(value)
        return data.draw(st.sampled_from([True, False, 0, 2.0, "2", Fraction(2), None, ""]))

    q, k = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 2))
    n = data.draw(st.integers(k, 4))
    names = data.draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=2))
    try:
        fam = PredicateFamily(tuple(
            Predicate(loose(q), loose(k), loose(name),
                      tuple(loose(data.draw(st.integers(0, 1))) for _ in range(q**k)))
            for name in names
        ))
        constraints = tuple(
            Constraint(
                data.draw(st.sampled_from(names)),
                tuple(loose(v) for v in data.draw(st.permutations(range(1, n + 1)))[:k]),
                loose(data.draw(st.integers(1, 3))),
            )
            for _ in range(data.draw(st.integers(1, 3)))
        )
        inst = Instance(fam, loose(n), constraints)
    except ValidationError:
        return  # refused: nothing was accepted that a file could not hold
    assert instance_from_dict(json.loads(canonical_dumps(instance_to_dict(inst)))) == inst


def test_instance_file_with_family_path(tmp_path):
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(canonical_dumps(family_to_dict(cut_family())))
    inst_path = tmp_path / "inst.json"
    data = instance_to_dict(triangle())
    data["family"] = "fam.json"  # resolved relative to the instance file
    inst_path.write_text(canonical_dumps(data))
    assert load_instance(str(inst_path)) == triangle()
    with pytest.raises(ValidationError, match="malformed family object"):
        instance_from_dict(data)  # only a file may name its family by path


def test_zero_weight_constraints_dropped_with_warning():
    data = instance_to_dict(triangle())
    data["constraints"][0]["w"] = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inst = instance_from_dict(data)
    assert inst.m == 2
    assert any("zero-weight" in str(w.message) for w in caught)


def test_negative_weight_rejected():
    data = instance_to_dict(triangle())
    data["constraints"][0]["w"] = -2
    with pytest.raises(ValidationError):
        instance_from_dict(data)


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"q": 2,\n  "k": }')
    with pytest.raises(ValidationError, match=r"line 2"):
        load_instance(str(path))


def test_solution_round_trip():
    inst = cycle_instance(4)
    sol = solve_basic_lp(inst)
    data = solution_to_dict(sol)
    restored = solution_from_dict(data, inst)
    assert restored == sol


def test_canonical_dumps_is_sorted_and_stable():
    a = canonical_dumps({"b": 1, "a": [2, 3]})
    b = canonical_dumps({"a": [2, 3], "b": 1})
    assert a == b
    assert json.loads(a) == {"a": [2, 3], "b": 1}
    assert a.endswith("\n")


JSON_TEXT = st.text() | st.text(st.characters(max_codepoint=0x20)) | st.sampled_from(
    ["", "é", " ", "\U0001f600", '"\\/', "\x00\x7f"]
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**80), 10**80)
    | st.floats()  # nan and the infinities too, spelled as json spells them
    | JSON_TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(JSON_TEXT, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=500, deadline=None)
@given(value=JSON_VALUES)
def test_canonical_dumps_writes_what_json_dumps_writes(value):
    assert canonical_dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    object(), {"a": [1, {2}]}, Fraction(1, 2), b"01", {"a": {1: "b"}}, {1: "a", "b": 2},
], ids=["object", "set", "Fraction", "bytes", "int key", "mixed keys"])
def test_canonical_dumps_refuses_what_it_cannot_write(value):
    with pytest.raises(TypeError):
        canonical_dumps(value)
