"""Round trips and error handling for the JSON value formats."""

import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgelab import cli
from hodgelab.exterior import Space
from hodgelab.harmonic import SkewEndo
from hodgelab.jsonio import (
    MAX_DIM,
    ParseError,
    form_from_dict,
    form_to_dict,
    skew_endo_from_dict,
    spectral_to_dict,
)


def test_exact_form_round_trip():
    space = Space(4)
    form = space.form(2, {(1, 3): Fraction(3, 7), (2, 4): -2})
    payload = form_to_dict(form)
    assert payload["backend"] == "exact"
    assert {"index": [1, 3], "num": 3, "den": 7} in payload["terms"]
    assert form_from_dict(payload) == form


def test_float_form_round_trip():
    space = Space(3, "float")
    form = space.form(1, {(2,): 0.25})
    payload = form_to_dict(form)
    assert payload["terms"] == [{"index": [2], "value": 0.25}]
    assert form_from_dict(payload) == form


def test_form_parse_errors():
    with pytest.raises(ParseError):
        form_from_dict({"degree": 1, "terms": []})  # no dim
    with pytest.raises(ParseError):
        form_from_dict({"dim": 3, "degree": 2, "terms": [{"index": [1, 1], "num": 1}]})


def test_skew_row_major_flat():
    rows = [[0, -1, 0, 0], [1, 0, 0, 0],
            [0, 0, 0, {"num": -1, "den": 2}], [0, 0, {"num": 1, "den": 2}, 0]]
    flat = [v for row in rows for v in row]
    nested = skew_endo_from_dict({"dim": 4, "matrix": rows})
    assert skew_endo_from_dict({"dim": 4, "matrix": flat}) == nested
    assert nested.rows[2][3] == Fraction(-1, 2)


def test_skew_round_trip():
    a = SkewEndo(Space(4, "float"), [[0, -2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    payload = {"dim": 4, "backend": "float", "matrix": [list(r) for r in a.rows]}
    assert skew_endo_from_dict(payload).rows == a.rows
    # no matrix payload has a "standard" shorthand
    for dim in range(1, MAX_DIM + 1):
        for backend in ("exact", "float"):
            with pytest.raises(ParseError):
                skew_endo_from_dict({"dim": dim, "backend": backend, "matrix": "standard"})


NOT_A_LIST = "'matrix' must be a list of rows or a flat row-major list"


@pytest.mark.parametrize(
    "payload",
    [
        {"dim": 2, "matrix": "abcd"},
        {"dim": 4, "matrix": "standard"},
        {"dim": 1, "backend": "float", "matrix": {"0": 1}},
    ],
    ids=["string-of-entries", "standard-shorthand", "float-object"],
)
def test_a_matrix_that_is_not_a_list_is_rejected_by_name(payload, tmp_path, capsys):
    with pytest.raises(ParseError) as info:
        skew_endo_from_dict(payload)
    assert str(info.value) == NOT_A_LIST
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["decompose", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {NOT_A_LIST}\n"


def test_spectral_serialization():
    from hodgelab.harmonic import spectral

    a = SkewEndo(Space(4, "float"), [[0, -2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    payload = spectral_to_dict(spectral(a))
    assert payload["kernel_rank"] == 2
    assert payload["clusters"][0]["mu"] == -4.0
    assert payload["clusters"][1]["omega"] is None


# -- property-based round trips on both backends ---------------------------

BACKENDS = st.sampled_from(["exact", "float"])
_EXACT = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 7)),
)
_FLOAT = st.floats(-10, 10, allow_nan=False).filter(bool)


def _json(payload):
    return json.loads(json.dumps(payload))


def _scalars(backend):
    return _EXACT if backend == "exact" else _FLOAT


# integer fields of the payloads: each accepts a JSON integer and nothing
# else, so a float, a bool or a string is reported instead of truncated
NOT_INTEGERS = (1.9, 1.0, True, "1", None)


def exact_form_payload():
    return {"dim": 4, "degree": 2, "terms": [{"index": [1, 2], "num": 1, "den": 2}]}


def float_form_payload():
    return {"dim": 4, "degree": 2, "backend": "float", "terms": [{"index": [1, 2], "value": 0.5}]}


def set_field(payload, field, v):
    if field in ("dim", "degree"):
        payload[field] = v
    elif field == "index":
        payload["terms"][0]["index"] = [v, 2]
    else:
        payload["terms"][0][field] = v


def rejects(field):
    return pytest.raises(ParseError, match=f"'{field}' must be an integer")


def test_form_payloads_decode():
    assert form_from_dict(exact_form_payload()) == Space(4).form(2, {(1, 2): Fraction(1, 2)})
    assert form_from_dict(float_form_payload()) == Space(4, "float").form(2, {(1, 2): 0.5})


@pytest.mark.parametrize("bad", NOT_INTEGERS)
@pytest.mark.parametrize("field", ("dim", "degree", "index", "num", "den"))
def test_form_integer_fields_reject_non_integers(field, bad):
    payload = exact_form_payload()
    set_field(payload, field, bad)
    with rejects(field):
        form_from_dict(payload)
    if field not in ("num", "den"):
        payload = float_form_payload()
        set_field(payload, field, bad)
        with rejects(field):
            form_from_dict(payload)


@pytest.mark.parametrize("bad", NOT_INTEGERS)
def test_matrix_payload_integer_fields_reject_non_integers(bad):
    with rejects("dim"):
        skew_endo_from_dict({"dim": bad, "matrix": [[0]]})
    with rejects("dim"):
        skew_endo_from_dict({"dim": bad, "backend": "float", "matrix": [[0.0]]})
    with rejects("num"):
        skew_endo_from_dict({"dim": 2, "matrix": [[0, {"num": bad, "den": 2}], [0, 0]]})
    with rejects("den"):
        skew_endo_from_dict({"dim": 2, "matrix": [[0, {"num": 1, "den": bad}], [0, 0]]})


# float-backend number fields accept a JSON int or float and nothing else,
# so a string or a bool is reported instead of coerced through float()
NOT_NUMBERS = ("0.5", "-1", True, False, None, [0.5], {"num": 1})


@pytest.mark.parametrize("bad", NOT_NUMBERS)
def test_float_form_value_rejects_non_numbers(bad):
    payload = float_form_payload()
    payload["terms"][0]["value"] = bad
    with pytest.raises(ParseError, match="'value' must be a number"):
        form_from_dict(payload)


@pytest.mark.parametrize("bad", NOT_NUMBERS)
def test_float_matrix_entries_reject_non_numbers(bad):
    flat = [0.0, bad, 0.0, 0.0]
    with pytest.raises(ParseError, match="'matrix entry' must be a number"):
        skew_endo_from_dict({"dim": 2, "backend": "float", "matrix": flat})
    rows = [[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, bad], [0.0, 0.0, 1.0, 0.0]]
    with pytest.raises(ParseError, match="'matrix entry' must be a number"):
        skew_endo_from_dict({"dim": 4, "backend": "float", "matrix": rows})


# ``json`` reads the bare tokens NaN, Infinity and -Infinity as floats
NON_FINITE = (float("nan"), float("inf"), float("-inf"))


@pytest.mark.parametrize("bad", NON_FINITE, ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field", ["value", "matrix entry"])
def test_non_finite_numbers_are_a_parse_error(field, bad, tmp_path, capsys):
    if field == "value":
        payload = float_form_payload()
        payload["terms"][0]["value"] = bad
    else:
        payload = {"dim": 2, "backend": "float", "matrix": [[0.0, bad], [1.0, 0.0]]}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["decompose", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {field!r} must be finite, got {bad!r}\n"


def test_float_number_fields_accept_ints_and_floats():
    payload = float_form_payload()
    payload["terms"][0]["value"] = 2
    assert form_from_dict(payload) == Space(4, "float").form(2, {(1, 2): 2.0})
    a = skew_endo_from_dict({"dim": 2, "backend": "float", "matrix": [[0, -1.5], [1.5, 0]]})
    assert a.rows == ((0.0, -1.5), (1.5, 0.0))


@settings(max_examples=60, deadline=None)
@given(st.data(), BACKENDS)
def test_form_round_trip_property(data, backend):
    space = Space(data.draw(st.integers(1, 6)), backend)
    degree = data.draw(st.integers(0, space.dim))
    keys = st.sampled_from(list(combinations(range(1, space.dim + 1), degree)))
    terms = data.draw(st.dictionaries(keys, _scalars(backend), max_size=6))
    form = space.form(degree, terms)
    assert form_from_dict(_json(form_to_dict(form))) == form


def test_exact_matrix_entries_must_be_integers_or_fractions():
    for bad in (0.5, "1/2", True):
        with pytest.raises(ParseError):
            skew_endo_from_dict({"dim": 2, "matrix": [[0, bad], [0, 0]]})


@settings(max_examples=60, deadline=None)
@given(st.data(), BACKENDS)
def test_skew_endo_round_trip_property(data, backend):
    n = data.draw(st.integers(1, 5))
    zero = 0 if backend == "exact" else 0.0
    rows = [[zero] * n for _ in range(n)]
    for r, c in combinations(range(n), 2):
        v = data.draw(st.one_of(st.just(zero), _scalars(backend)))
        rows[r][c], rows[c][r] = v, -v
    a = SkewEndo(Space(n, backend), rows)
    matrix = [[{"num": v.numerator, "den": v.denominator} if isinstance(v, Fraction) else v
               for v in row] for row in rows]
    payload = {"dim": n, "backend": backend, "matrix": matrix}
    assert skew_endo_from_dict(_json(payload)) == a
