import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgini.errors import ValidationError
from qgini.serialize import float17, to_json


def test_float17_full_precision():
    assert float17(0.1) == "0.10000000000000001"
    assert float17(1.0 / 3.0) == "0.33333333333333331"
    assert float17(2.0) == "2"
    assert float17(-0.0) == "-0"


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float17_round_trips_exactly(x):
    assert float(float17(x)) == x


def test_float17_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValidationError):
            float17(bad)


def test_to_json_scalars():
    assert to_json(True) == "true"
    assert to_json(None) == "null"
    assert to_json(3) == "3"
    assert to_json("a\"b") == '"a\\"b"'


def test_to_json_scalar_lists_stay_on_one_line():
    assert to_json([1.5, 2]) == "[1.5, 2]"
    assert to_json([]) == "[]"
    assert to_json({}) == "{}"


def test_to_json_parses_back():
    doc = {
        "dim": 3,
        "kind": "pure",
        "amplitudes": [[0.1, -0.2], [1.0 / 3.0, 0.0], [0.5, 0.5]],
        "flags": {"ok": True, "note": None},
    }
    text = to_json(doc)
    assert json.loads(text) == doc


def test_to_json_uses_17_digits_inside_documents():
    text = to_json({"x": 0.1})
    assert "0.10000000000000001" in text


def test_to_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        to_json({"x": {1, 2}})


def test_to_json_golden_bytes():
    doc = {
        "outer": {"inner": {"n": 1}, "empty": {}},
        "flat": [1, -0.5, "s", True, None],
        "grid": [[0.1, 2], [], [False]],
        "mixed": [3, {"k": []}],
        "np": np.float64(1.0) / 3.0,
        "none": None,
        "text": 'quote " slash \\ tab \t é',
    }
    expected = (
        '{\n'
        '  "outer": {\n'
        '    "inner": {\n'
        '      "n": 1\n'
        '    },\n'
        '    "empty": {}\n'
        '  },\n'
        '  "flat": [1, -0.5, "s", true, null],\n'
        '  "grid": [\n'
        '    [0.10000000000000001, 2],\n'
        '    [],\n'
        '    [false]\n'
        '  ],\n'
        '  "mixed": [\n'
        '    3,\n'
        '    {\n'
        '      "k": []\n'
        '    }\n'
        '  ],\n'
        '  "np": 0.33333333333333331,\n'
        '  "none": null,\n'
        '  "text": "quote \\" slash \\\\ tab \\t \\u00e9"\n'
        '}'
    )
    assert to_json(doc) == expected


@pytest.mark.parametrize(
    "value",
    [np.int64(3), np.bool_(True), np.float32(0.5), np.array([1.0, 2.0]), (1.0, 2.0)],
    ids=["int64", "bool_", "float32", "ndarray", "tuple"],
)
def test_to_json_accepts_only_plain_python_values(value):
    for document in (value, [value], {"x": value}, [[value]]):
        with pytest.raises(TypeError):
            to_json(document)
