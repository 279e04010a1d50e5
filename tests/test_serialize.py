import csv
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgini import DensityMatrix, StateVector, load_state_file, new_system, random_state_vector
from qgini import cli
from qgini.cli import _build_record, _csv_cell
from qgini.errors import ValidationError
from qgini.qsystem import _trusted
from qgini.serialize import _scalar_list_text, float17, scalar_text, to_json
from qgini.statefile import dumps_state
from qgini.uncertainty import example_state

from conftest import pair_document

DATA = Path(__file__).parent / "data"


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


# ---- one formatting call per flat list ----

_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308]
_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_FLOATS))
_scalar_lists = st.one_of(
    st.lists(_finite),
    st.lists(st.integers()),
    st.lists(st.booleans()),
    st.lists(st.one_of(st.integers(), _finite)),
    st.lists(_finite.map(np.float64)),
    st.lists(st.one_of(_finite, _finite.map(np.float64))),
)


def per_item_text(items, sep):
    return sep.join(map(scalar_text, items))


@given(_scalar_lists, st.sampled_from([", ", ";"]))
def test_list_text_matches_the_per_item_text(items, sep):
    assert _scalar_list_text(items, sep) == per_item_text(items, sep)


@given(_scalar_lists)
def test_csv_cell_matches_the_per_item_text(items):
    assert _csv_cell(items) == per_item_text(items, ";")


def test_list_text_edge_lists():
    assert _scalar_list_text([], ", ") == "" == _csv_cell([])
    assert _scalar_list_text(_EDGE_FLOATS, ", ") == per_item_text(_EDGE_FLOATS, ", ")
    # the sum overflows, the items do not: still printed, item by item
    assert _scalar_list_text([1e308, 1e308], ", ") == per_item_text([1e308, 1e308], ", ")
    assert _csv_cell([1e308, 1e308]) == per_item_text([1e308, 1e308], ";")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("items", [[0.5, None], [None], [1e308, None], [1, None]], ids=["float", "alone", "huge", "int"])
def test_list_text_refuses_non_finite_items_as_float17_does(items, bad):
    items = [bad if item is None else item for item in items]
    with pytest.raises(ValidationError) as expected:
        float17(bad)
    message = f"^{re.escape(str(expected.value))}$"
    with pytest.raises(ValidationError, match=message):
        _scalar_list_text(items, ", ")
    with pytest.raises(ValidationError, match=message):
        to_json({"values": items})
    with pytest.raises(ValidationError, match=message):
        _csv_cell(items)


# ---- byte equality with the per-scalar writer on real documents ----


def reference_to_json(node, level=0):
    """The per-scalar writer: one scalar_text call per list item."""
    pad = "  " * (level + 1)
    if isinstance(node, dict):
        if not node:
            return "{}"
        body = ",\n".join(pad + json.dumps(str(k)) + ": " + reference_to_json(v, level + 1) for k, v in node.items())
        return "{\n" + body + "\n" + "  " * level + "}"
    if isinstance(node, list):
        if not any(isinstance(item, (dict, list)) for item in node):
            return "[" + ", ".join(scalar_text(item) for item in node) + "]"
        body = ",\n".join(pad + reference_to_json(item, level + 1) for item in node)
        return "[\n" + body + "\n" + "  " * level + "]"
    return scalar_text(node)


def _reference_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ";".join(scalar_text(item) for item in value)
    return scalar_text(value)


def reference_csv(record):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(record.keys())
    writer.writerow([_reference_cell(value) for value in record.values()])
    return buf.getvalue()


@pytest.mark.parametrize("d", [101, 1001])
@pytest.mark.parametrize("which", ["example", "pure"])
def test_report_documents_match_the_per_scalar_writer(capsys, d, which):
    system = new_system(d)
    state = example_state(system) if which == "example" else random_state_vector(d, 7)
    record = _build_record(system, state, which)
    cli._emit(record, "json")
    assert capsys.readouterr().out == reference_to_json(record) + "\n"
    cli._emit(record, "csv")
    assert capsys.readouterr().out == reference_csv(record)


@pytest.mark.parametrize(
    "name, kind, field",
    [
        ("pure-d5-s7.json", "pure", "amplitudes"),
        ("density-d5-s7.json", "density", "entries"),
        ("density-d41-s7.json", "density", "entries"),
    ],
)
def test_state_files_match_the_per_scalar_writer(name, kind, field):
    state = load_state_file(DATA / name)
    values = getattr(state, field)
    document = {"dim": state.dim, "kind": kind, field: np.stack((values.real, values.imag), axis=-1).tolist()}
    expected = reference_to_json(document) + "\n"
    assert dumps_state(state) == expected == (DATA / name).read_text()


# signed zero, the least subnormal, and magnitudes far from 1 either way
_STATE_PARTS = st.one_of(_finite, st.sampled_from([-0.0, 5e-324, 1e-300, 1e300]))


@st.composite
def _trusted_states(draw):
    """A pure or density state of size 1-9 wrapped unchecked, its values in one of several array layouts."""
    n = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["pure", "density"]))
    layout = draw(st.sampled_from(["contiguous", "view", "real"]))
    shape = (n,) if kind == "pure" else (n, n)
    size = math.prod(shape)
    parts = draw(st.lists(_STATE_PARTS, min_size=2 * size, max_size=2 * size))
    values = np.array(parts).view(np.complex128).reshape(shape)
    if layout == "real":
        values = np.array(parts[:size]).reshape(shape)
    elif layout == "view" and kind == "pure":
        # a strided slice of a longer vector
        values = np.repeat(values, 2)[::2]
    elif layout == "view":
        values = values.T
    if kind == "pure":
        return _trusted(StateVector, dim=n, amplitudes=values)
    return _trusted(DensityMatrix, dim=n, entries=values)


@settings(max_examples=300, deadline=None)
@given(_trusted_states())
def test_any_state_is_written_as_the_per_scalar_writer_writes_it(state):
    assert dumps_state(state) == reference_to_json(pair_document(state)) + "\n"
