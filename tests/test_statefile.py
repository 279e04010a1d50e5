import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgini import (
    DensityMatrix,
    InvalidStateFile,
    NotHermitian,
    NotNormalized,
    NotPositive,
    StateVector,
    TraceNotOne,
    ValidationError,
    load_state_file,
    random_density_matrix,
    random_state_vector,
    save_state_file,
)
from qgini.statefile import dumps_state, loads_state

from conftest import huge_density_document


def test_pure_round_trip_is_bit_exact(tmp_path):
    st = random_state_vector(7, 2021)
    path = tmp_path / "pure.json"
    save_state_file(path, st)
    back = load_state_file(path)
    assert isinstance(back, StateVector)
    assert np.array_equal(back.amplitudes, st.amplitudes)


def test_density_round_trip_is_bit_exact(tmp_path):
    rho = random_density_matrix(5, 2022)
    path = tmp_path / "rho.json"
    save_state_file(path, rho)
    back = load_state_file(path)
    assert isinstance(back, DensityMatrix)
    assert np.array_equal(back.entries, rho.entries)


def _signed_zeros(kind):
    if kind == "pure":
        return StateVector([1 - 0j, complex(-0.0, 0.0), complex(0.0, -0.0)])
    m = np.diag([1.0, 0.0, 0.0]).astype(np.complex128)
    m.real[0, 1] = m.imag[1, 0] = m.imag[2, 2] = -0.0
    return DensityMatrix(m)


@pytest.mark.parametrize("kind", ["pure", "density"])
def test_negative_zero_survives_a_round_trip(kind):
    # float17 writes -0.0 as "-0", an integer literal in JSON
    state = _signed_zeros(kind)
    values = state.amplitudes if kind == "pure" else state.entries
    text = dumps_state(state)
    assert "-0]" in text and "[-0" in text
    back = loads_state(text)
    back_values = back.amplitudes if kind == "pure" else back.entries
    assert np.array_equal(back_values.view(np.uint64), values.view(np.uint64))


def test_minus_zero_dim_still_reads_as_the_integer_zero():
    # only a pair keeps the sign of -0; a written -0.0 is still no integer
    assert loads_state('{"dim": 1, "kind": "pure", "amplitudes": [[1, -0]]}').amplitudes.view(np.uint64)[1] == 1 << 63
    with pytest.raises(ValidationError, match="^state vector has no amplitudes$"):
        loads_state('{"dim": -0, "kind": "pure", "amplitudes": []}')
    with pytest.raises(InvalidStateFile, match=r"^dim must be an integer, got -0\.0$"):
        loads_state('{"dim": -0.0, "kind": "pure", "amplitudes": []}')


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"dim": 0, "kind": "pure", "amplitudes": []}', "state vector has no amplitudes"),
        ('{"dim": 0, "kind": "density", "entries": []}', "density matrix has no entries"),
    ],
    ids=["pure", "density"],
)
def test_empty_state_file_names_the_missing_values(text, message):
    with pytest.raises(ValidationError, match=rf"^{message}$"):
        loads_state(text)


def test_document_shape():
    st = random_state_vector(3, 1)
    doc = json.loads(dumps_state(st))
    assert doc["dim"] == 3
    assert doc["kind"] == "pure"
    assert len(doc["amplitudes"]) == 3
    assert all(len(pair) == 2 for pair in doc["amplitudes"])


def test_dumps_rejects_other_types():
    with pytest.raises(TypeError):
        dumps_state([1, 2, 3])


_PAST_DIGIT_LIMIT = [
    pytest.param('{"dim": 1' + "0" * 5000 + ', "kind": "pure", "amplitudes": []}', id="dim-past-digit-limit"),
    pytest.param('{"dim": 1, "kind": "pure", "amplitudes": [[1' + "0" * 5000 + ', 0]]}', id="amplitude-past-digit-limit"),
]


@pytest.mark.parametrize(
    "text",
    [
        "not json at all",
        "[1, 2, 3]",
        '{"kind": "pure"}',
        '{"dim": 3}',
        '{"dim": "3", "kind": "pure", "amplitudes": []}',
        '{"dim": 3, "kind": "wave", "amplitudes": []}',
        '{"dim": 3, "kind": "pure", "amplitudes": [[1.0, 0.0]]}',
        '{"dim": 3, "kind": "pure", "amplitudes": [[1.0], [0.0], [0.0]]}',
        '{"dim": 3, "kind": "pure", "amplitudes": [[1.0, "x"], [0, 0], [0, 0]]}',
        '{"dim": 2, "kind": "density", "entries": [[1, 0], [0, 0]]}',
        '{"dim": 2, "kind": "density", "entries": "nope"}',
        '{"dim": 1, "kind": "pure", "amplitudes": [[NaN, 0.0]]}',
        '{"dim": 1, "kind": "pure", "amplitudes": [[1.0, -Infinity]]}',
        '{"dim": 1, "kind": "pure", "amplitudes": [[1e999, 0.0]]}',
        pytest.param('{"dim": 1, "kind": "pure", "amplitudes": [[1' + "0" * 400 + ', 0]]}', id="huge-int"),
        pytest.param("[" * 100000, id="deep-nesting"),
        *_PAST_DIGIT_LIMIT,
    ],
)
def test_malformed_documents_rejected(text):
    with pytest.raises(InvalidStateFile):
        loads_state(text)


@pytest.mark.parametrize("text", _PAST_DIGIT_LIMIT)
def test_integer_past_the_digit_limit_is_named(text):
    # valid JSON, so the message names Python's limit instead of calling it invalid
    with pytest.raises(InvalidStateFile, match=r"^state file holds an integer past Python's limit of \d+ digits$"):
        loads_state(text)


_PAIR = " must be a [re, im] pair of finite numbers"


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"dim": 3, "kind": "pure", "amplitudes": [[1, 0], [0, 0], [0, true]]}', "amplitudes[2]" + _PAIR),
        ('{"dim": 3, "kind": "pure", "amplitudes": [[1, 0], [1' + "0" * 400 + ', 0], [0]]}', "amplitudes[1]" + _PAIR),
        ('{"dim": 2, "kind": "density", "entries": [[[0.5, 0], [0, 0]], [[0, 0], [1e999, 0]]]}', "entries[1][1]" + _PAIR),
        ('{"dim": 2, "kind": "density", "entries": [[[0.5, 0], [0, 0, 0]], [[0, 0], [0.5, 0]]]}', "entries[0][1]" + _PAIR),
        (
            '{"dim": 3, "kind": "density", "entries": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], [["x", 0], [0, 0], [0, 0]]]}',
            "entries[2][0]" + _PAIR,
        ),
        (
            '{"dim": 3, "kind": "density", "entries": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0]]]}',
            "entries[2] must be a list of 3 [re, im] pairs",
        ),
        # the first bad row or pair in reading order is named, whatever comes after it
        ('{"dim": 2, "kind": "density", "entries": [[[0.5, 0], [0, false]], [[0, 0]]]}', "entries[0][1]" + _PAIR),
        ('{"dim": 2, "kind": "density", "entries": [[[0.5, 0]], [[0, 0], [0, 1e999]]]}', "entries[0] must be a list of 2 [re, im] pairs"),
        ('{"dim": 2, "kind": "density", "entries": [[[0.5, 0], [0, 0]], {"0": [0, 0]}]}', "entries[1] must be a list of 2 [re, im] pairs"),
    ],
)
def test_bad_pair_is_named_by_its_index(text, message):
    with pytest.raises(InvalidStateFile, match=rf"^{re.escape(message)}$"):
        loads_state(text)


def test_physics_validation_still_applies():
    # structurally fine, but not normalized
    text = '{"dim": 3, "kind": "pure", "amplitudes": [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}'
    with pytest.raises(NotNormalized):
        loads_state(text)


@pytest.mark.parametrize(
    "text, error",
    [
        (huge_density_document(1e308, -1e308), NotHermitian),  # M - M^dag overflows
        (huge_density_document(1e308, 1e308), NotPositive),  # Hermitian, eigenvalue -1e308
        (huge_density_document(0.0, 0.0, (1.7e308, 1.7e308, 0.0)), TraceNotOne),  # the trace overflows
    ],
    ids=["antisymmetric", "symmetric", "trace"],
)
def test_huge_finite_density_entries_rejected_without_overflow(text, error):
    # RuntimeWarnings are errors in this suite, so an overflow warning fails here
    with pytest.raises(error):
        loads_state(text)


@pytest.mark.parametrize(
    "raw",
    [b"\xff\xfe\x00garbage", b'{"dim": 3, "kind": "pure\xe9", "amplitudes": []}'],
    ids=["binary", "latin-1"],
)
def test_file_that_is_not_utf8_is_invalid_state_file(tmp_path, raw):
    path = tmp_path / "state.json"
    path.write_bytes(raw)
    with pytest.raises(InvalidStateFile, match="^state file is not UTF-8 text"):
        load_state_file(path)


def test_loaded_even_dimension_is_caught_downstream(tmp_path):
    # the file itself is structurally valid; new_system rejects the dimension
    from qgini import EvenDimension, new_system

    text = '{"dim": 2, "kind": "pure", "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}'
    st = loads_state(text)
    with pytest.raises(EvenDimension):
        new_system(st.dim)


# ---- fuzzing the file boundary ----

_numbers = st.one_of(st.floats(), st.floats(-1.0, 1.0), st.integers(min_value=-(10**400), max_value=10**400))
_junk = st.one_of(_numbers, st.booleans(), st.text(max_size=2), st.none(), st.lists(_numbers, max_size=3))


@st.composite
def _state_documents(draw):
    """State-file text: valid states, then maybe one number or field replaced, or the text cut."""
    n = draw(st.integers(1, 4))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    total = sum(weights)
    if draw(st.booleans()):
        cells = [[float(np.sqrt(w / total)), 0.0] for w in weights]
        doc = {"dim": n, "kind": "pure", "amplitudes": cells}
    else:
        rows = [[[w / total if r == c else 0.0, 0.0] for c in range(n)] for r, w in enumerate(weights)]
        doc = {"dim": n, "kind": "density", "entries": rows}
        cells = [cell for row in rows for cell in row]
    if draw(st.booleans()):
        draw(st.sampled_from(cells))[draw(st.integers(0, 1))] = draw(_junk)
    if draw(st.booleans()):
        doc[draw(st.sampled_from(["dim", "kind", "amplitudes", "entries"]))] = draw(_junk)
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=400, deadline=None)
@given(_state_documents())
def test_loads_state_returns_a_state_or_raises_validation_error(text):
    try:
        state = loads_state(text)
    except ValidationError:
        return
    assert isinstance(state, (StateVector, DensityMatrix))
    values = state.amplitudes if isinstance(state, StateVector) else state.entries
    assert np.all(np.isfinite(values))
