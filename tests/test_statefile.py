import hashlib
import json
import math
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
from qgini.qsystem import _trusted
from qgini.serialize import to_json
from qgini.statefile import _read_flat, _read_general, dumps_state, loads_state

from conftest import huge_density_document, pair_document, traced_peak


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


# sha256 of the text the per-pair tree walk wrote for these states; the same
# at 1, 2 and 4 BLAS threads
_PINNED_STATES = [
    pytest.param(
        lambda: random_density_matrix(201, 5),
        "82cd7fc3776fe585d79818dca0ce6ab89ffc4bb0e4e2e423e5e1977a93d2f94c",
        id="density-d201-s5",
    ),
    pytest.param(
        lambda: random_state_vector(1001, 5),
        "17890b65db4411544d2e084b165cc3f08154786ffea96453b2bd78e8da570626",
        id="pure-d1001-s5",
    ),
    pytest.param(
        lambda: random_density_matrix(41, 7),
        "b42bfb479317cca827f34ecb01eacb645fc9e10e5ec14041c05bbb50b61c7895",
        id="density-d41-s7",
    ),
]


@pytest.mark.parametrize("make, digest", _PINNED_STATES)
def test_saved_state_keeps_its_bytes_and_its_bits(tmp_path, make, digest):
    state = make()
    path = tmp_path / "state.json"
    save_state_file(path, state)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    back = load_state_file(path)
    field = "amplitudes" if isinstance(state, StateVector) else "entries"
    assert np.array_equal(getattr(back, field).view(np.uint64), getattr(state, field).view(np.uint64))


def _with_two_non_finite_parts(kind, first, second):
    """A state wrapped unchecked, `first` at a late imaginary part and `second` at the real part after it.

    In the density matrix the second comes first in column-major order.
    """
    d = 7
    if kind == "pure":
        values = random_state_vector(d, 3).amplitudes.copy()
        values.imag[d - 2], values.real[d - 1] = first, second
        return _trusted(StateVector, dim=d, amplitudes=values)
    values = random_density_matrix(d, 3).entries.copy()
    values.imag[d - 2, d - 1], values.real[d - 1, 0] = first, second
    return _trusted(DensityMatrix, dim=d, entries=values)


@pytest.mark.parametrize("kind", ["pure", "density"])
@pytest.mark.parametrize(
    "first, second", [(math.nan, math.inf), (math.inf, -math.inf), (-math.inf, math.nan)], ids=["nan", "inf", "-inf"]
)
def test_non_finite_value_is_refused_as_the_document_writer_refuses_it(kind, first, second):
    state = _with_two_non_finite_parts(kind, first, second)
    with pytest.raises(ValidationError) as expected:
        to_json(pair_document(state))
    message = f"non-finite value {first!r} cannot be serialized"
    assert str(expected.value) == message
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        dumps_state(state)


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


# json.dumps keyword sets: one line, indented, and compact
_LAYOUTS = [{}, {"indent": 2}, {"separators": (",", ":")}]


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
    if draw(st.booleans()):
        doc = dict(draw(st.permutations(list(doc.items()))))
    text = json.dumps(doc, **draw(st.sampled_from(_LAYOUTS)))
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


# ---- the flat reader against the general reader ----


def _outcome(read, text):
    """The state's class and value bits, or the exception's class and message."""
    try:
        state = read(text)
    except Exception as exc:
        return type(exc), str(exc)
    values = state.amplitudes if isinstance(state, StateVector) else state.entries
    return type(state), values.shape, values.view(np.uint64).tobytes()


@settings(max_examples=400, deadline=None)
@given(_state_documents())
def test_loads_state_reads_what_the_general_reader_reads(text):
    assert _outcome(loads_state, text) == _outcome(_read_general, text)


_PURE = '{"dim": 3, "kind": "pure", "amplitudes": [[0.6, 0], [0, 0.8], [0, -0]]}'
_DENSITY = '{"dim": 2, "kind": "density", "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, -0]]]}'


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(_PURE, id="pure"),
        pytest.param(_DENSITY, id="density"),
        pytest.param(_PURE.replace("[[", "[ \t\r\n[ ").replace(", ", "\n,\t"), id="json-whitespace"),
        pytest.param(_PURE.replace('"dim": 3, "kind": "pure"', '"kind": "pure", "dim": 3'), id="reordered-keys"),
        pytest.param(_PURE[:-1] + ', "note": 1}', id="extra-key"),
        pytest.param(_PURE[:-1] + ', "amplitudes": [[1, 0], [0, 0], [0, 0]]}', id="repeated-field"),
        pytest.param(_PURE.replace('"dim"', '"\\u0064im"'), id="escaped-key"),
        pytest.param(_PURE.replace('"pure", "amplitudes"', '"pure", "entries"'), id="field-against-kind"),
        pytest.param("\ufeff" + _PURE, id="bom"),
        pytest.param(_PURE + " x", id="trailing-junk"),
        pytest.param(_PURE + "}", id="trailing-brace"),
        pytest.param(_PURE.replace("[[", "\u00a0[["), id="non-ascii-whitespace"),
        pytest.param(_PURE.replace("[[", "\x0b[["), id="vertical-tab"),
        pytest.param(_PURE.replace('"dim": 3', '"dim":\x0c3'), id="form-feed-in-head"),
        pytest.param(_PURE.replace("0.6", ".6"), id="leading-dot"),
        pytest.param(_PURE.replace("0.6", "+0.6"), id="plus-sign"),
        pytest.param(_PURE.replace("[0, 0.8]", "[00, 0.8]"), id="leading-zero"),
        pytest.param(_PURE.replace("0.6", "6."), id="trailing-dot"),
        pytest.param(_DENSITY.replace("0.5", "5E-1"), id="exponent"),
        pytest.param(_PURE.replace("0.6", "1e999"), id="overflow"),
        pytest.param(_PURE.replace("0.6", "NaN"), id="nan"),
        pytest.param(_PURE.replace("0.6", "-Infinity"), id="infinity"),
        pytest.param(_PURE.replace("0.6", "1" + "0" * 400), id="400-digit-integer"),
        pytest.param(_PURE.replace("0.6", "1" + "0" * 5000), id="5000-digit-integer"),
        pytest.param(_PURE.replace("[0, -0]", "[0, true]"), id="true"),
        pytest.param(_PURE.replace("[0, -0]", "[0, null]"), id="null"),
        pytest.param(_PURE.replace("[0, -0]", '[0, "0"]'), id="string"),
        pytest.param(_PURE.replace("[0, -0]", "[0, -0, 0]"), id="long-pair"),
        pytest.param(_PURE.replace("[0, -0]", "[0]"), id="short-pair"),
        pytest.param(_PURE.replace(", [0, -0]", ""), id="missing-pair"),
        pytest.param(_DENSITY.replace("[[0, 0], [0.5, -0]]", "[[0, 0]]"), id="short-row"),
        pytest.param(_DENSITY.replace("[[0, 0], [0.5, -0]]", "[[0, 0], [0.5, -0], [0, 0]]"), id="long-row"),
        pytest.param(_DENSITY.replace("[[[", "[[[[").replace("]]]", "]]]]"), id="deeper-nesting"),
        pytest.param(_PURE.replace('"dim": 3', '"dim": 03'), id="dim-leading-zero"),
        pytest.param(_PURE.replace('"dim": 3', '"dim": 3.0'), id="dim-float"),
        pytest.param(_PURE.replace('"dim": 3', '"dim": -0'), id="dim-minus-zero"),
        pytest.param(_PURE.replace('"dim": 3', '"dim": 1234567'), id="dim-seven-digits"),
        pytest.param(_DENSITY.replace('"dim": 2', '"dim": 999999'), id="dim-999999"),
        # a number outside its pair keeps the brackets and commas of d pairs
        pytest.param(_PURE.replace("[0, 0.8],", "[0, 0.8]5,"), id="number-after-pair"),
        pytest.param(_PURE.replace(", [0, 0.8]", ", 5[0, 0.8]"), id="number-before-pair"),
        pytest.param(_PURE.replace("[0.6, 0]", "[0.6, ]0"), id="number-moved-after-pair"),
        pytest.param(_PURE.replace("[0, 0.8]", "0[, 0.8]"), id="number-moved-before-pair"),
        pytest.param(_DENSITY.replace("[0, 0]], [[", "[0, 1]]7, [["), id="number-after-row"),
        pytest.param(_DENSITY.replace("[0.5, -0]]]", "[0.5, ]-0]]"), id="number-moved-after-row"),
        pytest.param(_PURE.replace("[0.6, 0]", "[0.6 0, ]"), id="two-numbers-in-a-slot"),
        pytest.param(_PURE.replace("[0.6, 0]", "[, 0]"), id="empty-slot"),
        pytest.param(_PURE.replace("0.8", "0.7"), id="not-normalized"),
        pytest.param(_DENSITY.replace("[[[0.5, 0], [0, 0]]", "[[[0.5, 0], [0.1, 0]]"), id="not-hermitian"),
    ],
)
def test_crafted_text_reads_as_the_general_reader_reads_it(text):
    assert _outcome(loads_state, text) == _outcome(_read_general, text)


@pytest.mark.parametrize("state", [random_state_vector(101, 4), random_density_matrix(21, 4)], ids=["pure", "density"])
@pytest.mark.parametrize("compact", [False, True], ids=["indented", "compact"])
def test_flat_reader_takes_what_dumps_state_writes(state, compact):
    text = dumps_state(state)
    if compact:  # the same numbers with no whitespace at all
        text = "".join(text.split())
    back = _read_flat(text)
    assert back is not None
    values = state.amplitudes if isinstance(state, StateVector) else state.entries
    back_values = back.amplitudes if isinstance(back, StateVector) else back.entries
    assert np.array_equal(back_values.view(np.uint64), values.view(np.uint64))


@pytest.mark.parametrize("dim", [3001, 999999])
def test_flat_reader_declines_a_short_payload_without_building_its_dimension(dim):
    # the payload holds 2 x 2 pairs; a skeleton of dim x dim pairs would take
    # about 4 dim^2 bytes
    text = _DENSITY.replace('"dim": 2', f'"dim": {dim}')
    state, peak = traced_peak(lambda: _read_flat(text))
    assert state is None
    assert peak < 64 * 1024
