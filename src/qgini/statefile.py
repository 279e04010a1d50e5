"""Reading and writing states as JSON documents.

A state file holds one of:

    {"dim": d, "kind": "pure", "amplitudes": [[re, im], ...]}        d pairs
    {"dim": d, "kind": "density", "entries": [[[re, im], ...], ...]} d rows of d pairs

Numbers are written with 17 significant digits, so a save/load cycle
reproduces every IEEE double exactly. :func:`dumps_state` formats all the
numbers in one call, with the same 17-digit format, the same bytes and the
same error for a non-finite number as :func:`qgini.serialize.to_json` gives
the document of pairs. Loading validates the document shape and rejects
non-finite numbers (:class:`InvalidStateFile`), then checks the physics
invariants through the ordinary :class:`StateVector` / density-matrix
validation.

The layout :func:`dumps_state` writes ("dim", "kind" and the values field
in that order, with any JSON whitespace) is read in one flat pass: all the
numbers are parsed as one flat list, with no list per pair. Any other
layout, and every document the flat pass would reject, goes to the general
reader, which parses the document tree. Both paths end in the same
constructors, so every message is unchanged.
"""

import itertools
import json
import os
import re
import sys

import numpy as np

from qgini.errors import InvalidStateFile
from qgini.qsystem import DensityMatrix, StateVector, _check_integer, validate_density
from qgini.serialize import _FLOAT17, float17, scalar_text

_KINDS = ("pure", "density")


def dumps_state(state) -> str:
    """Serialize a StateVector or DensityMatrix to JSON text.

    Writes what to_json writes for the document of [re, im] float pairs in
    the array's own nesting, but formats every number in one call over one
    template, with no list per pair.
    """
    if isinstance(state, StateVector):
        kind, field, values = "pure", "amplitudes", state.amplitudes
    elif isinstance(state, DensityMatrix):
        kind, field, values = "density", "entries", state.entries
    else:
        raise TypeError(f"cannot serialize {type(state).__name__} as a state file")
    head = f'{{\n  "dim": {scalar_text(state.dim)},\n  "kind": "{kind}",\n  "{field}": '
    pairs = np.stack((values.real, values.imag), axis=-1)
    finite = np.isfinite(pairs)
    if not finite.all():  # float17's error, for the first in row-major order, re before im
        float17(pairs[~finite][0])
    return head + _layout(values.shape, 1) % tuple(pairs.ravel().tolist()) + "\n}\n"


def _layout(shape: tuple, level: int) -> str:
    """What to_json writes at `level` for nested [re, im] pairs of `shape`, a number format per number."""
    if not shape:
        return f"[{_FLOAT17}, {_FLOAT17}]"
    pad = "  " * level
    item = pad + "  " + _layout(shape[1:], level + 1)
    return "[\n" + ",\n".join([item] * shape[0]) + "\n" + pad + "]"


def _reject_constant(name: str):
    raise InvalidStateFile(f"state file holds the non-finite number {name}")


# float17 writes -0.0 as "-0", which int() would read as +0; the parser
# hands back this object instead, so a pair keeps the sign and `dim` can
# still tell the integer literal from a written -0.0
_MINUS_ZERO = -0.0


def _parse_int(text: str):
    return _MINUS_ZERO if text == "-0" else int(text)


# the head of the layout dumps_state writes, up to the ':' before the
# values; a space stands for any run of JSON whitespace, and the values
# field must agree with the kind
_FLAT_HEAD = re.compile(
    rb' \{ "dim" : ([1-9][0-9]{0,5}) , "kind" : (?:"(pure)" , "amplitudes"|"density" , "entries") :'.replace(
        b" ", rb"[ \t\n\r]*"
    )
)
_JSON_WHITESPACE = b" \t\n\r"
_NUMBERS_AS_ZEROS = bytes.maketrans(b"123456789.eE+-", b"0" * 14)
# a pair slot with no number in it; re scans for these faster than `in`
# does through the long runs of 0s
_EMPTY_SLOTS = (re.compile(rb"\[,"), re.compile(rb",\]"))
# the ':' before the values and the '}' after them become the brackets of
# one flat list, and the brackets of the pairs and rows become whitespace
_AS_FLAT_LIST = str.maketrans("[]:}", "  []")
_FLAT_DECODER = json.JSONDecoder(parse_int=_parse_int)


def loads_state(text: str):
    """Parse state-file text into a StateVector or DensityMatrix."""
    state = _read_flat(text)
    return _read_general(text) if state is None else state


def _read_flat(text: str):
    """The state of a document in the layout dumps_state writes, else None.

    Parses every number in one flat JSON list, so JSON decides the number
    grammar and -0 keeps its sign, and builds no list per pair. Declines,
    without building anything of size d^2 first, whatever the general
    reader might read differently: a non-ASCII text, another head or tail,
    a payload whose brackets and commas are not exactly d pairs (pure) or d
    rows of d pairs (density), a number outside its pair, and a number that
    is not valid JSON or not finite.
    """
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    head = _FLAT_HEAD.match(raw)
    close = raw.rfind(b"}")
    if head is None or raw[close + 1 :].strip(_JSON_WHITESPACE):
        return None
    dim, pure = int(head[1]), head[2] is not None
    # numbers become runs of 0s and whitespace goes; what is left of the
    # payload must be exactly the brackets and commas of its pairs
    shape = raw[head.end() : close].translate(_NUMBERS_AS_ZEROS, _JSON_WHITESPACE)
    skeleton = shape.translate(None, b"0")
    row = 4 * dim + 1  # "[" + dim "[,]" joined by "," + "]"
    if len(skeleton) != (row if pure else dim * (row + 1) + 1):
        return None
    pairs = b"[" + b",".join([b"[,]"] * dim) + b"]"
    if skeleton != (pairs if pure else b"[" + b",".join([pairs] * dim) + b"]"):
        return None
    # the flat parse allows one number between each two commas, so a number
    # outside its pair leaves a pair slot empty
    if any(slot.search(shape) for slot in _EMPTY_SLOTS):
        return None
    try:
        numbers, _ = _FLAT_DECODER.raw_decode(text.translate(_AS_FLAT_LIST), head.end() - 1)
        parts = np.array(numbers, dtype=np.float64)
    except (ValueError, OverflowError):  # not JSON, past the digit limit, or too large for a double
        return None
    if not np.isfinite(parts).all():
        return None
    values = parts.view(np.complex128)
    return StateVector(values) if pure else validate_density(values.reshape(dim, dim))


def _read_general(text: str):
    """Parse any state-file text through the document tree; the source of every message."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant, parse_int=_parse_int)
    except InvalidStateFile:  # a NaN or Infinity literal, already named
        raise
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidStateFile(f"state file is not valid JSON: {exc}") from exc
    except ValueError as exc:  # valid JSON, but an integer literal Python will not convert
        raise InvalidStateFile(
            f"state file holds an integer past Python's limit of {sys.get_int_max_str_digits()} digits"
        ) from exc
    if not isinstance(doc, dict):
        raise InvalidStateFile("state file must hold a JSON object")
    try:
        dim = doc["dim"]
        kind = doc["kind"]
    except KeyError as exc:
        raise InvalidStateFile(f"state file is missing the {exc.args[0]!r} field") from exc
    if dim is _MINUS_ZERO:
        dim = 0
    _check_integer("dim", dim, InvalidStateFile)
    if kind not in _KINDS:
        raise InvalidStateFile(f"kind must be one of {_KINDS}, got {kind!r}")
    if kind == "pure":
        amplitudes = _complex_list(doc.get("amplitudes"), dim, "amplitudes")
        return StateVector(amplitudes)
    rows = doc.get("entries")
    if not isinstance(rows, list) or len(rows) != dim:
        raise InvalidStateFile(f"entries must be a list of {dim} rows")
    entries = np.array([_complex_list(row, dim, f"entries[{r}]") for r, row in enumerate(rows)])
    return validate_density(entries)


def _complex_list(items, dim: int, what: str) -> np.ndarray:
    if not isinstance(items, list) or len(items) != dim:
        raise InvalidStateFile(f"{what} must be a list of {dim} [re, im] pairs")
    parts = _finite_parts(items)
    if parts is None:
        # the first pair that fails the same check on its own
        i = next(i for i, pair in enumerate(items) if _finite_parts([pair]) is None)
        raise InvalidStateFile(f"{what}[{i}] must be a [re, im] pair of finite numbers")
    return parts.view(np.complex128).ravel()


def _finite_parts(items: list) -> np.ndarray | None:
    """The (n, 2) float array of n [re, im] pairs of finite numbers, else None.

    Checks the whole list at once, with set tests that run in C. JSON numbers
    are exactly int or float, so the type test rejects bools.
    """
    if not (set(map(type, items)) <= {list} and set(map(len, items)) <= {2}):
        return None
    flat = list(itertools.chain.from_iterable(items))
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        parts = np.array(flat, dtype=np.float64).reshape(len(items), 2)
    except OverflowError:  # an integer too large for a double
        return None
    return parts if np.isfinite(parts).all() else None


def save_state_file(path, state) -> None:
    """Write a state to `path` as JSON."""
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        fh.write(dumps_state(state))


def load_state_file(path):
    """Read a state file and return the validated StateVector or DensityMatrix."""
    try:
        with open(os.fspath(path), "r", encoding="utf-8") as fh:
            return loads_state(fh.read())
    except UnicodeDecodeError as exc:
        raise InvalidStateFile(f"state file is not UTF-8 text: {exc}") from exc
