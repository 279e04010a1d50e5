"""Number and document formatting shared by state files and the CLI.

A document is a tree of plain Python values: dict, list, str, int, float,
bool and None (numpy float64 is a float subclass and counts as a float).
Any other type raises TypeError, so callers convert arrays with
``tolist()`` before they build a document.

Floats are rendered with 17 significant digits: that is enough for
``float(text)`` to recover the exact IEEE double, so every export/import
cycle is bit-faithful. ``json.dumps`` offers no hook for significant-digit
formatting (the encoder calls ``float.__repr__`` directly), hence the small
emitter below. A flat list of exactly-float or exactly-int items, the bulk of
every report, is formatted in one C-level call; any other list goes item by
item. Parsing stays with :func:`json.loads`.
"""

import json
import math

from qgini.errors import ValidationError

# 17 significant digits: the shortest count that round-trips every double
_FLOAT17 = "%.17g"

# the exact types a list may hold and still be a one-line scalar list
_SCALAR_TYPES = frozenset({float, int, bool, str, type(None)})


def float17(value) -> str:
    """Format one finite float with 17 significant digits."""
    x = float(value)
    if not math.isfinite(x):
        raise ValidationError(f"non-finite value {x!r} cannot be serialized")
    return _FLOAT17 % x


def to_json(document) -> str:
    """Serialize a tree of dict, list, str, int, float, bool and None to JSON text.

    Floats go through float17. Lists with no dict or list among their items
    are kept on one line; everything else is indented by two spaces per
    level. Any other type, numpy arrays, numpy integers and tuples included,
    raises TypeError.
    """
    pieces: list[str] = []
    _emit(document, pieces, 0)
    return "".join(pieces)


def scalar_text(node) -> str:
    """JSON text of one float, bool, int, str or None; TypeError for anything else."""
    # floats are most of every document, so they are tested first; bool is an
    # int subclass, so it must be tested before int
    if isinstance(node, float):
        return float17(node)
    if isinstance(node, bool):
        return "true" if node else "false"
    if isinstance(node, int):
        return str(int(node))
    if isinstance(node, str):
        return json.dumps(node)
    if node is None:
        return "null"
    raise TypeError(f"cannot serialize object of type {type(node).__name__}")


def _scalar_list_text(items: list, sep: str) -> str:
    """The items' scalar texts joined by `sep`, with the errors scalar_text raises.

    A list of exactly float (with a finite sum, so no NaN or infinity among
    them) or of exactly int is formatted in one call; anything else, bool
    and numpy scalars included, goes through scalar_text item by item.
    """
    kinds = set(map(type, items))
    if kinds == {float} and math.isfinite(sum(items)):
        return sep.join([_FLOAT17] * len(items)) % tuple(items)
    if kinds == {int}:
        return sep.join(map(str, items))
    return sep.join(map(scalar_text, items))


def _emit(node, out: list, level: int) -> None:
    pad = "  " * (level + 1)
    if isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        out.append("{\n")
        last = len(node) - 1
        for i, (key, value) in enumerate(node.items()):
            out.append(pad + json.dumps(str(key)) + ": ")
            _emit(value, out, level + 1)
            out.append(",\n" if i < last else "\n")
        out.append("  " * level + "}")
    elif isinstance(node, list):
        # the exact-type test settles plain lists in C; the isinstance scan
        # is left for lists holding subclasses or containers
        if _SCALAR_TYPES.issuperset(map(type, node)) or not any(isinstance(item, (dict, list)) for item in node):
            out.append("[" + _scalar_list_text(node, ", ") + "]")
            return
        out.append("[\n")
        last = len(node) - 1
        for i, item in enumerate(node):
            out.append(pad)
            _emit(item, out, level + 1)
            out.append(",\n" if i < last else "\n")
        out.append("  " * level + "]")
    else:
        out.append(scalar_text(node))
