"""Number and document formatting shared by state files and the CLI.

Floats are rendered with 17 significant digits: that is enough for
``float(text)`` to recover the exact IEEE double, so every export/import
cycle is bit-faithful. ``json.dumps`` offers no hook for significant-digit
formatting (the encoder calls ``float.__repr__`` directly), hence the small
emitter below. Parsing stays with :func:`json.loads`.
"""

import json
import math

import numpy as np

from qgini.errors import ValidationError


def float17(value) -> str:
    """Format one finite float with 17 significant digits."""
    x = float(value)
    if not math.isfinite(x):
        raise ValidationError(f"non-finite value {x!r} cannot be serialized")
    return format(x, ".17g")


def to_json(document) -> str:
    """Serialize a dict/list/scalar tree to JSON text, floats via float17.

    Lists whose items are all scalars are kept on one line; everything else
    is indented by two spaces per level.
    """
    pieces: list[str] = []
    _emit(document, pieces, 0)
    return "".join(pieces)


def _scalar(node) -> str | None:
    # bool is an int subclass, so it must be tested first
    if isinstance(node, (bool, np.bool_)):
        return "true" if node else "false"
    if isinstance(node, (int, np.integer)):
        return str(int(node))
    if isinstance(node, (float, np.floating)):
        return float17(node)
    if isinstance(node, str):
        return json.dumps(node)
    if node is None:
        return "null"
    return None


def _emit(node, out: list, level: int) -> None:
    text = _scalar(node)
    if text is not None:
        out.append(text)
        return
    pad = "  " * (level + 1)
    close_pad = "  " * level
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
        out.append(close_pad + "}")
    elif isinstance(node, (list, tuple, np.ndarray)):
        items = list(node)
        if not items:
            out.append("[]")
            return
        flat = [_scalar(item) for item in items]
        if all(t is not None for t in flat):
            out.append("[" + ", ".join(flat) + "]")
            return
        out.append("[\n")
        last = len(items) - 1
        for i, item in enumerate(items):
            out.append(pad)
            _emit(item, out, level + 1)
            out.append(",\n" if i < last else "\n")
        out.append(close_pad + "]")
    else:
        raise TypeError(f"cannot serialize object of type {type(node).__name__}")
