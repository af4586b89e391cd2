"""JSON input/output with deterministic float formatting.

Floats are emitted with 17 significant digits so that write/read round-trips
are exact for IEEE doubles and repeated runs produce byte-identical output.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .errors import FormatError
from .pauli import (bloch_from_dict, bloch_to_dict, density_from_dict,
                    density_to_dict)

__all__ = [
    "dumps",
    "load_input",
    "loads_state",
    "density_to_json",
    "bloch_to_json",
]


def _format_float(x):
    if x != x:
        raise FormatError("cannot serialize NaN")
    if x in (float("inf"), float("-inf")):
        raise FormatError("cannot serialize infinity")
    return format(x, ".17g")


def _emit(obj, out):
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise FormatError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj):
    """Serialize to a JSON string with 17-significant-digit floats."""
    out = []
    _emit(obj, out)
    out.append("\n")
    return "".join(out)


def density_to_json(rho):
    return dumps(density_to_dict(rho))


def bloch_to_json(b):
    return dumps(bloch_to_dict(b))


def loads_state(text):
    """Parse a state from JSON text; detects density vs Bloch layout.

    Returns ("density", matrix) or ("bloch", BlochTensor).
    """
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:   # RecursionError: nested too deeply
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError("top-level JSON value must be an object")
    if "matrix" in data:
        return "density", density_from_dict(data)
    if "alpha" in data:
        return "bloch", bloch_from_dict(data)
    raise FormatError("object has neither a 'matrix' nor an 'alpha' key")


def load_input(path):
    """Read a state file ('-' for stdin) and parse it; both are decoded strictly as UTF-8."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"input is not UTF-8 text: {exc}") from exc
    return loads_state(text)
