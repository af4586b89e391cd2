"""JSON input/output.

Output goes through the standard library's encoder, which prints each float
as its repr: the shortest text that parses back to the same double, so a
write/read round trip is exact and repeated runs give byte-identical output.
"""

from __future__ import annotations

import json
import sys

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


def dumps(obj):
    """One line of JSON text, floats as their repr; FormatError for NaN,
    infinity or an object JSON cannot hold."""
    try:
        return json.dumps(obj, allow_nan=False) + "\n"
    except ValueError as exc:   # what allow_nan=False raises
        raise FormatError(f"cannot serialize NaN or infinity: {exc}") from exc
    except TypeError as exc:
        raise FormatError(f"cannot serialize: {exc}") from exc


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
