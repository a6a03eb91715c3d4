"""Deterministic JSON and CSV emission for the machine interfaces.

JSON floats are printed with 17 significant digits (lossless for doubles) and CSV
floats with 10 (enough that parse-then-reformat is the identity), so emitted
files round-trip byte for byte. No timestamps, no locale, no key reordering.
"""

from __future__ import annotations

import json

import numpy as np

JSON_FLOAT_DIGITS = 17
JSON_INDENT = 2
CSV_FLOAT_DIGITS = 10


def format_float(value: float, digits: int) -> str:
    value = float(value)
    if value == 0.0:
        return "0"
    return format(value, f".{digits}g")


def _is_scalar(obj) -> bool:
    return obj is None or isinstance(
        obj, (bool, np.bool_, int, np.integer, float, np.floating, str)
    )


def _encode_scalar(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj, JSON_FLOAT_DIGITS)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _encode(obj, level: int) -> str:
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if _is_scalar(obj):
        return _encode_scalar(obj)
    pad = " " * (JSON_INDENT * level)
    inner = " " * (JSON_INDENT * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {_encode(value, level + 1)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = [x.tolist() if isinstance(x, np.ndarray) else x for x in obj]
        if not items:
            return "[]"
        if all(_is_scalar(x) for x in items):
            return "[" + ", ".join(_encode_scalar(x) for x in items) + "]"
        parts = [f"{inner}{_encode(x, level + 1)}" for x in items]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_dumps(obj) -> str:
    """Serialize to JSON text with fixed-precision floats; ends with a newline."""
    return _encode(obj, 0) + "\n"


def _csv_field(value) -> str:
    return format_float(value, CSV_FLOAT_DIGITS) if isinstance(value, float) else str(value)


def csv_dumps(header, rows) -> str:
    """CSV text: the header, then one line per row; floats at CSV_FLOAT_DIGITS, none quoted."""
    lines = [",".join(header), *(",".join(map(_csv_field, row)) for row in rows)]
    return "\n".join(lines) + "\n"
