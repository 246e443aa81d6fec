"""Byte-stable JSON and CSV writers for run artifacts.

Floats are rendered with repr-faithful 17 significant digits so that two
runs producing the same numbers produce the same bytes; dict insertion
order is preserved (never sorted) so artifact layout is part of the
format. NaN and infinities are rejected rather than smuggled into JSON.
"""

from __future__ import annotations

import math

import numpy as np


def format_float(value: float) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value!r} in artifact")
    if value == 0.0 and math.copysign(1.0, value) < 0.0:
        return "-0.0"   # "-0" reads back as the integer 0, losing the sign
    return format(value, ".17g")


def _render(obj, pieces: list, indent: int, pad: str):
    here = pad * indent
    inner = pad * (indent + 1)
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(format_float(obj))
    elif isinstance(obj, str):
        escaped = (obj.replace("\\", "\\\\").replace('"', '\\"')
                      .replace("\n", "\\n").replace("\t", "\\t"))
        pieces.append(f'"{escaped}"')
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), pieces, indent, pad)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, item in enumerate(obj):
            pieces.append(inner)
            _render(item, pieces, indent + 1, pad)
            pieces.append(",\n" if i + 1 < len(obj) else "\n")
        pieces.append(here + "]")
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        items = list(obj.items())
        for i, (key, item) in enumerate(items):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            pieces.append(f'{inner}"{key}": ')
            _render(item, pieces, indent + 1, pad)
            pieces.append(",\n" if i + 1 < len(items) else "\n")
        pieces.append(here + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_json(obj) -> str:
    pieces: list = []
    _render(obj, pieces, 0, "  ")
    pieces.append("\n")
    return "".join(pieces)


def _write_lines(path, lines: list) -> None:
    # the whole text is rendered before the file is opened, so a value that
    # cannot be written leaves no empty or truncated artifact behind
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def _csv_cell(value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(
            value, (bool, np.bool_)):
        return str(int(value))
    return format_float(value)


def write_json(path, obj) -> None:
    _write_lines(path, [dumps_json(obj)])


def write_csv(path, header: list, rows) -> None:
    """Rows of ints/floats; floats at 17 significant digits, LF endings."""
    lines = [",".join(header) + "\n"]
    lines.extend(",".join(map(_csv_cell, row)) + "\n" for row in rows)
    _write_lines(path, lines)
