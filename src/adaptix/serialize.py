"""Byte-stable JSON and CSV writers for run artifacts.

Floats are rendered with repr-faithful 17 significant digits so that two
runs producing the same numbers produce the same bytes; dict insertion
order is preserved (never sorted) so artifact layout is part of the
format. NaN and infinities are rejected rather than smuggled into JSON;
the error names the artifact file and the JSON key or CSV column. A file
that cannot be opened or written raises ConfigError naming the artifact.
Strings are escaped as JSON requires, with non-ASCII text written as is.
"""

from __future__ import annotations

import json
import math
import os
from operator import mod

import numpy as np

from .errors import ConfigError


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
        pieces.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), pieces, indent, pad)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, item in enumerate(obj):
            pieces.append(inner)
            try:
                _render(item, pieces, indent + 1, pad)
            except ValueError as exc:
                exc.places = [i, *getattr(exc, "places", ())]
                raise
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
            pieces.append(f'{inner}{json.dumps(key, ensure_ascii=False)}: ')
            try:
                _render(item, pieces, indent + 1, pad)
            except ValueError as exc:
                exc.places = [key, *getattr(exc, "places", ())]
                raise
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
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise ConfigError(f"cannot write artifact {os.path.basename(path)}: "
                          f"{exc.strerror or exc}") from None


def write_json(path, obj) -> None:
    try:
        text = dumps_json(obj)
    except ValueError as exc:
        # ``_render`` lists the keys and indices down to the value
        key = ""
        for place in getattr(exc, "places", ()):
            key = (f"{key}[{place}]" if isinstance(place, int)
                   else f"{key}.{place}" if key else place)
        where = f", key {key}" if key else ""
        raise ValueError(f"{exc} {os.path.basename(path)}{where}") from None
    _write_lines(path, [text])


def write_csv(path, header: list, columns) -> None:
    """One typed 1-D array per ``header`` name, all of one length, written
    as rows with LF endings.

    The dtype decides a column's format once: an integer or bool column
    renders as ``%d`` and a float column as ``%.17g``, which writes a float
    as ``format_float`` does but for a negative zero. ``%.17g`` writes that
    as ``-0``, which reads back as the integer 0, so a row holding one gets
    a format of its own, with ``%.1f`` in that cell. One numpy pass per
    float column finds its negative zeros and its NaNs and infinities; the
    first of those in row order, then column order, raises ValueError
    naming the artifact file and the column.
    """
    columns = [np.asarray(column) for column in columns]
    if len(columns) != len(header) or any(
            column.shape != columns[0].shape or column.ndim != 1
            for column in columns):
        raise ValueError("write_csv takes one 1-D column per header name, "
                         "all of one length")
    specs = []
    cells = []
    bad = []                # (row, column) of each column's first NaN or inf
    negative_zeros = {}     # row -> the columns where it holds a -0.0
    for j, column in enumerate(columns):
        kind = column.dtype.kind
        if kind in "biu":
            specs.append("%d")
        elif kind == "f":
            specs.append("%.17g")
            finite = np.isfinite(column)
            if not finite.all():
                bad.append((int(np.argmin(finite)), j))
            zeros = np.signbit(column) & (column == 0.0)
            for i in np.flatnonzero(zeros).tolist():
                negative_zeros.setdefault(i, []).append(j)
        else:
            raise TypeError(f"column {header[j]} of {os.path.basename(path)} "
                            f"has dtype {column.dtype}, not int or float")
        cells.append(column.tolist())
    if bad:
        i, j = min(bad)
        raise ValueError(f"non-finite value {cells[j][i]!r} in artifact "
                         f"{os.path.basename(path)}, column {header[j]}")
    n_rows = len(columns[0]) if columns else 0
    formats = [",".join(specs) + "\n"] * n_rows
    for i, where in negative_zeros.items():
        row_specs = specs.copy()
        for j in where:
            row_specs[j] = "%.1f"
        formats[i] = ",".join(row_specs) + "\n"
    lines = [",".join(header) + "\n"]
    lines += map(mod, formats, zip(*cells))
    _write_lines(path, lines)
