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
from operator import itemgetter, mod

import numpy as np

from .errors import ConfigError

_INTEGERS = (int, np.integer)


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
            pieces.append(f'{inner}{json.dumps(key, ensure_ascii=False)}: ')
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
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise ConfigError(f"cannot write artifact {os.path.basename(path)}: "
                          f"{exc.strerror or exc}") from None


def _non_finite_key(obj, key: str = "") -> str | None:
    """The key of the first NaN or infinity ``_render`` meets in ``obj``,
    dotted with list indices (``rows[0].quantile_50``); None if none."""
    if isinstance(obj, (float, np.floating)):
        return None if math.isfinite(obj) else key
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        places = {f"{key}.{k}" if key else k: v for k, v in obj.items()}
    elif isinstance(obj, (list, tuple)):
        places = {f"{key}[{i}]": v for i, v in enumerate(obj)}
    else:
        return None
    found = (_non_finite_key(item, place) for place, item in places.items())
    return next((place for place in found if place), None)


def write_json(path, obj) -> None:
    try:
        text = dumps_json(obj)
    except ValueError as exc:
        key = _non_finite_key(obj)
        where = f", key {key}" if key else ""
        raise ValueError(f"{exc} {os.path.basename(path)}{where}") from None
    _write_lines(path, [text])


def write_csv(path, header: list, rows) -> None:
    """Rows of ints/floats, each as wide as the first; ints as written,
    floats at 17 significant digits, LF endings.

    Each column is decided once, not each cell: a column of ints (Python
    or numpy, bools included) renders as ``%d`` and any other as ``%.17g``,
    which writes a float as ``format_float`` does. One numpy pass over a
    float column's values finds its non-finite cells and its negative
    zeros, which ``%.17g`` writes as ``-0``. A row holding a negative zero,
    or an int in a float column, gets a format of its own, with ``%.1f``
    or ``%d`` in that cell.
    """
    rows = list(rows)
    width = len(rows[0]) if rows else 0
    specs = []
    bad = []                # (row, column) of each column's first NaN or inf
    exact = {}              # row -> {column: spec} where "%.17g" misrenders
    for j in range(width):
        column = list(map(itemgetter(j), rows))
        is_int = [issubclass(kind, _INTEGERS)
                  for kind in set(map(type, column))]
        if all(is_int):
            specs.append("%d")
            continue
        specs.append("%.17g")
        if any(is_int):
            for i, value in enumerate(column):
                if isinstance(value, _INTEGERS):
                    exact.setdefault(i, {})[j] = "%d"
                    column[i] = 0.0     # it may lie beyond the float range
        values = np.fromiter(column, np.float64, len(column))
        finite = np.isfinite(values)
        if not finite.all():
            bad.append((int(np.argmin(finite)), j))
        # "-0" would read back as the integer 0, losing the sign
        for i in np.flatnonzero(np.signbit(values) & (values == 0.0)).tolist():
            exact.setdefault(i, {})[j] = "%.1f"
    if bad:
        i, j = min(bad)
        raise ValueError(f"non-finite value {float(rows[i][j])!r} in artifact "
                         f"{os.path.basename(path)}, column {header[j]}")
    formats = [",".join(specs) + "\n"] * len(rows)
    for i, cells in exact.items():
        row_specs = specs.copy()
        for j, spec in cells.items():
            row_specs[j] = spec
        formats[i] = ",".join(row_specs) + "\n"
    lines = [",".join(header) + "\n"]
    lines += map(mod, formats, map(tuple, rows))
    _write_lines(path, lines)
