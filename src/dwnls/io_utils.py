"""Deterministic text serialization: JSON with 17-significant-digit floats,
CSV with '.' decimals, and gnuplot script stubs paired with CSV files."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in JSON output")
    s = format(float(x), ".17g")
    # keep a numeric token that round-trips as float
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def dumps_17g(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits and sorted keys."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k), ensure_ascii=False)}: '
            f'{dumps_17g(obj[k], indent + 2).lstrip()}'
            for k in sorted(obj)
        )
        return f"{pad}{{\n{items}\n{pad}}}" if obj else f"{pad}{{}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        items = ",\n".join(dumps_17g(v, indent + 2) for v in seq)
        return f"{pad}[\n{items}\n{pad}]" if seq else f"{pad}[]"
    if isinstance(obj, bool) or obj is None:
        return pad + {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return pad + _fmt_float(obj)
    if isinstance(obj, str):       # json escapes quotes and control chars
        return pad + json.dumps(obj, ensure_ascii=False)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(path: Path, obj) -> None:
    path.write_text(dumps_17g(obj) + "\n", encoding="utf-8")


def csv_text(header: list[str], columns: list) -> str:
    """CSV text with one row per entry of the columns: numbers at 17
    significant digits, strings as they are."""
    if len(header) != len(columns):
        raise ValueError("header/column count mismatch")
    rows = [",".join(header)]
    for vals in zip(*columns):
        rows.append(",".join(v if isinstance(v, str) else format(float(v), ".17g")
                             for v in vals))
    return "\n".join(rows) + "\n"


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    path.write_text(csv_text(header, columns), encoding="utf-8")


def write_gnuplot(path: Path, csv_name: str, title: str, using: str) -> None:
    text = (
        "set datafile separator ','\n"
        f"set title '{title}'\n"
        "set key autotitle columnhead\n"
        f"plot '{csv_name}' using {using} with lines\n"
    )
    path.write_text(text, encoding="utf-8")
