"""Structured-text (JSON-shaped and CSV) serialization shared by reports,
metadata and run outputs.

Floats are written with 17 significant digits so that parsing recovers them
bit-exactly.  Non-finite floats use the NaN/Infinity literals accepted by
json.loads.
"""

from __future__ import annotations

import json
import math

import numpy as np


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _render(obj, indent: int, out: list) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, np.generic):
        obj = obj.item()
    elif isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(inner + json.dumps(key) + ": ")
            _render(val, indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(obj):
            out.append(inner)
            _render(val, indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    out: list = []
    _render(obj, 0, out)
    return "".join(out)


def _cell(v) -> str:
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def write_csv(path: str, header, rows) -> None:
    """Write a comma-separated file with LF line endings.

    Cells are lowercase true/false for bools, format_float for floats and
    str() for anything else.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)
