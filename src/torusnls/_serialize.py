"""Structured-text (JSON-shaped and CSV) serialization shared by reports,
metadata and run outputs.

Floats are written with 17 significant digits so that parsing recovers them
bit-exactly.  Non-finite floats use the NaN/Infinity literals accepted by
json.loads.

FloatFormatter writes a float64 array as format_float writes each value, as
ASCII bytes, in whole-array passes:

- exponent: e = floor(log10|x|), moved by one where the exact product
  |x| * 10^(16-e) falls outside [10^16, 10^17);
- mantissa: N = round(|x| * 10^(16-e)), from that product taken as a
  double-double: 10^k is held as a (hi, lo) pair of doubles, built once
  with Python integers, and |x| * hi is made exact by Dekker's two-product
  with Veltkamp splitting (numpy has no fused multiply-add), so the product
  is known to within 2^-45 at magnitude below 2^57;
- digits: N as two uint32 halves, each divided by 10 nine times;
- layout: %g's fixed (exponent -4 to 16) or scientific form with trailing
  zeros stripped, one of 850 layouts by sign, form and digit count, each a
  list of rows of a per-value character table (the digits, the exponent's
  digits and .-e+), held as those rows' flat offsets into the table; one
  gather writes every value's layout into a NUL-padded 24-byte row, and
  an S24 view turns the rows into bytes.

A value goes to format_float instead, one at a time, when it is zero or not
finite, when its magnitude lies outside [1e-280, 1e280) (where 10^(16-e) or
its split parts would leave the normal range), or when the computed product
lies within 2^-30 of a rounding tie (fraction 1/2) or of 10^16 or 10^17.
The product's error bound is far below 2^-30, so every other value rounds
exactly as format_float rounds it; an exact tie such as 123456789012345.125
(written 123456789012345.12, ties to even) always goes to format_float.
"""

from __future__ import annotations

import json
import math
from functools import cache

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


# magnitudes in [_LO, _HI) take the vectorized path; 10^k is tabled for
# k = 16 - e over their exponents e and one past them either way
_LO, _HI = 1e-280, 1e280
_K_MIN, _K_MAX = -270, 300
_VELTKAMP = 134217729.0  # 2^27 + 1: splits a double into two 26-bit halves
_TIE = 2.0**-30
_WIDTH = 24  # the longest form, -1.2345678901234567e-123
_GATHER_ROWS = 512

# rows of FloatFormatter's character table, one column per value: rows 0-8
# and 9-17 hold the digits of N // 10^9 and N % 10^9 (row 0 is always '0',
# so digit i of N is row 1 + i), rows 18-22 the constant characters and
# rows 23-25 the exponent's three digits, hundreds first
_DOT, _MINUS, _E, _PLUS, _NUL = 18, 19, 20, 21, 22
_CONSTANTS = b".-e+\0"
_EXP = 23
_ROWS = 26
_X_OFFSET = 300  # exponent x is entry x + _X_OFFSET of the per-exponent tables
# layout classes: 0-20 fixed, exponent class - 4; 21-24 scientific,
# 21 + (exponent >= 0) + 2 * (exponent of three digits)
_CLASSES = 25


def _split(a):
    """Veltkamp's split: hi + lo == a, each with at most 26 significant bits."""
    t = a * _VELTKAMP
    hi = t - (t - a)
    return hi, a - hi


@cache
def _powers_of_ten() -> np.ndarray:
    """(4, k) rows hi, lo and hi's split halves: hi + lo is 10^k, k from
    _K_MIN to _K_MAX, to 2^-106 relative.

    10^k = p / q in integers; int / int and hence hi and lo are correctly
    rounded, and lo rounds the exact remainder 10^k - hi.
    """
    pairs = []
    for k in range(_K_MIN, _K_MAX + 1):
        p, q = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = p / q
        hp, hq = hi.as_integer_ratio()
        pairs.append((hi, (p * hq - hp * q) / (q * hq)))
    hi, lo = np.array(pairs).T
    table = np.stack([hi, lo, *_split(hi)])
    table.flags.writeable = False
    return table


def _layout(negative: bool, cls: int, digits: int) -> list[int]:
    """Character-table rows, one per output character, of one layout."""
    d = [1 + i for i in range(17)]
    out = [_MINUS] if negative else []
    if cls < 21:
        x = cls - 4
        if x >= 0:
            out += d[: x + 1] + ([_DOT, *d[x + 1 : digits]] if digits > x + 1 else [])
        else:
            out += [0, _DOT] + [0] * (-x - 1) + d[:digits]
    else:
        out += d[:1] + ([_DOT, *d[1:digits]] if digits > 1 else [])
        out += [_E, _PLUS if (cls - 21) & 1 else _MINUS]
        out += [_EXP, _EXP + 1, _EXP + 2] if cls >= 23 else [_EXP + 1, _EXP + 2]
    return out + [_NUL] * (_WIDTH - len(out))


@cache
def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The layout table (sign, class, digit count) -> character rows; the
    class base of each exponent; the exponent digits of each exponent."""
    table = np.array(
        [_layout(neg, cls, n) for neg in (False, True) for cls in range(_CLASSES)
         for n in range(1, 18)],
        dtype=np.uint8,
    )
    x = np.arange(-_X_OFFSET, _X_OFFSET + 1)
    cls = np.where((x >= -4) & (x < 17), x + 4, 21 + (x >= 0) + 2 * (np.abs(x) >= 100))
    base = (cls * 17 - 1).astype(np.intp)
    ax = np.abs(x)
    exponent_digits = np.stack([ax // 100, ax // 10 % 10, ax % 10]).astype(np.uint8) + 48
    for a in (table, base, exponent_digits):
        a.flags.writeable = False
    return table, base, exponent_digits


@cache
def _offsets(size: int) -> np.ndarray:
    """The layout table as flat offsets into a character table of `size`
    columns: row r, column 0 is flat element r * size."""
    offsets = _layouts()[0].astype(np.intp) * size
    offsets.flags.writeable = False
    return offsets


@cache
def _columns() -> np.ndarray:
    """(_GATHER_ROWS, _WIDTH): each row's position in a gather chunk, the
    column it reads from a character table sliced at the chunk's start."""
    columns = np.repeat(np.arange(_GATHER_ROWS, dtype=np.intp)[:, None], _WIDTH, axis=1)
    columns.flags.writeable = False
    return columns


class FloatFormatter:
    """Formats float64 arrays as format_float formats each value, as ASCII
    bytes (see the module docstring), `size` values per pass.

    The buffers of one pass serve the next; the tables are built at the
    first FloatFormatter (the layout offsets at the first of each size), not
    at import.  The layout gather indexes _GATHER_ROWS values at a time, so
    its flat index, 8 bytes per output character, stays small.
    """

    def __init__(self, size: int):
        self.size = size
        _, self._class_base, self._exponent_digits = _layouts()
        # row r of the character table, column c, is flat element r * size + c
        self._offsets = _offsets(size)
        self._columns = _columns()
        self._powers = _powers_of_ten()
        self._chars = np.empty((_ROWS, size), dtype=np.uint8)
        self._chars[_DOT:_EXP] = np.frombuffer(_CONSTANTS, dtype=np.uint8)[:, None]
        self._index = np.empty((min(size, _GATHER_ROWS), _WIDTH), dtype=np.intp)
        self._text = np.empty((size, _WIDTH), dtype=np.uint8)
        self._halves = np.empty((3, 2, size), dtype=np.uint32)
        self._factors = np.empty((4, size))
        self._rank = np.arange(1, 18, dtype=np.uint8)[:, None]

    def _product(self, w: np.ndarray, e: np.ndarray, factors: np.ndarray):
        """w * 10^(16 - e) as a + r: a the rounded product with 10^k's hi,
        r the rest, to within 2^-45."""
        # every index is in the table (mode="clip" only skips buffering out)
        hi, lo, hi_hi, hi_lo = np.take(
            self._powers, (16 - _K_MIN) - e, axis=1, out=factors, mode="clip"
        )
        w_hi, w_lo = _split(w)
        a = w * hi
        # Dekker: w * hi - a, exactly, as ((hh - a) + hl + lh) + ll
        r = w_hi * hi_hi
        r -= a
        term = w_hi * hi_lo
        r += term
        np.multiply(w_lo, hi_hi, out=term)
        r += term
        np.multiply(w_lo, hi_lo, out=term)
        r += term
        np.multiply(w, lo, out=term)
        r += term
        return a, r

    def __call__(self, values: np.ndarray) -> list[bytes]:
        x = np.asarray(values, dtype=np.float64).reshape(-1)
        cells = []
        for start in range(0, x.size, self.size):
            cells += self._format(x[start : start + self.size])
        return cells

    def _format(self, x: np.ndarray) -> list[bytes]:
        """One pass over at most self.size values."""
        n = x.size
        w = np.abs(x)
        fallback = w < _LO
        fallback |= ~(w < _HI)  # and NaN
        w[fallback] = 1.0
        e = np.log10(w)
        np.floor(e, out=e)
        e = e.astype(np.intp)
        a, r = self._product(w, e, self._factors[:, :n])
        # the sign of (a - 10^16) + r is the sign of the exact product - 10^16:
        # the subtraction is exact near 10^16, and rounding keeps the sign
        below = a - 1e16
        below += r
        above = a - 1e17
        above += r
        moved = np.flatnonzero((below < 0) | (above >= 0))
        if moved.size:
            e[moved] += np.where(below[moved] < 0, -1, 1)
            a[moved], r[moved] = self._product(w[moved], e[moved], np.empty((4, moved.size)))
            below[moved] = (a[moved] - 1e16) + r[moved]
            above[moved] = (a[moved] - 1e17) + r[moved]
        fallback |= below < _TIE
        fallback |= above > -_TIE
        r += 0.5
        up = np.floor(r)
        r -= up
        r -= 0.5  # now the product less its nearest integer: +-1/2 at a tie
        fallback |= np.abs(r) > 0.5 - _TIE

        n17 = a.astype(np.int64)
        n17 += up.astype(np.int64)
        carried = np.flatnonzero(n17 == 10**17)  # rounded up to the next power
        n17[carried] = 10**16
        e[carried] += 1

        halves, quotient, rest = self._halves[:, :, :n]
        np.floor_divide(n17, 10**9, out=halves[0], casting="unsafe")
        n17 -= halves[0] * np.int64(10**9)
        halves[1] = n17
        chars = self._chars[:, :n]
        digits = self._chars[:18].reshape(2, 9, self.size)[:, :, :n]
        for i in range(8, -1, -1):
            np.floor_divide(halves, 10, out=quotient)
            np.multiply(quotient, 10, out=rest)
            np.subtract(halves, rest, out=digits[:, i], casting="unsafe")
            halves, quotient = quotient, halves
        chars[:18] += 48
        e += _X_OFFSET
        np.take(self._exponent_digits, e, axis=1, out=chars[_EXP:], mode="clip")

        significant = np.max((chars[1:18] != 48) * self._rank, axis=0)
        layout = self._class_base[e]
        layout += significant
        layout += (x < 0) * (_CLASSES * 17)
        text = self._text[:n]
        flat = self._chars.reshape(-1)
        for start in range(0, n, _GATHER_ROWS):
            stop = min(n, start + _GATHER_ROWS)
            index = self._index[: stop - start]
            np.take(self._offsets, layout[start:stop], axis=0, out=index, mode="clip")
            index += self._columns[: stop - start]
            # value start + i, row r is flat element r * size + start + i
            np.take(flat[start:], index, out=text[start:stop], mode="clip")
        cells = text.view(f"S{_WIDTH}").reshape(-1).tolist()
        for i in np.flatnonzero(fallback).tolist():
            cells[i] = format_float(float(x[i])).encode()
        return cells
