"""Exact ``"%.17g"`` cells for float arrays, vectorised.

:func:`float_cells` gives, for each value, the bytes of ``"%.17g" % v``
as a row of a NUL-padded ``(n, 24)`` uint8 matrix.  The CLI's table
writer imports this module on its first float column, so commands that
write no table never build its tables.

A float x in the fast range 1e-6 < |x| < 1e17 has a decimal exponent E
in [-6, 16] (the float 1e-6 lies below 10**-6, hence the strict bound),
and its 17 significant digits are the integer D = |x| * 10**(16 - E),
rounded half to even, in [10**16, 10**17).  10**k is exact in float64
for k <= 22, and Dekker's error-free product (Numer. Math. 18, 1971)
gives |x| * 10**k exactly as p + err, so E and D are exact.  No float in
the fast range rounds up to the next power of ten: the floats next below
10**-5, ..., 10**17 lie more than half a 17th digit away.  The digits
come from a table of 4-digit groups, and one gather through a table of
cell layouts, by E, the number of digits kept and the sign, places them.
Every other value, nan, the infinities and zero among them, is
formatted by ``"%.17g"`` itself.
"""

from __future__ import annotations

import numpy as np

__all__ = ["float_cells"]

_CELL = 24  # bytes per float cell: "-1.7976931348623157e+308" is the longest
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's factor


def _split(x):
    """Veltkamp's split of float64 x into x = hi + lo exactly, halves of 26 bits or fewer."""
    hi = _SPLIT * x - (_SPLIT * x - x)
    return hi, x - hi


_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI, _POW10_LO = np.array([_split(float(10**k)) for k in range(23)]).T


def _group_tables() -> tuple:
    """Each 4-digit group's ASCII digits as one uint32, and its trailing zeros."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    ascii4 = np.ascontiguousarray((digits + ord("0")).T).view(np.uint32).ravel()
    return ascii4, np.logical_and.accumulate(digits[::-1] == 0).sum(axis=0, dtype=np.int8)


# A cell is gathered from 24 source bytes: word 0 holds the leading digit and
# "-.0", words 1-4 the other 16 digits, and word 5 "e56" and a NUL.
_LEAD4 = np.frombuffer(b"".join(b"%d-.0" % d for d in range(10)), np.uint32)
_TAIL4 = np.frombuffer(b"e56\0", np.uint32)[0]
_MINUS, _POINT, _ZERO, _EXP, _FIVE, _SIX, _NUL = 1, 2, 3, 20, 21, 22, 23


def _cell_layouts() -> np.ndarray:
    """The source byte of each cell byte, by code ((E + 6) * 17 + digits - 1) * 2 + negative.

    "%.17g" writes the 17 digits less their trailing zeros: in fixed
    notation for -4 <= E < 17, where every integer digit stays and E < 0
    puts "0." and -E - 1 zeros in front, and as "d.ddde-0X" for E < -4.
    """
    exponent = np.arange(-6, 17, dtype=np.int8)[:, None, None]
    digits = np.arange(1, 18, dtype=np.int8)[:, None]
    small = (exponent >= -4) & (exponent < 0)
    scientific = exponent < -4
    kept = np.where(exponent >= 0, np.maximum(digits, exponent + 1), digits)
    point_after = np.where(scientific, 0, exponent)  # the digit the point follows
    point = ~small & (point_after + 1 < kept)  # a point before a nonempty fraction
    slot = np.arange(_CELL, dtype=np.int8) - np.where(small, 1 - exponent, 0)  # past "0.00"
    digit = slot - (point & (slot > point_after))  # the digit in a slot
    tail = slot - kept - point  # the slot within "e-0X"
    positive = np.select(
        [
            slot < 0,  # "0.00": its point sits at slot E
            point & (slot == point_after + 1),
            (digit >= 0) & (digit < kept),
            scientific & (tail >= 0) & (tail < 4),
        ],
        [
            np.where(slot == exponent, _POINT, _ZERO),
            _POINT,
            np.where(digit == 0, 0, 3 + digit),
            np.choose(np.clip(tail, 0, 3),
                      [_EXP, _MINUS, _ZERO, np.where(exponent == -6, _SIX, _FIVE)]),
        ],
        _NUL,
    ).astype(np.uint8).reshape(-1, _CELL)
    # a positive cell has at most 22 bytes, so a negative one is "-" and its first 23
    negative = np.column_stack([np.full(len(positive), _MINUS, np.uint8), positive[:, :-1]])
    return np.stack([positive, negative], axis=1).reshape(-1, _CELL)


_DIGITS4, _TRAILING4 = _group_tables()
_LAYOUTS = _cell_layouts()


def _times_power_of_ten(a: np.ndarray, k: np.ndarray) -> tuple:
    """a * 10**k as p + err exactly (Dekker's TwoProduct, no FMA), for 0 <= k <= 22."""
    p = a * _POW10[k]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, err


def _digit_rows(a: np.ndarray) -> tuple:
    """The 24 source bytes of each |x| in the fast range, and its layout code less the sign."""
    # log10 can miss E by one near a power of ten; the exact product says when
    k = (16.0 - np.clip(np.floor(np.log10(a)), -6.0, 16.0)).astype(np.intp)
    p, err = _times_power_of_ten(a, k)
    # p + err against 1e16 and 1e17: p - 1e16 and p - 1e17 are exact where the sign is close
    shift = ((p - 1e16) + err < 0.0).view(np.int8) - ((p - 1e17) + err >= 0.0).view(np.int8)
    wrong = np.flatnonzero(shift)
    if wrong.size:
        k[wrong] += shift[wrong]
        p[wrong], err[wrong] = _times_power_of_ten(a[wrong], k[wrong])
    # p >= 1e16 > 2**53 is an even integer, so adding err rounded half to
    # even rounds p + err half to even
    digits = p.astype(np.int64) + np.rint(err).astype(np.int64)
    lead = digits // 10**16
    digits -= lead * 10**16
    source = np.empty((a.size, 6), np.uint32)
    source[:, 0] = _LEAD4[lead]
    source[:, 5] = _TAIL4
    trailing = np.zeros(a.size, np.intp)  # zeros at the end of the 17 digits
    for word, scale in enumerate((10**12, 10**8, 10**4, 1), start=1):
        group = digits // scale
        digits -= group * scale
        source[:, word] = _DIGITS4[group]
        trailing = np.where(group == 0, trailing + 4, _TRAILING4[group])
    return source, (22 - k) * 17 + 16 - trailing


def float_cells(values: np.ndarray) -> np.ndarray:
    """Each value's "%.17g" cell, NUL-padded to 24 bytes."""
    values = np.asarray(values, dtype=np.float64)
    a = np.abs(values)
    fast = (a > 1e-6) & (a < 1e17)
    source, code = _digit_rows(np.where(fast, a, 1.0))
    code = code * 2 + np.signbit(values)
    flat = source.view(np.uint8).ravel()
    cells = np.empty((values.size, _CELL), np.uint8)
    # The gather index, 8 bytes per cell byte, is the largest array here, so
    # it is built a block of rows at a time, after the digits' temporaries are gone.
    block = 1024
    for start in range(0, values.size, block):
        rows = slice(start, start + block)
        index = np.take(_LAYOUTS, code[rows], axis=0)
        index = index + np.arange(start * _CELL, (start + len(index)) * _CELL, _CELL)[:, None]
        # every index is in range by construction; "clip" skips the bounds check
        np.take(flat, index, mode="clip", out=cells[rows])
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.17g" % v for v in values[slow].tolist()], dtype=f"S{_CELL}")
        cells[slow] = text.view(np.uint8).reshape(slow.size, _CELL)
    return cells
