"""The CLI's CSV writer, :func:`write_tables`, and its exact ``"%.17g"`` cells.

:func:`float_cells` gives, for each value, the bytes of ``"%.17g" % v``
as a row of a NUL-padded ``(n, 24)`` uint8 matrix.  The CLI imports this
module to write a table, so commands that write none never build its tables.

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

__all__ = ["float_cells", "write_tables"]

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
    ).astype(np.int16).reshape(-1, _CELL)
    # a positive cell has at most 22 bytes, so a negative one is "-" and its first 23
    negative = np.column_stack([np.full(len(positive), _MINUS, np.int16), positive[:, :-1]])
    return np.stack([positive, negative], axis=1).reshape(-1, _CELL)


_DIGITS4, _TRAILING4 = _group_tables()
_LAYOUTS = _cell_layouts()
_BLOCK = 1024  # rows per gather: the last source byte of a block, 24 * 1024 - 1, fits in int16
_BLOCK_OFFSETS = np.arange(0, _BLOCK * _CELL, _CELL, dtype=np.int16)[:, None]


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
    # each block of rows gathers from its own slice of the source, by a block-relative index
    for start in range(0, values.size, _BLOCK):
        rows = slice(start, start + _BLOCK)
        index = np.take(_LAYOUTS, code[rows], axis=0)
        index += _BLOCK_OFFSETS[: len(index)]
        # every index is in range by construction; "clip" skips the bounds check
        np.take(flat[start * _CELL:(start + _BLOCK) * _CELL], index, mode="clip", out=cells[rows])
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.17g" % v for v in values[slow].tolist()], dtype=f"S{_CELL}")
        cells[slow] = text.view(np.uint8).reshape(slow.size, _CELL)
    return cells


# Rows formatted per write, so the writer's memory does not grow with the table.
_CHUNK_ROWS = 4096


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _cells(chunk: np.ndarray) -> np.ndarray:
    """One column's cells as a NUL-padded (rows, width) byte matrix."""
    # an integer up to 2**53 in magnitude is an exact float whose "%.17g" is its "%d"
    if chunk.dtype.kind in "iu" and -(2**53) <= int(chunk.min()) and int(chunk.max()) <= 2**53:
        chunk = chunk.astype(np.float64)
    if chunk.dtype.kind == "f":
        return float_cells(chunk)
    if chunk.dtype.kind != "S":  # an object column is formatted before writing
        chunk = np.array(["%d" % value for value in chunk.tolist()], dtype=bytes)
    return chunk.view(np.uint8).reshape(chunk.size, -1)


def _table(out, header: list, columns: list) -> list:
    """Check a table and write its header; return its 1-D columns, each with a key."""
    arrays = []
    for column in columns:
        if column is None:
            arrays.append(None)
            continue
        column = np.asarray(column)
        if column.dtype.kind == "O" and column.ndim == 1:
            arrays.append(np.array([_fmt(value) for value in column], dtype=bytes))
        elif column.dtype.kind not in "fiu" or column.ndim not in (1, 2):
            raise TypeError(f"cannot write a {column.dtype} column of shape {column.shape}")
        else:
            arrays.extend(column.T if column.ndim == 2 else (column,))
    if len(arrays) != len(header):
        raise ValueError(f"{len(header)} header names for {len(arrays)} columns")
    out.write((",".join(header) + "\n").encode())
    # views of the same memory in the same layout hold the same values: one key
    return [(a if a is None else (a.ctypes.data, a.strides, a.dtype.str), a) for a in arrays]


def write_tables(tables: list) -> None:
    """Write each ``(out, header, columns)`` as CSV to the binary file ``out``.

    All columns have one length; a 2-D array adds its columns in order.  A
    column of Python objects may hold None, written as an empty cell, as is
    every cell of a column given as None.  A chunk of rows formats a column
    once for all tables, and goes to each table as one write: the cell
    matrices side by side, with comma and newline columns, NULs dropped.
    """
    layouts = [(out, _table(out, header, columns)) for out, header, columns in tables]
    lengths = {a.size for _, keyed in layouts for _, a in keyed if a is not None}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    n_rows = max(lengths, default=0)
    last = {key: t for t, (_, keyed) in enumerate(layouts) for key, _ in keyed}
    for start in range(0, n_rows, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, n_rows - start)
        comma, newline = (np.full((rows, 1), ord(c), np.uint8) for c in ",\n")
        cells = {}
        for t, (out, keyed) in enumerate(layouts):
            pieces = []
            for key, array in keyed:
                if array is not None:
                    if key not in cells:
                        cells[key] = _cells(array[start:start + rows])
                    pieces.append(cells[key])
                pieces.append(comma)
            pieces[-1] = newline
            table = np.hstack(pieces)
            del pieces
            # keep only the cells that a later table of this chunk reads
            cells = {key: value for key, value in cells.items() if last[key] > t}
            out.write(table[table != 0])
