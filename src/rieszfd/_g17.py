"""Exact ``"%.17g" % v`` text for float64 arrays, built with numpy.

The fast path computes the 17 significant digits with extra precision and
hands every value whose digits it cannot settle to ``"%.17g" % v`` (the
Grisu3 pattern, Loitsch, PLDI 2010).  For 1e-280 <= |v| < 1e280:

* X = floor(log10 |v|), corrected by one step either way;
* D = round-half-even(|v| 10**(16 - X)).  The product is a Dekker
  double-double with 10**(16 - X) stored as a float pair hi + lo, so its
  relative error is about 2**-100 and its fractional part is good to
  about 1e-14 (D < 10**17);
* the digits of D come from a 4-digit lookup table with trailing zeros
  dropped, in fixed notation for -4 <= X < 17 and as ``d.ddde+XX``
  otherwise.

Zeros are written as ``0`` and ``-0``.  Fractional parts within 1e-9 of
1/2 (every exact tie included), inf, NaN and the other magnitudes outside
that range go through ``"%.17g" % v``.

A formatted value is a 0-padded cell of 32 ASCII bytes, handled as four
uint64 words.  Byte 0 holds the sign.  In fixed notation below 1 the
``0.`` prefix ends at byte 6 and the 17 digits fill bytes 7-23; otherwise
the first digit is byte 6, byte 7 is a decimal-point slot and the other
16 digits fill bytes 8-23.  The exponent suffix ends at byte 30 and byte
31 is the separator.  So the text of a cell is at most three runs of
non-zero bytes, and text is made by dropping the 0 bytes with one boolean
compaction.  Every word is built from bytes, so the layout does not
depend on byte order.  ``write_rows`` writes rows of cells after optional
prefixes picked from caller-made tables, from plain numpy temporaries:
``import rieszfd`` raises glibc's trim threshold, so their pages stay
mapped.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

import numpy as np

_CELL = 32
BLOCK_ROWS = 1024

_MIN, _MAX = 1e-280, 1e280
_XMIN, _XMAX = -282, 282  # X of [_MIN, _MAX) after the corrections and a carry
_TIE = 1e-9
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter


def _split(v):
    """v = big + small, each with at most 26 significant bits."""
    big = v * _SPLIT
    big -= big - v
    return big, v - big


def _powers() -> np.ndarray:
    """10**(16 - X) for each table X as hi + lo, good to about 2**-106
    relative (Python's int division is correctly rounded), with hi's
    Veltkamp split: rows hi, lo, hi1, hi2."""
    pairs = []
    for s in range(16 - _XMIN, 15 - _XMAX, -1):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        hi = num / den
        hnum, hden = hi.as_integer_ratio()
        pairs.append((hi, (num * hden - hnum * den) / (den * hden)))
    hi, lo = np.array(pairs).T
    return np.stack([hi, lo, *_split(hi)])


def _words(rows: np.ndarray) -> np.ndarray:
    """Rows of 8k bytes as rows of k uint64 words."""
    return np.ascontiguousarray(rows, np.uint8).view(np.uint64)


def _word(text: bytes) -> np.uint64:
    """Eight bytes as one uint64 word."""
    return np.uint64(int.from_bytes(text, sys.byteorder))


def _frames():
    """Per X: the cell's first word without the sign for each first digit
    (with the ``0.`` prefix; flat, at 10 (X - _XMIN) + digit), its last word (the
    exponent suffix), the digits kept whatever their value (the integer
    part in fixed notation) and the digit the decimal point follows when
    more are kept (17: never)."""
    x = np.arange(_XMIN, _XMAX + 1)
    mag = np.abs(x)
    fixed = (x >= -4) & (x <= 16)
    small = (x >= -4) & (x < 0)
    frame = np.zeros((len(x), _CELL), np.uint8)
    for k in range(4, 7):  # "0." and -X-1 zeros, ending at byte 6
        frame[small & (x <= k - 8), k] = ord("0")
    frame[small, 6 + x[small]] = ord("0")
    frame[small, 7 + x[small]] = ord(".")
    expo = ~fixed
    wide = expo & (mag >= 100)
    frame[expo, 30] = mag[expo] % 10 + ord("0")
    frame[expo, 29] = mag[expo] // 10 % 10 + ord("0")
    frame[wide, 28] = mag[wide] // 100 + ord("0")
    at = np.where(wide, 26, 27)  # "e", then the exponent's sign
    frame[expo, at[expo]] = ord("e")
    frame[expo, at[expo] + 1] = np.where(x < 0, ord("-"), ord("+"))[expo]
    words = _words(frame)
    lead = np.array([[_word(bytes(at) + bytes([d]) + bytes(7 - at)) for d in b"0123456789"]
                     for at in (6, 7)])
    keep = np.where(fixed & (x >= 0), x + 1, 1).astype(np.uint8)
    point = np.where(fixed, np.where(x >= 0, x + 1, 17), 1).astype(np.uint8)
    head = words[:, :1] | lead[small.astype(np.intp)]
    return head.ravel(), words[:, 3].copy(), keep, point


def _digit_tables():
    """The 4 ASCII digits of 0..9999 in bytes 0-3 and in bytes 4-7 of a
    word, the trailing decimal zeros of each (4 for 0), and for the two
    words of 16 digits the masks that keep their first 0..16 bytes."""
    g = np.arange(10000, dtype=np.uint16)
    halves = np.zeros((2, 10000, 8), np.uint8)
    trailing = np.zeros(10000, np.uint8)
    for k, p in enumerate((1000, 100, 10, 1)):
        halves[0, :, k] = halves[1, :, 4 + k] = g // p % 10 + ord("0")
        trailing += g % (10000 // p) == 0
    mask = np.where(np.arange(17)[:, None] > np.arange(16), 0xFF, 0)
    return _words(halves)[..., 0], trailing, _words(mask).T.copy()


_MINUS = _word(b"-".ljust(8, b"\0"))
_DOT, _COMMA, _NEWLINE = (_word(c.rjust(8, b"\0")) for c in (b".", b",", b"\n"))


class _Tables(NamedTuple):
    head: np.ndarray
    last: np.ndarray
    keep: np.ndarray
    point: np.ndarray
    quads: np.ndarray
    trailing: np.ndarray
    mask: np.ndarray
    power: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """The lookup tables, built on first use: building them touches about
    1 MB of numpy code and data that a run which writes no CSV never needs."""
    return _Tables(*_frames(), *_digit_tables(), _powers())


def _scaled(a, i, power):
    """floor(a 10**(16 - X)) as int64 and its fractional part, for table
    rows i = X - _XMIN.  Each table row is gathered where it is first used
    and each product goes into an array that is dead after it, so at most
    eight arrays of a's size are alive, a and i included."""
    a1, a2 = _split(a)
    p = power[0][i]
    p *= a
    h1 = power[2][i]
    err = a1 * h1
    err -= p
    h1 *= a2
    h2 = power[3][i]
    a1 *= h2
    err += a1
    err += h1
    h2 *= a2
    err += h2
    del a1, a2, h1, h2
    err += a * power[1][i]
    whole = np.floor(err)
    err -= whole
    # p >= 2**53 is an integer whenever the result is in [10**16, 10**17)
    return p.astype(np.int64) + whole.astype(np.int64), err


def padded(strings: list[str], width: int | None = None) -> np.ndarray:
    """ASCII ``strings`` as the rows of a uint8 array, 0-padded to
    ``width`` (default: the longest string)."""
    width = width or max(map(len, strings))
    text = "".join([s.ljust(width, "\0") for s in strings])
    return np.frombuffer(text.encode("ascii"), np.uint8).reshape(len(strings), width)


def _format_cells(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``"%.17g" % v`` for each float64 v of ``values`` into the
    cells ``out`` (uint64, shape ``values.shape + (4,)``), leaving their
    separator bytes 0.  Each value-sized intermediate is freed after its
    last reader or overwritten in place, so at most eight are alive at
    once."""
    tab = _tables()
    a = np.abs(values)
    zero = a == 0
    fast = (a >= _MIN) & (a < _MAX)  # NaN fails
    a[~fast] = 1.0
    i = (np.log10(a) - _XMIN).astype(np.intp)  # floor: the sum is positive
    digits, frac = _scaled(a, i, tab.power)
    off = (digits < 10**16) | (digits >= 10**17)  # log10 was one off
    if off.any():
        redo = np.nonzero(off)
        i[redo] += np.where(digits[redo] < 10**16, -1, 1)
        digits[redo], frac[redo] = _scaled(a[redo], i[redo], tab.power)
        fast[redo] &= (digits[redo] >= 10**16) & (digits[redo] < 10**17)
    del a
    exact = (fast | zero) & (np.abs(frac - 0.5) > _TIE)
    digits += frac > 0.5
    del frac
    digits[zero] = 0  # "0", or "-0" with the sign
    carry = digits == 10**17  # rounds to 1 at the next X
    if carry.any():
        digits[carry] = 10**16
        i[carry] += 1

    # each quotient's remainder overwrites its dividend
    lead = digits // 10**16
    digits -= lead * 10**16
    point, keep = tab.point[i], tab.keep[i]
    out[..., 0] = tab.head[i * 10 + lead] | _MINUS * np.signbit(values)
    out[..., 3] = tab.last[i]
    del i, lead
    q0 = digits // 10**12
    digits -= q0 * 10**12
    q1 = digits // 10**8
    digits -= q1 * 10**8
    q2 = digits // 10**4
    q3 = digits
    q3 -= q2 * 10**4
    zeros = tab.trailing[q1] + (q1 == 0) * tab.trailing[q0]
    zeros = tab.trailing[q2] + (q2 == 0) * zeros
    significant = 17 - (tab.trailing[q3] + (q3 == 0) * zeros)
    dotted = significant > point
    out[..., 0] |= _DOT * (dotted & (point == 1))
    kept = np.maximum(significant, keep, dtype=np.intp)
    kept -= 1
    for word, high, low in ((1, q0, q1), (2, q2, q3)):
        quads = tab.quads[0][high]
        quads |= tab.quads[1][low]
        quads &= tab.mask[word - 1][kept]
        out[..., word] = quads
    # fixed notation from 10 up: digits 1..X move one byte left, into the
    # point slot, and the point follows them
    shifted = dotted & (point > 1)
    if shifted.any():
        shifted = np.nonzero(shifted)
        text = out.view(np.uint8)
        for k in np.unique(point[shifted]).tolist():
            rows = tuple(axis[point[shifted] == k] for axis in shifted)
            text[rows + (slice(7, 6 + k),)] = text[rows + (slice(8, 7 + k),)]
            text[rows + (6 + k,)] = ord(".")

    if not exact.all():  # ties and extreme magnitudes only, almost never
        slow = np.nonzero(~exact)
        out[slow] = _words(padded(["%.17g" % v for v in values[slow].tolist()], _CELL))


def write_rows(out, values: np.ndarray, *prefixes: np.ndarray) -> None:
    """Write the ``(n, k)`` float64 ``values`` to the text stream ``out``
    as LF-ended rows of k comma-separated ``%.17g`` values, from one buffer
    in one ``write`` per block of at most ``BLOCK_ROWS`` rows.

    Each row starts with one row of each uint8 table in ``prefixes``
    (0-padded ASCII), taken in the order of ``itertools.product`` over the
    tables' rows: the last table's row moves with every row and wraps
    around, and each earlier table's moves once per wrap of the tables
    after it.  So ``write_rows(out, values, ts, xs)`` starts row
    ``i * len(xs) + j`` with ``ts[i]`` and ``xs[j]``, and a single (n, w)
    table gives row i its own row i.  The tables' lengths must multiply
    to n, or ValueError is raised.  Each block copies its prefix bytes
    straight from the tables into the buffer, so no (n, w) prefix array is
    staged."""
    n, k = values.shape
    strides = [math.prod(len(table) for table in prefixes[i + 1 :]) for i in range(len(prefixes))]
    if prefixes and strides[0] * len(prefixes[0]) != n:
        shapes = ", ".join(str(len(table)) for table in prefixes)
        raise ValueError(f"prefix tables of {shapes} rows do not give {n} rows")
    words = -(-sum(table.shape[1] for table in prefixes) // 8)
    buf = np.zeros((min(n, BLOCK_ROWS), 8 * words + _CELL * k), np.uint8)
    cells = buf.view(np.uint64)[:, words:].reshape(len(buf), k, 4)
    seps = np.array([_COMMA] * (k - 1) + [_NEWLINE])
    for start in range(0, n, BLOCK_ROWS):
        rows = min(n - start, BLOCK_ROWS)
        index = np.arange(start, start + rows)
        at = 0
        for table, stride in zip(prefixes, strides):
            # a take into a temporary, then one copy: a take straight into
            # the strided buffer wrote the ``solve --keep all`` rows at
            # M = N = 1000 5% slower (318 against 303 ms)
            width = table.shape[1]
            buf[:rows, at : at + width] = table.take(index // stride, axis=0, mode="wrap")
            at += width
        _format_cells(values[start : start + rows], cells[:rows])
        cells[:rows, :, 3] |= seps
        block = buf[:rows]
        out.write(block[block != 0].tobytes().decode("ascii"))
