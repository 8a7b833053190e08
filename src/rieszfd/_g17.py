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
depend on byte order.
"""

from __future__ import annotations

import functools
import sys
from typing import NamedTuple

import numpy as np

_CELL = 32
BLOCK_ROWS = 1024

_MIN, _MAX = 1e-280, 1e280
_XMIN, _XMAX = -282, 282  # X of [_MIN, _MAX) after the corrections and a carry
_TIE = 1e-9
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter


def _split(v, big=None, small=None):
    """v = big + small, each with at most 26 significant bits; ``big`` and
    ``small`` are optional output arrays."""
    t = np.multiply(v, _SPLIT, out=small)
    big = np.subtract(t, np.subtract(t, v, out=big), out=big)
    return big, np.subtract(v, big, out=t)


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
    keep = np.where(fixed & (x >= 0), x + 1, 1)
    point = np.where(fixed, np.where(x >= 0, x + 1, 17), 1)
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


def _scaled(a, a1, a2, i, power, s):
    """floor(a 10**(16 - X)) as int64 and its fractional part, for table
    rows i = X - _XMIN; a = a1 + a2 is the Veltkamp split of a.  The
    results and temporaries are arrays of the :class:`_Scratch` ``s``."""
    # every index is in range by construction; mode="clip" lets np.take
    # write straight into out (mode="raise" buffers it)
    hi, lo, h1, h2 = (np.take(row, i, out=out, mode="clip")
                      for row, out in zip(power, (s.hi, s.lo, s.h1, s.h2)))
    p = np.multiply(a, hi, out=s.p)
    # rest = ((a1 h1 - p) + a1 h2 + a2 h1) + a2 h2 + a lo, in this order
    rest = np.multiply(a1, h1, out=s.rest)
    rest -= p
    rest += np.multiply(a1, h2, out=s.term)
    rest += np.multiply(a2, h1, out=s.term)
    rest += np.multiply(a2, h2, out=s.term)
    rest += np.multiply(a, lo, out=s.term)
    whole = np.floor(rest, out=s.term)
    rest -= whole
    # p >= 2**53 is an integer whenever the result is in [10**16, 10**17)
    np.copyto(s.digits, p, casting="unsafe")
    np.copyto(s.whole, whole, casting="unsafe")
    s.digits += s.whole
    return s.digits, rest


def padded(strings: list[str], width: int | None = None) -> np.ndarray:
    """ASCII ``strings`` as the rows of a uint8 array, 0-padded to
    ``width`` (default: the longest string)."""
    width = width or max(map(len, strings))
    text = "".join([s.ljust(width, "\0") for s in strings])
    return np.frombuffer(text.encode("ascii"), np.uint8).reshape(len(strings), width)


class _Scratch:
    """The temporaries of :func:`_format_cells` for values of one shape,
    made once and reused by every block.  Fresh temporaries would all be
    freed at the end of each block; glibc then trims the top of its heap
    and faults the pages back in on the next one (87k minor faults and
    +0.15 s for 1,002,001 rows of three values on a 2-vCPU x86 machine)."""

    _ARRAYS = (
        (np.float64, ("a", "a1", "a2", "hi", "lo", "h1", "h2", "p", "term", "rest")),
        (np.int64, ("digits", "whole", "lead", "high", "q0", "q2", "point", "index")),
        (np.intp, ("i",)),
        (np.uint64, ("word", "flags")),
        (np.bool_, ("mask", "mask2", "zero", "fast")),
    )

    def __init__(self, shape) -> None:
        for dtype, names in self._ARRAYS:
            for name in names:
                setattr(self, name, np.empty(shape, dtype))

    def head(self, n: int) -> _Scratch:
        """The same arrays cut to their first n rows."""
        if n == len(self.a):
            return self
        part = object.__new__(_Scratch)
        part.__dict__.update((name, array[:n]) for name, array in vars(self).items())
        return part


def _format_cells(values: np.ndarray, out: np.ndarray, scratch: _Scratch) -> None:
    """Write ``"%.17g" % v`` for each float64 v of ``values`` into the
    cells ``out`` (uint64, shape ``values.shape + (4,)``), leaving their
    separator bytes 0.  The temporaries are the arrays of ``scratch``."""
    tab = _tables()
    s = scratch.head(len(values))
    mask = s.mask
    a = np.abs(values, out=s.a)
    zero = np.equal(a, 0.0, out=s.zero)
    fast = np.greater_equal(a, _MIN, out=s.fast)  # NaN fails
    fast &= np.less(a, _MAX, out=mask)
    np.copyto(a, 1.0, where=np.logical_not(fast, out=mask))
    log = np.log10(a, out=s.term)
    log -= _XMIN
    i = s.i
    np.copyto(i, log, casting="unsafe")  # floor: the sum is positive
    a1, a2 = _split(a, s.a1, s.a2)
    whole, frac = _scaled(a, a1, a2, i, tab.power, s)
    off = np.less(whole, 10**16, out=mask)
    off |= np.greater_equal(whole, 10**17, out=s.mask2)  # log10 was one off
    if off.any():
        redo = np.nonzero(off)
        i[redo] += np.where(whole[redo] < 10**16, -1, 1)
        whole[redo], frac[redo] = _scaled(
            a[redo], a1[redo], a2[redo], i[redo], tab.power, _Scratch(len(redo[0]))
        )
        fast[redo] &= (whole[redo] >= 10**16) & (whole[redo] < 10**17)
    exact = np.logical_or(fast, zero, out=fast)
    tie = np.subtract(frac, 0.5, out=a)
    exact &= np.greater(np.abs(tie, out=tie), _TIE, out=mask)
    digits = whole
    digits += np.greater(frac, 0.5, out=mask)
    np.copyto(digits, 0, where=zero)  # "0", or "-0" with the sign
    carry = np.equal(digits, 10**17, out=mask)  # rounds to 1 at the next X
    if carry.any():
        digits[carry] = 10**16
        i[carry] += 1

    # digits = lead 10**16 + q0 10**12 + q1 10**8 + q2 10**4 + q3, in place
    index = s.index
    lead = np.floor_divide(digits, 10**16, out=s.lead)
    digits -= np.multiply(lead, 10**16, out=index)
    high = np.floor_divide(digits, 10**8, out=s.high)
    low = digits
    low -= np.multiply(high, 10**8, out=index)
    q0 = np.floor_divide(high, 10**4, out=s.q0)
    q1 = high
    q1 -= np.multiply(q0, 10**4, out=index)
    q2 = np.floor_divide(low, 10**4, out=s.q2)
    q3 = low
    q3 -= np.multiply(q2, 10**4, out=index)
    zeros = tab.trailing[q1] + (q1 == 0) * tab.trailing[q0]
    zeros = tab.trailing[q2] + (q2 == 0) * zeros
    significant = 17 - (tab.trailing[q3] + (q3 == 0) * zeros)
    point = np.take(tab.point, i, out=s.point, mode="clip")
    dotted = significant > point

    word, flags = s.word, s.flags
    np.multiply(i, 10, out=index)
    index += lead
    np.take(tab.head, index, out=word, mode="clip")
    word |= np.multiply(_MINUS, np.signbit(values, out=mask), out=flags)
    word |= np.multiply(_DOT, dotted & (point == 1), out=flags)
    out[..., 0] = word
    kept = np.take(tab.keep, i, out=index, mode="clip")
    np.maximum(kept, significant, out=kept)
    kept -= 1
    for k, (left, right) in enumerate(((q0, q1), (q2, q3))):
        np.take(tab.quads[0], left, out=word, mode="clip")
        word |= np.take(tab.quads[1], right, out=flags, mode="clip")
        np.take(tab.mask[k], kept, out=flags, mode="clip")
        np.bitwise_and(word, flags, out=out[..., 1 + k])
    out[..., 3] = np.take(tab.last, i, out=word, mode="clip")
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

    slow = np.nonzero(np.logical_not(exact, out=mask))
    if slow[0].size:
        out[slow] = _words(padded(["%.17g" % v for v in values[slow].tolist()], _CELL))


class Rows:
    """Reusable buffers for CSV blocks of up to ``size`` rows.  A row is
    the caller's 0-padded ASCII ``prefix`` row followed by ``columns``
    ``%.17g`` values, comma-separated and LF-terminated."""

    def __init__(self, size: int, columns: int, prefix_width: int = 0) -> None:
        words = -(-prefix_width // 8)
        self._buf = np.zeros((size, 8 * words + _CELL * columns), np.uint8)
        self.prefix = self._buf[:, :prefix_width]
        self._cells = self._buf.view(np.uint64)[:, words:].reshape(size, columns, 4)
        self._seps = np.full(columns, _COMMA)
        self._seps[-1] = _NEWLINE
        self._scratch = _Scratch((size, columns))
        self._nonzero = np.empty(self._buf.shape, np.bool_)

    def text(self, values: np.ndarray) -> str:
        """The rows for the ``(n, columns)`` float64 ``values`` after the
        first n prefix rows."""
        n = len(values)
        _format_cells(values, self._cells[:n], self._scratch)
        self._cells[:n, :, 3] |= self._seps
        block = self._buf[:n]
        return block[np.not_equal(block, 0, out=self._nonzero[:n])].tobytes().decode("ascii")


def write_rows(out, values: np.ndarray) -> None:
    """Write the ``(n, k)`` float64 ``values`` to the text stream ``out``
    as rows of k comma-separated ``%.17g`` values, one ``write`` per block
    of ``BLOCK_ROWS`` rows."""
    rows = Rows(min(len(values), BLOCK_ROWS), values.shape[1])
    for start in range(0, len(values), BLOCK_ROWS):
        out.write(rows.text(values[start : start + BLOCK_ROWS]))
