"""The vectorized ``%.17g`` formatter against Python's ``"%.17g" % v``,
value by value, on random floats and on the cases its fast path must get
right or hand to the exact formatter: powers of ten and their neighbours,
the fixed/exponent notation switch, exact ties in the 18th digit, and
roundings that carry into the next power of ten."""

import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rieszfd import _g17
from test_properties import PROPERTY


def _assert_formats_like_python(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    out = io.StringIO()
    _g17.write_rows(out, values.reshape(-1, 1))
    got = out.getvalue().split("\n")
    assert got.pop() == ""
    expected = ["%.17g" % v for v in values.tolist()]
    assert len(got) == len(expected)
    wrong = [(v, g, e) for v, g, e in zip(values.tolist(), got, expected) if g != e]
    assert not wrong, wrong[:10]


def _power_of_ten(k: int) -> float:
    """The double nearest to 10**k (int division is correctly rounded)."""
    return float(10**k) if k >= 0 else 1 / 10**-k


def _with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    around = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])
    return np.concatenate([around, -around])


@PROPERTY
@given(
    st.lists(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        min_size=1,
        max_size=200,
    )
)
def test_random_floats(values):
    _assert_formats_like_python(values)


def test_powers_of_ten_and_neighbours():
    # all of -323..308, a superset of the sharpest cases -40..16: every
    # table exponent and both ends of the fast path's range
    _assert_formats_like_python(_with_neighbours([_power_of_ten(k) for k in range(-323, 309)]))


def test_notation_switch():
    # %.17g writes 0.0001 in fixed notation and 1.0000000000000001e-05 with
    # an exponent; walk 40 ulps either side of both, plus decimal inputs
    # just below them that parse to or round to the switch
    edges = []
    for v in (1e-5, 1e-4, 1e16, 1e17):
        below, above = v, v
        for _ in range(40):
            below, above = np.nextafter(below, 0), np.nextafter(above, np.inf)
            edges += [below, above]
        edges.append(v)
    edges += [9.9999999999999999e-5, 9.99999999999999995e-6, 0.000099999999999999995,
              9.9999999999999999e15]
    _assert_formats_like_python(_with_neighbours(edges))


def test_exact_ties_in_the_18th_digit():
    # j 2**-(17 - X) 10**(16 - X) = j 5**(16 - X) / 2 is an odd multiple of
    # 1/2 for odd j: 17 digits end exactly half-way
    rng = np.random.default_rng(0)
    ties = []
    for X in range(-8, 13):
        scale = 2.0 ** -(17 - X)
        lo = int(np.ceil(10.0**X / scale)) | 1
        hi = int(10.0 ** (X + 1) / scale)
        odd = np.concatenate([[lo, hi - 1 | 1], rng.integers(lo // 2, hi // 2, 200) * 2 + 1])
        values = odd[(odd >= lo) & (odd < hi)] * scale
        assert all(Fraction(v) * Fraction(10) ** (16 - X) % 1 == Fraction(1, 2) for v in values[:5])
        ties.append(values)
    _assert_formats_like_python(_with_neighbours(np.concatenate(ties)))


def test_rounding_that_carries_to_the_next_power():
    # the doubles nearest to these powers of ten lie below them by less
    # than half a unit in the 17th digit, so %.17g rounds them up to 1eK
    carries = [-305, -243, -176, -175, -174, -79, -78, -73, -70, -14, 98, 129, 153, 220]
    values = [_power_of_ten(k) for k in carries]
    assert all(Fraction(v) < Fraction(10) ** k for v, k in zip(values, carries))
    _assert_formats_like_python(_with_neighbours(values + [np.nextafter(1.0, 0)]))


def test_extremes_and_specials():
    extremes = [5e-324, 2.2250738585072014e-308, 1e16, 1e17, 1e-280, 1e280, 0.0, 1.0,
                0.5, 123.456, 1234567890123456.7]
    largest = np.finfo(np.float64).max
    specials = [largest, np.nextafter(largest, 0), np.inf, np.nan, -0.0]
    values = np.concatenate([_with_neighbours(extremes), specials, np.negative(specials)])
    _assert_formats_like_python(values)


@pytest.mark.parametrize("rows", [1, _g17.BLOCK_ROWS - 1, _g17.BLOCK_ROWS + 1])
def test_rows_span_blocks(rows):
    # several columns, blocks and a partial last block: one write per block
    class Recorder(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    values = np.random.default_rng(rows).standard_normal((rows, 3)) * 10.0 ** np.arange(-6, 3, 3)
    expected = ["%.17g,%.17g,%.17g\n" % tuple(row) for row in values.tolist()]
    out = Recorder()
    _g17.write_rows(out, values)
    assert out.getvalue() == "".join(expected)
    assert out.writes == -(-rows // _g17.BLOCK_ROWS)
    # row prefixes of varying length, 0-padded to a width that is not a
    # multiple of 8: each block must take its own prefix rows
    prefixes = [f"{i},{'p' * (i % 7)}," for i in range(rows)]
    out = Recorder()
    _g17.write_rows(out, values, _g17.padded(prefixes))
    assert out.getvalue() == "".join(map(str.__add__, prefixes, expected))
    assert out.writes == -(-rows // _g17.BLOCK_ROWS)


def test_prefix_tables_in_product_order():
    # row i * len(xs) + j starts with ts[i] and xs[j], across block bounds
    ts = [f"{i}," for i in range(3)]
    xs = [f"x{j}," for j in range(_g17.BLOCK_ROWS // 2 + 1)]
    values = np.arange(len(ts) * len(xs), dtype=float)[:, None]
    out = io.StringIO()
    _g17.write_rows(out, values, _g17.padded(ts), _g17.padded(xs))
    rows = [t + x for t in ts for x in xs]
    assert out.getvalue() == "".join("%s%.17g\n" % (p, v) for p, v in zip(rows, values[:, 0]))


@pytest.mark.parametrize("lengths", [(4,), (6,), (2, 2), (2, 3), (3, 1)])
def test_prefix_tables_that_miss_the_row_count_are_refused(lengths):
    # tables whose lengths do not multiply to the 5 rows would wrap around
    # or drop prefixes
    tables = [_g17.padded(["p,"] * length) for length in lengths]
    with pytest.raises(ValueError, match="rows do not give 5 rows"):
        _g17.write_rows(io.StringIO(), np.zeros((5, 2)), *tables)
