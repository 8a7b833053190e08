"""Tests for the weight-family generators and series engine."""

import math

import numpy as np
import pytest
from scipy.special import binom

from rieszfd import (
    CoefficientTable,
    DomainError,
    Family,
    SeriesError,
    UnsupportedOrderError,
    alpha_star,
    expansion_coefficients,
    gl_weights,
    kappa_polynomial,
    kappa_weights,
    lubich_weights,
    series_fractional_power,
    verify_properties,
    wsgd_weights,
)
from rieszfd.coeffs import _fft_samples

ALPHA_GRID = (1.1, 1.3, 1.5, 1.7, 1.9)

# (p, alpha) cells whose generating polynomial has all non-unity roots
# outside the unit disk, i.e. whose weights decay and admit fft extraction
DECAYING_CELLS = [(2, a) for a in ALPHA_GRID] + [
    (3, 1.5),
    (3, 1.7),
    (3, 1.9),
    (4, 1.9),
]
GROWING_CELLS = [(3, 1.1), (3, 1.3), (4, 1.1), (4, 1.3), (4, 1.5), (4, 1.7)]


class TestGLWeights:
    def test_alpha_15_prefix(self):
        table = gl_weights(1.5, 3)
        np.testing.assert_allclose(table.values, [1.0, -1.5, 0.375, 0.0625], rtol=1e-14)

    def test_integer_order_limit(self):
        table = gl_weights(2.0, 2)
        np.testing.assert_allclose(table.values, [1.0, -2.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_first_weight_is_minus_alpha(self, alpha):
        assert gl_weights(alpha, 2).values[1] == pytest.approx(-alpha, rel=1e-15)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_binomial_oracle(self, alpha):
        # independent evaluation: (1-z)^alpha has coefficients (-1)^l C(alpha, l)
        table = gl_weights(alpha, 60)
        ell = np.arange(61)
        oracle = (-1.0) ** ell * binom(alpha, ell)
        np.testing.assert_allclose(table.values, oracle, rtol=1e-12, atol=1e-16)

    @pytest.mark.parametrize("alpha", (1.0, 0.5, 2.5, -1.0))
    def test_alpha_domain(self, alpha):
        with pytest.raises(DomainError):
            gl_weights(alpha, 4)

    def test_count_too_small(self):
        with pytest.raises(DomainError):
            gl_weights(1.5, 1)

    def test_metadata(self):
        table = gl_weights(1.5, 5)
        assert table.family is Family.GL
        assert table.truncation == 5


class TestLubichWeights:
    @pytest.mark.parametrize("alpha", (1.2, 1.5, 1.8))
    def test_p1_reduces_to_gl(self, alpha):
        lub = lubich_weights(1, alpha, 40)
        gl = gl_weights(alpha, 40)
        np.testing.assert_allclose(lub.values, gl.values, rtol=1e-13, atol=1e-18)

    def test_p2_leading_value(self):
        table = lubich_weights(2, 1.5, 4)
        assert table.values[0] == pytest.approx(1.5**1.5, rel=1e-14)

    def test_p2_integer_order(self):
        # (3/2 - 2z + z^2/2)^2 expanded symbolically
        table = lubich_weights(2, 2.0, 4)
        np.testing.assert_allclose(
            table.values, [2.25, -6.0, 5.5, -2.0, 0.25], rtol=1e-13, atol=1e-14
        )

    @pytest.mark.parametrize("p", (0, 7, -1))
    def test_order_domain(self, p):
        with pytest.raises(UnsupportedOrderError):
            lubich_weights(p, 1.5, 4)


class TestWSGDWeights:
    def test_variant1_values(self):
        table = wsgd_weights(1, 1.5, 3)
        assert table.values[0] == pytest.approx(0.75, rel=1e-15)
        assert table.values[1] == pytest.approx(-0.875, rel=1e-15)

    def test_variant2_leading(self):
        table = wsgd_weights(2, 1.5, 3)
        assert table.values[0] == pytest.approx(0.875, rel=1e-15)

    def test_variant1_integer_order_degenerates_to_gl(self):
        wsgd = wsgd_weights(1, 2.0, 20)
        gl = gl_weights(2.0, 20)
        np.testing.assert_allclose(wsgd.values, gl.values, atol=1e-15)

    def test_variant_domain(self):
        with pytest.raises(DomainError):
            wsgd_weights(3, 1.5, 4)


class TestKappaPolynomial:
    def test_p2_alpha_15(self):
        poly = kappa_polynomial(2, 1.5)
        np.testing.assert_allclose(
            poly, [5.0 / 6.0, -2.0 / 3.0, -1.0 / 6.0], rtol=1e-15
        )

    def test_p2_integer_order(self):
        poly = kappa_polynomial(2, 2.0)
        np.testing.assert_allclose(poly, [1.0, -1.0, 0.0], atol=1e-15)

    def test_p3_leading(self):
        poly = kappa_polynomial(3, 1.5)
        assert poly[0] == pytest.approx(9.75 / 13.5, rel=1e-14)

    @pytest.mark.parametrize("p", (1, 5, 6))
    def test_unsupported_order(self, p):
        with pytest.raises(UnsupportedOrderError):
            kappa_polynomial(p, 1.5)

    @pytest.mark.parametrize("p", (2, 3, 4))
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_root_at_one(self, p, alpha):
        # every generating polynomial vanishes at z = 1 (zero-sum weights)
        assert abs(np.sum(kappa_polynomial(p, alpha))) < 1e-14


def _numpy_scalar_series_power(a, alpha, count):
    """Verbatim copy of the numpy-scalar recursion that
    ``series_fractional_power`` ran before it moved to Python floats."""
    a = np.asarray(a, dtype=float)
    if a[0] == 0.0:
        raise SeriesError("leading series coefficient is zero")
    d = len(a) - 1
    c = np.zeros(count + 1)
    c[0] = a[0] ** alpha
    for ell in range(1, count + 1):
        s = 0.0
        for k in range(1, min(ell, d) + 1):
            s += (k * (alpha + 1.0) - ell) * a[k] * c[ell - k]
        c[ell] = s / (ell * a[0])
    return c


class TestSeriesFractionalPower:
    @pytest.mark.parametrize("p", (2, 3, 4))
    @pytest.mark.parametrize("alpha", (1.2, 1.5, 1.8, 1.99))
    def test_matches_numpy_scalar_recursion_bit_for_bit(self, p, alpha):
        poly = kappa_polynomial(p, alpha)
        with np.errstate(over="ignore", invalid="ignore"):  # the growing cells overflow
            expected = _numpy_scalar_series_power(poly, alpha, 3000)
        c = series_fractional_power(poly, alpha, 3000)
        assert np.array_equal(c, expected, equal_nan=True)

    def test_matches_numpy_scalar_recursion_past_overflow(self):
        poly = kappa_polynomial(4, 1.2)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = _numpy_scalar_series_power(poly, 1.2, 20000)
        c = series_fractional_power(poly, 1.2, 20000)
        assert not np.all(np.isfinite(expected))
        assert np.array_equal(c, expected, equal_nan=True)

    def test_p2_alpha_15_prefix(self):
        poly = kappa_polynomial(2, 1.5)
        c = series_fractional_power(poly, 1.5, 2)
        k0 = (5.0 / 6.0) ** 1.5
        np.testing.assert_allclose(c, [k0, -1.2 * k0, -0.06 * k0], rtol=1e-13)

    def test_integer_order_exact(self):
        poly = kappa_polynomial(2, 2.0)
        c = series_fractional_power(poly, 2.0, 6)
        np.testing.assert_allclose(c, [1.0, -2.0, 1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_constant_polynomial(self):
        poly = np.array([1.0])
        c = series_fractional_power(poly, 1.7, 5)
        np.testing.assert_allclose(c, [1.0, 0, 0, 0, 0, 0], atol=0)

    def test_zero_leading_coefficient(self):
        poly = np.array([0.0, 1.0])
        with pytest.raises(SeriesError):
            series_fractional_power(poly, 1.5, 3)


class TestKappaWeights:
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_closed_forms(self, alpha):
        k = kappa_weights(2, alpha, 2).values
        k0 = ((3 * alpha - 2) / (2 * alpha)) ** alpha
        k1 = 4 * alpha * (1 - alpha) / (3 * alpha - 2) * k0
        k2 = (
            alpha
            * (8 * alpha**3 - 21 * alpha**2 + 16 * alpha - 4)
            / (3 * alpha - 2) ** 2
            * k0
        )
        np.testing.assert_allclose(k, [k0, k1, k2], rtol=1e-12)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_p2_convolution_oracle(self, alpha):
        # independent nested-sum evaluation: the polynomial factors as
        # a0 (1 - z)(1 - c z) with c = (alpha-2)/(3 alpha-2), so
        # kappa_l = a0^alpha * sum_m c^m w_m w_{l-m} with w the
        # Grünwald-Letnikov coefficients
        count = 64
        a0 = (3 * alpha - 2) / (2 * alpha)
        c = (alpha - 2) / (3 * alpha - 2)
        ell = np.arange(count + 1)
        glc = (-1.0) ** ell * binom(alpha, ell)
        oracle = np.zeros(count + 1)
        for l in range(count + 1):
            m = np.arange(l + 1)
            oracle[l] = a0**alpha * np.sum(c**m * glc[m] * glc[l - m])
        rec = kappa_weights(2, alpha, count).values
        np.testing.assert_allclose(rec, oracle, rtol=1e-11, atol=1e-15)

    @pytest.mark.parametrize("p,alpha", DECAYING_CELLS + GROWING_CELLS)
    def test_recursion_convolution_agree(self, p, alpha):
        rec = kappa_weights(p, alpha, 256, method="recursion").values
        conv = kappa_weights(p, alpha, 256, method="convolution").values
        denom = np.maximum(np.abs(rec), 1e-300)
        assert np.max(np.abs(rec - conv) / denom) <= 1e-10

    @pytest.mark.parametrize("p,alpha", [(2, 1.5), (3, 1.7), (4, 1.9)])
    def test_fft_agrees_absolutely(self, p, alpha):
        rec = kappa_weights(p, alpha, 256, method="recursion").values
        fft = kappa_weights(p, alpha, 256, method="fft", samples=2**18).values
        assert np.max(np.abs(rec - fft)) <= 1e-10

    @pytest.mark.parametrize("p,alpha", GROWING_CELLS)
    def test_fft_rejects_growing_weights(self, p, alpha):
        with pytest.raises(DomainError):
            kappa_weights(p, alpha, 64, method="fft")

    def test_fft_sample_count_guard(self):
        with pytest.raises(DomainError):
            kappa_weights(2, 1.5, 512, method="fft", samples=512)

    def test_fft_sample_count_boundary(self):
        # 2 * count samples are the fewest accepted
        assert _fft_samples(512, 1024) == 1024
        with pytest.raises(DomainError, match="at least 2\\*count=1024 samples, got 1023"):
            _fft_samples(512, 1023)

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            kappa_weights(2, 1.5, 8, method="magic")

    @pytest.mark.parametrize(
        "p, alpha, count, method, first_bad",
        [
            (4, 1.2, 20000, "recursion", 768),
            (3, 1.2, 2000, "convolution", 1926),
            (3, 1.2, 20000, "convolution", 1926),
        ],
    )
    def test_overflowing_table_is_refused(self, p, alpha, count, method, first_bad):
        with pytest.raises(DomainError) as info:
            kappa_weights(p, alpha, count, method=method)
        message = str(info.value)
        assert f"p={p}, alpha={alpha}, count={count}" in message
        assert f"index {first_bad}" in message

    def test_growing_but_finite_table_is_returned(self):
        k = kappa_weights(4, 1.2, 100).values
        assert np.all(np.isfinite(k))
        assert np.max(np.abs(k)) > 1e30

    def test_sign_flip_around_threshold(self):
        # the third weight changes sign at the threshold order
        star = alpha_star()
        assert kappa_weights(2, star - 0.01, 2).values[2] < 0
        assert kappa_weights(2, star + 0.01, 2).values[2] > 0
        assert kappa_weights(2, 1.5, 2).values[2] < 0
        assert kappa_weights(2, 1.7, 2).values[2] > 0


def test_alpha_star_is_cubic_root():
    a = alpha_star()
    assert 1.5 < a < 1.6
    assert abs(8 * a**3 - 21 * a**2 + 16 * a - 4) < 1e-12


class TestExpansionCoefficients:
    @pytest.mark.parametrize("alpha", np.linspace(1.05, 1.95, 17))
    def test_closed_forms(self, alpha):
        ec = expansion_coefficients(alpha, 3)
        g2 = -(2 * alpha**2 - 6 * alpha + 3) / (6 * alpha)
        g3 = (3 * alpha**3 - 11 * alpha**2 + 12 * alpha - 4) / (12 * alpha**2)
        assert abs(ec[0]) <= 1e-13
        assert ec[1] == pytest.approx(g2, abs=1e-12)
        assert ec[2] == pytest.approx(g3, abs=1e-12)

    def test_alpha_15_values(self):
        ec = expansion_coefficients(1.5, 3)
        assert ec[1] == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert ec[2] == pytest.approx(-0.625 / 27.0, rel=1e-10)

    @pytest.mark.parametrize("n", (1, 0, 13))
    def test_order_domain(self, n):
        with pytest.raises(SeriesError):
            expansion_coefficients(1.5, n)

    def test_length(self):
        assert len(expansion_coefficients(1.3, 7)) == 7

    @pytest.mark.parametrize("n", (2, 12))
    def test_order_domain_ends_are_accepted(self, n):
        assert len(expansion_coefficients(1.5, n)) == n


class TestVerifyProperties:
    def test_low_alpha_all_pass(self):
        report = verify_properties(kappa_weights(2, 1.2, 2000))
        assert report.passed
        assert report.witnesses["kappa2"] < 0

    def test_high_alpha_all_pass(self):
        report = verify_properties(kappa_weights(2, 1.7, 2000))
        assert report.passed
        assert report.witnesses["kappa2"] > 0

    def test_partial_sum_tail(self):
        report = verify_properties(kappa_weights(2, 1.5, 10**4))
        assert report.passed
        assert report.witnesses["partial_sum_final"] <= 1e-3

    def test_integer_order_degenerate(self):
        report = verify_properties(kappa_weights(2, 2.0, 50))
        assert report.clauses["leading_positive"]
        assert report.clauses["tail_nonnegative"]
        # partial sums vanish identically from index 2 on
        assert report.witnesses["partial_sum_final"] == 0.0

    def test_rejects_other_families(self):
        with pytest.raises(DomainError):
            verify_properties(gl_weights(1.5, 10))

    def test_boundedness_margin(self):
        report = verify_properties(kappa_weights(2, 1.5, 1000))
        assert report.clauses["bounded_by_gl"]

    def test_bound_clause_starts_at_four(self):
        # the comparison bound is checked from ell = 4 on, so a table needs index 4
        assert "bounded_by_gl" not in verify_properties(kappa_weights(2, 1.5, 3)).clauses
        assert "bounded_by_gl" in verify_properties(kappa_weights(2, 1.5, 4)).clauses

    def test_partial_sum_bound_applies_at_ten_thousand(self):
        # the partial sums still shrink (0.0100008 at ell = 5000, 0.0100003 at
        # 10**4) but stay above 1e-3, which 10**4 weights must reach
        values = kappa_weights(2, 1.5, 10**4).values.copy()
        values[3] -= 0.01
        report = verify_properties(CoefficientTable(Family.KAPPA, 2, 1.5, values))
        assert report.witnesses["partial_sum_final"] == pytest.approx(0.0100003, abs=1e-7)
        assert report.clauses["partial_sum_decay"] is False
        assert [c for c, passed in report.clauses.items() if not passed] == ["partial_sum_decay"]

    @pytest.mark.parametrize(
        "clause, alpha, count, index, edit",
        [
            ("leading_positive", 1.5, 1000, 0, lambda k: -k),
            ("second_negative", 1.5, 1000, 1, lambda k: -k),
            ("third_sign", 1.5, 1000, 2, lambda k: 1e-3),  # below alpha_star
            ("third_sign", 1.8, 1000, 2, lambda k: -1e-3),  # above it
            ("tail_nonnegative", 1.5, 1000, 7, lambda k: -1e-3),
            ("bounded_by_gl", 1.5, 1000, 10, lambda k: 3.0 * k),
            ("partial_sum_decay", 1.5, 1000, -1, lambda k: k + 1e-3),
            ("asymptotic_constant", 1.5, 10**4, -1, lambda k: 1.2 * k),
        ],
    )
    def test_perturbed_weight_fails_its_clause(self, clause, alpha, count, index, edit):
        values = kappa_weights(2, alpha, count).values.copy()
        assert verify_properties(CoefficientTable(Family.KAPPA, 2, alpha, values)).passed
        values[index] = edit(values[index])
        report = verify_properties(CoefficientTable(Family.KAPPA, 2, alpha, values))
        assert report.clauses[clause] is False

    @pytest.mark.parametrize("alpha", (1.2, 1.5, 1.7))
    def test_witnesses(self, alpha):
        report = verify_properties(kappa_weights(2, alpha, 1000))
        a = kappa_polynomial(2, alpha)
        assert report.witnesses["kappa0"] == a[0] ** alpha
        kappa1 = alpha * a[1] * a[0] ** (alpha - 1.0)
        assert report.witnesses["kappa1"] == pytest.approx(kappa1, rel=1e-15)  # 1 ulp off at 1.2
        assert report.witnesses["bound_margin_min"] == _reference_bound_margin_min(alpha, 1000)
        if alpha == 1.5:
            assert report.witnesses["bound_margin_min"] == pytest.approx(4.3e-11, rel=0.01)


def _reference_bound_margin_min(alpha, upto):
    """Verbatim copy of the smallest ``scale * M(ell, alpha) * gl_ell - |kappa_ell|``
    over ell = 4..upto that ``verify_properties`` reports, for alpha < 2."""
    k = kappa_weights(2, alpha, upto).values
    gl = gl_weights(alpha, upto).values
    q = (2.0 - alpha) / (3.0 * alpha - 2.0)
    ell = np.arange(4, upto + 1, dtype=float)
    m_ell = (
        (1.0 + q**ell)
        + alpha * (q + q ** (ell - 1.0)) * ell / (ell - 1.0 - alpha)
        + alpha
        * (3.0 * alpha - 2.0)
        / 8.0
        * q**2
        * ell
        * (ell - 1.0)
        / ((ell - 1.0 - alpha) * (ell - 2.0 - alpha))
    )
    scale = ((3.0 * alpha - 2.0) / (2.0 * alpha)) ** alpha
    return float(np.min(scale * m_ell * gl[4:] - np.abs(k[4 : upto + 1])))


def test_zero_sum_tail_monotone():
    k = kappa_weights(2, 1.5, 5000).values
    partial = np.abs(np.cumsum(k))
    tail = partial[100:]
    assert np.all(np.diff(tail) <= 1e-15)
    assert partial[-1] <= partial[100]


def test_richardson_order_two():
    # gamma_1 = 0, gamma_2 != 0: halving h divides the point error by ~4
    from rieszfd import GridSpec1D, point_riesz_derivative
    from rieszfd.harness import example41_exact

    alpha = 1.4
    errors = []
    for m in (128, 256):
        grid = GridSpec1D(0.0, 1.0, m)
        x = grid.nodes()
        u = x**2 * (1.0 - x) ** 2
        errors.append(
            abs(point_riesz_derivative(u, grid, alpha, 2, m // 2) - example41_exact(alpha))
        )
    assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.1)
