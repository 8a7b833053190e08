"""Tests for the grid operators, Toeplitz assembly, and spectral tools."""

import math

import numpy as np
import pytest

import rieszfd.operators
from rieszfd import (
    DomainError,
    GridSpec1D,
    SizeLimitError,
    TableError,
    assemble_galpha,
    generating_symbol,
    gl_weights,
    kappa_polynomial,
    kappa_weights,
    left_apply,
    point_riesz_derivative,
    riesz_apply,
    riesz_constant,
    riesz_matrix,
    right_apply,
    spectral_bounds,
)


def _random_dirichlet(grid, rng):
    values = rng.standard_normal(grid.M + 1)
    values[0] = values[-1] = 0.0
    return values


class TestGridSpec:
    def test_nodes(self):
        grid = GridSpec1D(0.0, 1.0, 10)
        assert grid.h == pytest.approx(0.1)
        np.testing.assert_allclose(grid.nodes(), np.linspace(0, 1, 11), atol=1e-15)

    def test_invalid(self):
        with pytest.raises(DomainError):
            GridSpec1D(1.0, 0.0, 10)
        with pytest.raises(DomainError):
            GridSpec1D(0.0, 1.0, 3)
        assert GridSpec1D(0.0, 1.0, 10**6).M == 10**6
        for M in (10**6 + 1, 10**9, 10**300):
            with pytest.raises(SizeLimitError, match="exceeds the cap"):
                GridSpec1D(0.0, 1.0, M)

    def test_gridfunction_length_check(self):
        grid = GridSpec1D(0.0, 1.0, 10)
        table = kappa_weights(2, 1.5, 10)
        for u in (np.zeros(5), np.zeros(12)):
            for op in (left_apply, right_apply):
                with pytest.raises(DomainError):
                    op(u, grid, table)
            with pytest.raises(DomainError):
                riesz_apply(u, grid, 1.5, 2)
            with pytest.raises(DomainError):
                point_riesz_derivative(u, grid, 1.5, 2, 5)


class TestApply:
    def test_zero_input(self):
        grid = GridSpec1D(0.0, 1.0, 16)
        u = np.zeros(17)
        table = kappa_weights(2, 1.5, 16)
        for op in (left_apply, right_apply):
            out = op(u, grid, table)
            np.testing.assert_array_equal(out, 0.0)

    def test_integer_order_is_second_difference(self):
        grid = GridSpec1D(0.0, 1.0, 32)
        x = grid.nodes()
        vals = np.sin(np.pi * x)
        vals[0] = vals[-1] = 0.0
        table = gl_weights(2.0, 32)
        out = left_apply(vals, grid, table)
        h = grid.h
        expected = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h**2
        np.testing.assert_allclose(out[1:-1], expected, rtol=1e-12)

    @pytest.mark.parametrize("alpha", (1.1, 1.5, 1.9))
    @pytest.mark.parametrize("p", (2, 3, 4))
    def test_reflection_identity(self, alpha, p):
        # right_apply is defined as the mirrored left_apply; check it
        # against the right difference's own sum, written out term by term
        rng = np.random.default_rng(42)
        M = 24
        grid = GridSpec1D(0.0, 1.0, M)
        u = _random_dirichlet(grid, rng)
        table = kappa_weights(p, alpha, M)
        w, scale = table.values, grid.h ** (-alpha)
        right = np.zeros(M + 1)
        magnitude = np.zeros(M + 1)
        for j in range(1, M):
            for ell in range(M - j + 2):
                right[j] += w[ell] * u[j + ell - 1]
                magnitude[j] += abs(w[ell] * u[j + ell - 1])
        error = np.abs(right_apply(u, grid, table) - scale * right)
        assert np.all(error <= 1e-13 * scale * magnitude)

    @pytest.mark.parametrize("M", (9, 16))
    @pytest.mark.parametrize("p", (2, 3, 4))
    def test_matches_explicit_sums(self, M, p):
        # the docstring sums written out term by term, independent of
        # np.convolve and of right_apply being the mirrored left_apply
        rng = np.random.default_rng(M + p)
        grid = GridSpec1D(0.0, 1.0, M)
        u = _random_dirichlet(grid, rng)
        table = kappa_weights(p, 1.8, M)
        w, scale = table.values, grid.h ** (-1.8)
        left = np.zeros(M + 1)
        right = np.zeros(M + 1)
        for j in range(1, M):
            for ell in range(j + 2):
                left[j] += w[ell] * u[j - ell + 1]
            for ell in range(M - j + 2):
                right[j] += w[ell] * u[j + ell - 1]
        left *= scale
        right *= scale
        np.testing.assert_allclose(left_apply(u, grid, table), left, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(right_apply(u, grid, table), right, rtol=1e-13, atol=1e-13)

    def test_symmetric_function_mirrors(self):
        grid = GridSpec1D(0.0, 1.0, 40)
        x = grid.nodes()
        u = x**2 * (1 - x) ** 2
        table = kappa_weights(2, 1.5, 40)
        left = left_apply(u, grid, table)
        right = right_apply(u, grid, table)
        np.testing.assert_allclose(left[1:-1], right[1:-1][::-1], rtol=1e-12)

    def test_table_too_short(self):
        grid = GridSpec1D(0.0, 1.0, 16)
        u = np.zeros(17)
        table = kappa_weights(2, 1.5, 8)
        with pytest.raises(TableError):
            left_apply(u, grid, table)


# Every alpha outside (1, 2], refused by coeffs._check_alpha alone
BAD_ALPHAS = (math.nan, -math.inf, math.inf, 1.0, 2.5)
ALPHA_DOMAIN = r"outside the valid interval \(1, 2\]"


def _no_work(*args, **kwargs):
    raise AssertionError("work done for a refused alpha")


class TestRiesz:
    def test_alpha_domain(self, monkeypatch):
        # refused before any weight
        monkeypatch.setattr(rieszfd.operators, "kappa_weights", _no_work)
        grid = GridSpec1D(0.0, 1.0, 8)
        u = np.zeros(9)
        for alpha in BAD_ALPHAS:
            with pytest.raises(DomainError, match=ALPHA_DOMAIN):
                riesz_apply(u, grid, alpha, 2)
            with pytest.raises(DomainError, match=ALPHA_DOMAIN):
                point_riesz_derivative(u, grid, alpha, 2, 4)

    def test_classical_limit_is_the_second_difference(self):
        rng = np.random.default_rng(5)
        grid = GridSpec1D(0.0, 1.0, 64)
        u = _random_dirichlet(grid, rng)
        second = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / grid.h**2
        full = riesz_apply(u, grid, 2.0, 2)
        # 1.2e-16 of the largest entry measured
        scale = np.max(np.abs(second))
        assert full[0] == full[-1] == 0.0
        assert np.max(np.abs(full[1:-1] - second)) <= 1e-15 * scale
        assert np.max(np.abs(riesz_matrix(2.0, 2, grid) @ u[1:-1] - second)) <= 1e-15 * scale
        for j in (1, 20, 32, 63):
            assert point_riesz_derivative(u, grid, 2.0, 2, j) == pytest.approx(full[j], rel=1e-14)

    def test_point_matches_full_apply(self):
        rng = np.random.default_rng(3)
        grid = GridSpec1D(0.0, 1.0, 20)
        u = _random_dirichlet(grid, rng)
        full = riesz_apply(u, grid, 1.3, 2)
        for j in (1, 7, 10, 19):
            assert point_riesz_derivative(u, grid, 1.3, 2, j) == pytest.approx(
                full[j], rel=1e-12
            )

    def test_point_index_range(self):
        grid = GridSpec1D(0.0, 1.0, 10)
        u = np.zeros(11)
        with pytest.raises(DomainError):
            point_riesz_derivative(u, grid, 1.5, 2, 0)
        with pytest.raises(DomainError):
            point_riesz_derivative(u, grid, 1.5, 2, 10)

    @pytest.mark.parametrize("p, alpha", [(3, 1.1), (3, 1.3), (4, 1.2), (4, 1.5), (4, 1.7)])
    def test_growing_weights_are_refused(self, p, alpha):
        # the weights are finite at M = 100 but grow geometrically
        grid = GridSpec1D(0.0, 1.0, 100)
        u = np.zeros(101)
        assert np.all(np.isfinite(kappa_weights(p, alpha, 100).values))
        with pytest.raises(DomainError, match="do not decay"):
            riesz_apply(u, grid, alpha, p)
        with pytest.raises(DomainError, match="do not decay"):
            point_riesz_derivative(u, grid, alpha, p, 50)
        with pytest.raises(DomainError, match="do not decay"):
            assemble_galpha(alpha, p, 100)
        with pytest.raises(DomainError, match="do not decay"):
            riesz_matrix(alpha, p, grid)
        with pytest.raises(DomainError, match="do not decay"):
            spectral_bounds(alpha, p, 100)

    @pytest.mark.parametrize("p, alpha", [(3, 1.5), (3, 1.9), (4, 1.9)])
    def test_decaying_high_order_weights_are_admitted(self, p, alpha):
        grid = GridSpec1D(0.0, 1.0, 100)
        x = grid.nodes()
        u = x**2 * (1 - x) ** 2
        full = riesz_apply(u, grid, alpha, p)
        assert np.all(np.isfinite(full))
        assert point_riesz_derivative(u, grid, alpha, p, 50) == pytest.approx(full[50], rel=1e-12)

    def test_table1_entry(self):
        # point error at x = 0.5 on the coarsest reference mesh
        grid = GridSpec1D(0.0, 1.0, 20)
        x = grid.nodes()
        u = x**2 * (1 - x) ** 2
        from rieszfd.harness import example41_exact

        err = abs(point_riesz_derivative(u, grid, 1.5, 2, 10) - example41_exact(1.5))
        assert err == pytest.approx(4.555022e-3, rel=5e-3)


class TestMatrix:
    def test_small_structure(self):
        k = kappa_weights(2, 1.5, 4).values
        g = assemble_galpha(1.5, 2, 4)
        expected = np.array(
            [[k[1], k[0], 0.0], [k[2], k[1], k[0]], [k[3], k[2], k[1]]]
        )
        np.testing.assert_allclose(g, expected, rtol=1e-15)

    def test_integer_order_tridiagonal(self):
        g = assemble_galpha(2.0, 2, 8)
        expected = np.diag(-2.0 * np.ones(7)) + np.diag(np.ones(6), 1) + np.diag(
            np.ones(6), -1
        )
        np.testing.assert_allclose(g, expected, atol=1e-14)

    @pytest.mark.parametrize("M", (10, 50, 200))
    def test_integer_order_matrix_is_exact_laplacian(self, M):
        grid = GridSpec1D(0.0, 1.0, M)
        m = M - 1
        lap = np.zeros((m, m))
        idx = np.arange(m)
        lap[idx, idx] = -2.0
        lap[idx[:-1], idx[:-1] + 1] = 1.0
        lap[idx[1:], idx[1:] - 1] = 1.0
        assert np.array_equal(riesz_matrix(2.0, 2, grid), lap / grid.h**2)

    def test_matrix_alpha_domain(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_work)
        grid = GridSpec1D(0.0, 1.0, 8)
        for alpha in (2.1, *BAD_ALPHAS):
            with pytest.raises(DomainError, match=ALPHA_DOMAIN):
                riesz_matrix(alpha, 2, grid)
            with pytest.raises(DomainError, match=ALPHA_DOMAIN):
                assemble_galpha(alpha, 2, 8)
            with pytest.raises(DomainError, match=ALPHA_DOMAIN):
                spectral_bounds(alpha, 2, 8)

    def test_toeplitz_diagonals(self):
        g = assemble_galpha(1.7, 3, 12)
        for offset in range(-10, 2):
            diag = np.diag(g, offset)
            assert np.max(np.abs(diag - diag[0])) == 0.0

    def test_matrix_matches_apply(self):
        rng = np.random.default_rng(7)
        grid = GridSpec1D(0.0, 1.0, 64)
        mat = riesz_matrix(1.3, 2, grid)
        for _ in range(20):
            u = _random_dirichlet(grid, rng)
            by_apply = riesz_apply(u, grid, 1.3, 2)[1:-1]
            by_matrix = mat @ u[1:-1]
            np.testing.assert_allclose(by_matrix, by_apply, rtol=1e-12, atol=1e-12)

    def test_symmetry(self):
        grid = GridSpec1D(0.0, 1.0, 32)
        mat = riesz_matrix(1.5, 2, grid)
        assert np.max(np.abs(mat - mat.T)) == 0.0

    def test_negative_semidefinite(self):
        grid = GridSpec1D(0.0, 1.0, 32)
        mat = riesz_matrix(1.5, 2, grid)
        eigs = np.linalg.eigvalsh(mat)
        assert eigs[-1] <= 1e-10

    def test_riesz_constant(self):
        assert riesz_constant(1.5) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)


# smallest alpha from which the order-p symbol is nonpositive; below it
# (down to where the weights start to grow: p = 3 from 1.36, p = 4 from
# 1.71) its maximum and the largest eigenvalue are positive
_NONPOSITIVE_FROM = {2: 1.0, 3: 1.43, 4: 1.81}


def _closed_form_symbol(alpha, x):
    # the p = 2 symbol in factored magnitude/phase form: an evaluation that
    # shares no step with the unit-circle samples of W**alpha
    x = np.abs(np.asarray(x, dtype=float))
    c = (alpha - 2.0) / (3.0 * alpha - 2.0)
    lead = (3.0 * alpha - 2.0) / (2.0 * alpha)
    sin_half = 2.0 * np.sin(x / 2.0)
    # the arctan denominator is strictly positive on (1,2) x [0,pi], so the
    # principal branch is always the right one
    theta = -np.arctan(
        (alpha - 2.0) * np.sin(x) / ((3.0 * alpha - 2.0) - (alpha - 2.0) * np.cos(x))
    )
    bracket = (1.0 - c * np.cos(x)) ** 2 + (c * np.sin(x)) ** 2
    magnitude = sin_half**alpha * lead**alpha * bracket ** (alpha / 2.0)
    phase = 2.0 * np.cos(alpha * (theta + (x - np.pi) / 2.0) - x)
    out = magnitude * phase
    out = np.where(sin_half == 0.0, 0.0, out)
    if out.ndim == 0:
        return float(out)
    return out


class TestGeneratingSymbol:
    def test_zero_at_origin(self):
        for alpha in (1.1, 1.5, 1.9):
            assert generating_symbol(alpha, 0.0) == 0.0
        for p, alpha in ((2, 1.5), (3, 1.4), (3, 1.8), (4, 1.75), (4, 1.9)):
            f = generating_symbol(alpha, np.array([-0.0, 0.0]), p)
            assert f.tolist() == [0.0, 0.0] and not np.signbit(f).any()

    def test_value_at_pi(self):
        assert generating_symbol(1.5, math.pi) == pytest.approx(
            -2.0 * (4.0 / 3.0) ** 1.5, rel=1e-12
        )

    def test_even(self):
        xs = np.linspace(0.01, math.pi, 100)
        np.testing.assert_allclose(
            generating_symbol(1.4, xs), generating_symbol(1.4, -xs), rtol=1e-14
        )
        for p, alpha in ((3, 1.4), (3, 1.8), (4, 1.75), (4, 1.9)):
            assert np.array_equal(generating_symbol(alpha, xs, p), generating_symbol(alpha, -xs, p))

    @pytest.mark.parametrize("alpha", np.linspace(1.001, 1.999, 33))
    def test_nonpositive(self, alpha):
        xs = np.linspace(-math.pi, math.pi, 10**4)
        for p, start in _NONPOSITIVE_FROM.items():
            if alpha >= start:
                assert np.max(generating_symbol(alpha, xs, p)) <= 1e-12

    @pytest.mark.parametrize("alpha", (1.2, 1.5, 1.8))
    def test_direct_unit_circle_oracle(self, alpha):
        # independent evaluation: the p = 2 factored magnitude/phase form,
        # against 2 Re[e^{-ix} W(e^{ix})^alpha] on the principal branch
        xs = np.linspace(1e-3, math.pi, 200)
        np.testing.assert_allclose(
            generating_symbol(alpha, xs), _closed_form_symbol(alpha, xs), rtol=1e-10, atol=1e-12
        )

    def test_matches_closed_form_to_roundoff(self):
        # both forms round at the size of their terms, 2 |W|**alpha, which
        # is up to 26 times the symbol's own maximum near alpha = 1
        xs = np.linspace(-math.pi, math.pi, 2001)
        for alpha in np.linspace(1.01, 1.99, 50):
            w = np.polynomial.polynomial.polyval(np.exp(1j * xs), kappa_polynomial(2, alpha))
            scale = 2.0 * np.max(np.abs(w)) ** alpha
            error = np.abs(generating_symbol(alpha, xs, 2) - _closed_form_symbol(alpha, xs))
            assert np.max(error) <= 1e-14 * scale

    def test_alpha_domain(self, monkeypatch):
        # at alpha = 2 the symbol is 2 Re(e^{-ix} (1 - e^{ix})^2) = 4 cos x - 4;
        # bit-equal on these 9 samples and within 2.7e-15 on 1001 measured
        xs = np.linspace(-math.pi, math.pi, 9)
        symbol = generating_symbol(2.0, xs)
        np.testing.assert_allclose(symbol, 4.0 * np.cos(xs) - 4.0, rtol=0, atol=1e-14)
        monkeypatch.setattr(rieszfd.operators, "_circle_power", _no_work)
        for alpha in BAD_ALPHAS:
            with pytest.raises(DomainError, match=ALPHA_DOMAIN):
                generating_symbol(alpha, xs)

    @pytest.mark.parametrize("p, alpha", [(3, 1.2), (3, 1.35), (4, 1.5), (4, 1.7)])
    def test_growing_weights_are_refused(self, p, alpha):
        with pytest.raises(DomainError, match="do not decay"):
            generating_symbol(alpha, np.linspace(-math.pi, math.pi, 9), p)


class TestSpectralBounds:
    def test_max_eig_nonpositive(self):
        lo, hi = spectral_bounds(1.5, 2, 16)
        assert hi <= 1e-10
        assert lo < hi

    @pytest.mark.parametrize("m", (8, 16, 32, 64))
    def test_sandwiched_by_symbol(self, m):
        xs = np.linspace(0.0, math.pi, 10**5)
        for p, alpha in ((2, 1.5), (3, 1.4), (3, 1.7), (4, 1.75), (4, 1.9)):
            lo, hi = spectral_bounds(alpha, p, m)
            f = generating_symbol(alpha, xs, p)
            assert lo >= np.min(f) - 1e-10
            assert hi <= np.max(f) + 1e-10

    @pytest.mark.parametrize(
        "p, alpha",
        [(3, a) for a in (1.37, 1.39, 1.41, 1.43, 1.45, 1.6, 1.9)]
        + [(4, a) for a in (1.71, 1.75, 1.79, 1.81, 1.85, 1.95)],
    )
    def test_symbol_maximum_has_the_sign_of_the_largest_eigenvalue(self, p, alpha):
        f = generating_symbol(alpha, np.linspace(0.0, math.pi, 10**5), p)
        _, hi = spectral_bounds(alpha, p, 200)
        tol = 1e-12 * (np.max(f) - np.min(f))
        assert (np.max(f) > tol) == (hi > tol)
        assert (np.max(f) > tol) == (alpha < _NONPOSITIVE_FROM[p])

    def test_integer_order_spectrum(self):
        lo, hi = spectral_bounds(2.0, 2, 8)
        j = np.arange(1, 8)
        exact = 2.0 * (2.0 * np.cos(j * np.pi / 8.0) - 2.0)
        assert lo == pytest.approx(np.min(exact), rel=1e-12)
        assert hi == pytest.approx(np.max(exact), rel=1e-12)

    @pytest.mark.parametrize("M", (16, 64))
    def test_integer_order_spectrum_larger_grids(self, M):
        lo, hi = spectral_bounds(2.0, 2, M)
        j = np.arange(1, M)
        exact = 2.0 * (2.0 * np.cos(j * np.pi / M) - 2.0)
        assert lo == pytest.approx(np.min(exact), rel=1e-12)
        assert hi == pytest.approx(np.max(exact), rel=1e-12)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            spectral_bounds(1.5, 2, 513)
