"""Tests for the benchmark problems and convergence studies."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import gamma

import rieszfd.cli
import rieszfd.harness
from rieszfd import (
    DomainError,
    NumericsError,
    GridSpec1D,
    convergence_study,
    error_surface,
    example41_exact,
    example42_problem,
    kappa_weights,
    left_apply,
    point_riesz_derivative,
    riesz_apply,
    right_apply,
)


class TestExample41Exact:
    def test_frozen_value(self):
        assert example41_exact(1.5) == pytest.approx(-0.451351666838205, rel=1e-12)

    def test_operator_converges_to_closed_form(self):
        # independent check of the closed form: the discrete operator at a
        # fine mesh must approach it at second order
        alpha = 1.3
        grid = GridSpec1D(0.0, 1.0, 2048)
        x = grid.nodes()
        u = x**2 * (1 - x) ** 2
        numeric = point_riesz_derivative(u, grid, alpha, 2, 1024)
        assert abs(numeric - example41_exact(alpha)) <= 1e-5

    def test_continuity_near_two(self):
        alpha = 1.999
        grid = GridSpec1D(0.0, 1.0, 1024)
        x = grid.nodes()
        u = x**2 * (1 - x) ** 2
        numeric = point_riesz_derivative(u, grid, alpha, 2, 512)
        assert numeric == pytest.approx(example41_exact(alpha), abs=1e-3)

    def test_symmetry_of_halves(self):
        # u is symmetric about 0.5, so left and right contributions agree
        grid = GridSpec1D(0.0, 1.0, 64)
        x = grid.nodes()
        u = x**2 * (1 - x) ** 2
        table = kappa_weights(2, 1.5, 64)
        left = left_apply(u, grid, table)[32]
        right = right_apply(u, grid, table)[32]
        assert left == pytest.approx(right, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            example41_exact(2.0)


def _reference_source(alpha, x, t):
    """Verbatim copy of the benchmark source as first written, which
    recomputes every space factor on each call; the reference for the
    cached one."""
    k_alpha = alpha * alpha
    cos_half = math.cos(math.pi * alpha / 2.0)
    gamma_coeffs = np.array(
        [
            12.0 / gamma(5.0 - alpha),
            -240.0 / gamma(6.0 - alpha),
            2160.0 / gamma(7.0 - alpha),
            -10080.0 / gamma(8.0 - alpha),
            20160.0 / gamma(9.0 - alpha),
        ]
    )
    powers = np.array([4.0 - alpha, 5.0 - alpha, 6.0 - alpha, 7.0 - alpha, 8.0 - alpha])

    def bump(x):
        return x**4 * (1.0 - x) ** 4

    def bump_dx(x):
        return 4.0 * x**3 - 20.0 * x**4 + 36.0 * x**5 - 28.0 * x**6 + 8.0 * x**7

    x = np.asarray(x, dtype=float)
    ct = math.cos(alpha * t * t)
    st = math.sin(alpha * t * t)
    frac = np.zeros_like(x)
    for coef, power in zip(gamma_coeffs, powers):
        frac += coef * (x**power + (1.0 - x) ** power)
    return (
        k_alpha * frac * ct / cos_half
        - 2.0 * alpha * t * st * bump(x)
        + 2.0 * ct * bump_dx(x)
    )


def _reference_exact(alpha, x, t):
    return math.cos(alpha * t * t) * (x**4 * (1.0 - x) ** 4)


class TestExample42Problem:
    def test_cached_space_factors_are_bit_identical(self):
        alpha = 1.7
        problem = example42_problem(alpha)
        first = np.linspace(0.0, 1.0, 33)[1:-1]
        other = np.linspace(0.0, 1.0, 41)[1:-1]

        def check(x):
            for t in (0.0, 0.41, 0.9):
                assert np.array_equal(problem.source(x, t), _reference_source(alpha, x, t))
                assert np.array_equal(problem.exact(x, t), _reference_exact(alpha, x, t))

        check(first)
        check(other)
        check(first)
        first *= 0.75  # in place: the cache must hold its own copy of the nodes
        check(first)

    def test_initial_and_boundaries(self):
        problem = example42_problem(1.4)
        x = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(
            problem.initial(x), x**4 * (1 - x) ** 4, atol=1e-15
        )
        for t in (0.0, 0.5, 1.0):
            assert problem.exact(np.array([0.0, 1.0]), t) == pytest.approx([0.0, 0.0])

    def test_parameters(self):
        problem = example42_problem(1.6)
        assert problem.K == 2.0
        assert problem.K_alpha == pytest.approx(1.6**2)
        assert problem.T == 1.0

    @pytest.mark.parametrize("t", (0.0, 0.37, 0.9))
    def test_manufactured_residual(self, t):
        # u_t + K u_x - K_alpha * Riesz(u) - f must vanish; evaluated with
        # a fine-mesh discrete Riesz operator, the residual is bounded by
        # the operator's own truncation error
        alpha = 1.6
        M = 4096
        problem = example42_problem(alpha)
        grid = GridSpec1D(0.0, 1.0, M)
        x = grid.nodes()
        ct = math.cos(alpha * t * t)
        st = math.sin(alpha * t * t)
        u = ct * x**4 * (1 - x) ** 4
        riesz = riesz_apply(u, grid, alpha, 2)
        u_t = -2 * alpha * t * st * x**4 * (1 - x) ** 4
        u_x = ct * (4 * x**3 - 20 * x**4 + 36 * x**5 - 28 * x**6 + 8 * x**7)
        residual = u_t + 2 * u_x - alpha**2 * riesz - problem.source(x, t)
        assert np.max(np.abs(residual[1:M])) <= 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            example42_problem(2.0)


class TestConvergenceStudy:
    def test_operator_study_rows(self):
        report = convergence_study("operator_table1", alphas=[1.3])
        assert report.passed
        row = next(r for r in report.rows if abs(r.resolution - 1 / 80) < 1e-12)
        assert row.error == pytest.approx(2.315235e-4, rel=5e-3)
        assert row.observed_order == pytest.approx(1.9821, abs=0.02)
        first = report.rows[0]
        assert first.observed_order is None

    def test_temporal_study_row(self):
        report = convergence_study("temporal_table2", alphas=[1.4])
        assert report.passed
        row = next(r for r in report.rows if abs(r.resolution - 1 / 40) < 1e-12)
        assert row.error == pytest.approx(1.591389e-6, rel=0.05)

    def test_spatial_study_row(self):
        report = convergence_study("spatial_table3", alphas=[1.8])
        assert report.passed
        row = next(r for r in report.rows if abs(r.resolution - 1 / 160) < 1e-12)
        assert row.error == pytest.approx(5.991744e-7, rel=0.05)

    def test_custom_resolutions_have_no_reference(self):
        report = convergence_study(
            "operator_table1", alphas=[1.5], resolutions=[1 / 10, 1 / 20]
        )
        assert all(r.ref_error is None and r.passed is None for r in report.rows)
        assert report.rows[1].observed_order == pytest.approx(2.0, abs=0.2)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            convergence_study("table4")

    def test_bad_mesh(self):
        with pytest.raises(DomainError):
            convergence_study("operator_table1", alphas=[1.5], resolutions=[0.3])

    def test_non_finite_source_is_an_error(self, monkeypatch, tmp_path):
        real = rieszfd.harness.example42_problem

        def nan_after_half(alpha):
            problem = real(alpha)

            def source(x, t):
                return problem.source(x, t) * (np.nan if t > 0.5 else 1.0)

            return dataclasses.replace(problem, source=source)

        monkeypatch.setattr(rieszfd.harness, "example42_problem", nan_after_half)
        with pytest.raises(NumericsError):
            rieszfd.harness._solver_error(1.5, 10, 20)
        argv = ["solve", "--alpha", "1.5", "--M", "10", "--N", "20"]
        assert rieszfd.cli.run(argv + ["--out", str(tmp_path / "u.csv")]) == 1


class TestErrorSurface:
    def test_structure(self):
        surface = error_surface(1.5, 40, 25)
        assert surface.shape == (26, 41)
        np.testing.assert_array_equal(surface[:, 0], 0.0)
        np.testing.assert_array_equal(surface[:, -1], 0.0)
        np.testing.assert_array_equal(surface[0], 0.0)
        assert 0.0 < surface.max() < 1e-3
