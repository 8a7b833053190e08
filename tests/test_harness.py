"""Tests for the benchmark problems and convergence studies."""

import dataclasses
import math
import threading
import time
import tracemalloc
from math import gamma

import numpy as np
import pytest

import rieszfd.cli
import rieszfd.harness
import rieszfd.operators
import rieszfd.pde
from rieszfd import (
    DomainError,
    NumericsError,
    GridSpec1D,
    SizeLimitError,
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
from test_operators import ALPHA_DOMAIN, BAD_ALPHAS, _no_work


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
        # u''(0.5) of x^2 (1-x)^2
        assert example41_exact(2.0) == -1.0
        for alpha in BAD_ALPHAS:
            with pytest.raises(DomainError, match=ALPHA_DOMAIN):
                example41_exact(alpha)


def _reference_source(alpha, x, t):
    """Verbatim copy of the benchmark source as first written, which
    recomputes every space factor on each call; the reference for the
    cached one.  Its scalar gamma is the library's, ``math.gamma``."""
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


def _reference_half_sum_n4(alpha, x):
    """Verbatim copy of the literal gamma table that ``example42_problem``
    summed before the power-rule helper replaced it."""
    gamma_coeffs = np.array(
        [
            12.0 / math.gamma(5.0 - alpha),
            -240.0 / math.gamma(6.0 - alpha),
            2160.0 / math.gamma(7.0 - alpha),
            -10080.0 / math.gamma(8.0 - alpha),
            20160.0 / math.gamma(9.0 - alpha),
        ]
    )
    powers = np.array([4.0 - alpha, 5.0 - alpha, 6.0 - alpha, 7.0 - alpha, 8.0 - alpha])
    frac = np.zeros_like(x)
    for coef, power in zip(gamma_coeffs, powers):
        frac += coef * (x**power + (1.0 - x) ** power)
    return frac


class TestExample42Problem:
    def test_cached_space_factors_are_bit_identical(self):
        # the lone problem and every row of a stacked _example42 against the
        # verbatim formula; (alpha t) t != alpha (t t) for alpha 1.013 and
        # 1.996 at t = 0.837 and 0.47
        alphas = (1.7, 1.013, 1.996)
        times = (0.0, 0.41, 0.9, 0.837, 0.47)
        alpha = alphas[0]
        problem = example42_problem(alpha)
        forcing, exact = rieszfd.harness._example42(alphas)
        first = np.linspace(0.0, 1.0, 33)[1:-1]
        other = np.linspace(0.0, 1.0, 41)[1:-1]

        def check(x):
            for t in times:
                assert np.array_equal(problem.source(x, t), _reference_source(alpha, x, t))
                assert np.array_equal(problem.exact(x, t), _reference_exact(alpha, x, t))
            if x.ndim == 1:  # the stack takes 1-D nodes
                stacked_forcing, stacked_exact = forcing(x, times), exact(x, times)
                for i, alpha_i in enumerate(alphas):
                    for j, t in enumerate(times):
                        source, exact_t = stacked_forcing[i, j], stacked_exact[i, j]
                        assert np.array_equal(source, _reference_source(alpha_i, x, t))
                        assert np.array_equal(exact_t, _reference_exact(alpha_i, x, t))

        check(first)
        check(other)
        check(first)
        first *= 0.75  # in place: the cache must hold its own copy of the nodes
        check(first)
        check(first.reshape(-1, 1))  # same bytes, another shape
        check(np.array([-0.0, 0.0, 0.25, 1.0]))
        check(np.array([0.0, -0.0, 0.25, 1.0]))
        strided = np.zeros((len(first), 2))
        strided[:, 0] = first
        check(strided[:, 0])  # first's values as a non-contiguous view

    def test_interior_and_full_nodes_stay_cached_together(self, monkeypatch):
        # the CLI's writer asks for exact(all nodes) between steps on the
        # interior ones; with one cached array that recomputed the factors
        # 250 times in `solve --M 1000 --N 1000 --keep all`
        real = rieszfd.harness._bump_half_sum
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(rieszfd.harness, "_bump_half_sum", counted)
        problem = example42_problem(1.5)
        nodes = np.linspace(0.0, 1.0, 41)
        for t in (0.0, 0.5, 1.0):
            problem.source(nodes[1:-1], t)
            problem.exact(nodes, t)
        assert len(calls) == 2

    def test_power_rule_matches_the_literal_table(self):
        nodes = [
            np.linspace(0.0, 1.0, 33)[1:-1],
            np.linspace(0.0, 1.0, 1001),
            np.random.default_rng(7).random(257),
            np.array([-0.0, 0.0, 0.5, 1.0]),
        ]
        for alpha in [1.0 + k / 104 for k in range(1, 104)]:
            for x in nodes:
                helper = rieszfd.harness._bump_half_sum(alpha, 4, x)
                assert np.array_equal(helper, _reference_half_sum_n4(alpha, x))

    def test_power_rule_at_n2_matches_example41(self):
        # at x = 0.5 the Riesz derivative of x**2 (1-x)**2 is example 4.1
        x = np.array([0.5])
        for alpha in np.linspace(1.01, 1.99, 99):
            half_sum = rieszfd.harness._bump_half_sum(alpha, 2, x)[0]
            riesz = half_sum / -math.cos(math.pi * alpha / 2.0)
            assert riesz == pytest.approx(example41_exact(alpha), rel=1e-12, abs=0.0)

    def test_exact_over_a_block_of_times(self):
        alpha = 1.3
        problem = example42_problem(alpha)
        x = np.linspace(0.0, 1.0, 41)[1:-1]
        tau = 1.0 / 300
        for times in (
            [j * tau for j in range(17, 60)],
            [5 * tau],
            np.arange(3, 9) * tau,
        ):
            block = problem.exact(x, times)
            assert block.shape == (len(times), len(x))
            stacked = np.stack([problem.exact(x, t) for t in times])
            assert np.array_equal(block, stacked)

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

    def test_domain(self, monkeypatch):
        # at alpha = 2 the forcing is u_t + 2 u_x - 4 u_xx, with u_xx
        # factored, as the expanded sum cancels to 0 at x = 1
        problem = example42_problem(2.0)
        x = np.linspace(0.0, 1.0, 1001)
        b = x**4 * (1 - x) ** 4
        b_x = 4 * x**3 * (1 - x) ** 3 * (1 - 2 * x)
        b_xx = 4 * x**2 * (1 - x) ** 2 * (3 * (1 - x) ** 2 - 8 * x * (1 - x) + 3 * x**2)
        for t in (0.0, 0.3, 0.77, 1.0):
            ct, st = math.cos(2.0 * t * t), math.sin(2.0 * t * t)
            expected = -4.0 * t * st * b + 2.0 * ct * b_x - 4.0 * ct * b_xx
            # 1.8e-13 of the largest value measured: the power-rule sum cancels
            error = np.max(np.abs(problem.source(x, t) - expected))
            assert error <= 1e-12 * np.max(np.abs(expected))
            assert np.array_equal(problem.exact(x, t), ct * b)
        monkeypatch.setattr(rieszfd.harness, "_example42", _no_work)
        for alpha in BAD_ALPHAS:
            with pytest.raises(DomainError, match=ALPHA_DOMAIN):
                example42_problem(alpha)


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

    @pytest.mark.parametrize("kind", ["temporal_table2", "spatial_table3"])
    def test_bad_solver_resolution(self, kind):
        # rounding would run tau = 0.3 as 1/3 and label its row 0.3
        with pytest.raises(DomainError, match="reciprocal of an integer"):
            convergence_study(kind, alphas=[1.5], resolutions=[0.3, 0.15])

    def test_bad_resolution_is_refused_before_any_cell(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return 1.0

        monkeypatch.setattr(rieszfd.harness, "_solver_error", counted)
        monkeypatch.setattr(rieszfd.harness, "_operator_error", counted)
        monkeypatch.setattr(rieszfd.harness, "_setups", counted)
        with pytest.raises(DomainError, match="reciprocal of an integer"):
            convergence_study("spatial_table3", alphas=[1.5], resolutions=[0.1, 0.05, 0.3])
        # degenerate ones raised ZeroDivisionError, ValueError or a misleading M
        for kind in ("operator_table1", "temporal_table2", "spatial_table3"):
            for bad in (0.0, math.nan, math.inf, -0.1):
                with pytest.raises(DomainError, match="finite and > 0"):
                    convergence_study(kind, alphas=[1.5], resolutions=[0.1, bad])
            # a bad alpha last in the list ran every valid cell first
            for bad in BAD_ALPHAS:
                with pytest.raises(DomainError, match=ALPHA_DOMAIN):
                    convergence_study(kind, alphas=[1.2, 1.4, bad], resolutions=[0.1, 0.05])
        assert calls == []

    def test_classical_limit_operator_study(self):
        # at alpha = 2 the operator is the second difference, whose error on
        # x^2 (1-x)^2 is h^2 / 12 times the fourth derivative 24: 2 h^2
        report = convergence_study("operator_table1", alphas=[2.0])
        for row in report.rows:
            assert row.error == pytest.approx(2.0 * row.resolution**2, rel=1e-7)
            assert row.ref_error is None and row.passed is None

    def test_grid_above_the_cap_is_refused(self, monkeypatch):
        # 1e-300 ended in a bare numpy ValueError and 1e-9 (M = 10**9) was
        # killed for its memory; 1e-320's reciprocal overflows to inf
        def refuse(*args):
            raise AssertionError("weights computed for a refused grid")

        monkeypatch.setattr(rieszfd.operators, "kappa_weights", refuse)
        for bad in (1e-320, 1e-300, 1e-9, 1 / 1000001, 1 / 1000002):
            with pytest.raises(SizeLimitError):
                convergence_study("operator_table1", alphas=[1.5], resolutions=[bad])

    def test_grid_at_the_cap_is_accepted(self):
        # 10**6 intervals, the cap; 1/1000001 (1/h = 1000000.9999999999) is refused above
        assert rieszfd.harness._resolution_to_m(1e-6) == 10**6

    @pytest.mark.parametrize("kind", ["temporal_table2", "spatial_table3"])
    def test_step_count_above_the_cap_is_refused_before_any_cell(self, kind, monkeypatch):
        # 1e-9 asked the solver for 10**9 steps (or intervals), and ran until killed
        calls = []

        def counted(*args):
            calls.append(args)
            return 1.0

        monkeypatch.setattr(rieszfd.harness, "_solver_error", counted)
        for bad in ([1e-9], [1 / 5, 1e-9]):
            with pytest.raises(SizeLimitError):
                convergence_study(kind, alphas=[1.5], resolutions=bad)
        assert calls == []

    def test_non_finite_source_is_an_error(self, monkeypatch, tmp_path):
        # the study's stacked forcing and the lone problem's source alike
        real_stack = rieszfd.harness._example42
        real = rieszfd.harness.example42_problem

        def stack_nan_after_half(alphas):
            forcing, exact = real_stack(alphas)

            def nan_forcing(x, times):
                late = np.array([np.nan if t > 0.5 else 1.0 for t in times])
                return forcing(x, times) * late[:, None]

            return nan_forcing, exact

        def nan_after_half(alpha):
            problem = real(alpha)

            def source(x, t):
                return problem.source(x, t) * (np.nan if t > 0.5 else 1.0)

            return dataclasses.replace(problem, source=source)

        monkeypatch.setattr(rieszfd.harness, "_example42", stack_nan_after_half)
        monkeypatch.setattr(rieszfd.harness, "example42_problem", nan_after_half)
        with pytest.raises(NumericsError):
            _group_error([1.5], 10, 20)
        with pytest.raises(NumericsError):
            _group_error([1.5, 1.7], 10, 20)
        argv = ["solve", "--alpha", "1.5", "--M", "10", "--N", "20"]
        assert rieszfd.cli.run(argv + ["--out", str(tmp_path / "u.csv")]) == 1


def _group_error(alphas, M, N):
    """``_solver_error`` of one group, set up as ``convergence_study`` sets
    up its groups: one ``pde._setups`` entry per alpha on M."""
    problems = [rieszfd.harness.example42_problem(alpha) for alpha in alphas]
    setups = rieszfd.pde._setups([(problem, N) for problem in problems], M)
    return rieszfd.harness._solver_error(setups, N)


def _reference_solver_error(alpha, M, N):
    """Verbatim copy of ``_solver_error`` before it passed the interior
    nodes along and reduced with ``ndarray.max``; the reference for it."""
    problem = rieszfd.harness.example42_problem(alpha)
    system = rieszfd.pde.assemble_system(problem, M, N)
    x = system.grid.nodes()
    tau = system.tau
    u = np.asarray(problem.initial(x), dtype=float)[1:M]
    worst = 0.0
    for k in range(N):
        u = rieszfd.harness.step(system, u, k * tau)
        exact = problem.exact(x[1:M], (k + 1) * tau)
        worst = max(worst, float(np.max(np.abs(u - exact))))
    return worst


def _block_lengths(M, N):
    """Levels per block that ``pde._march`` yields for M intervals and
    N + 1 levels."""
    rows = max(1, rieszfd.pde._BLOCK_BYTES // (8 * (M + 1)))
    return [min(rows, N + 1 - k) for k in range(0, N + 1, rows)]


# dense and Toeplitz cells whose levels fill several blocks with a partial
# last one, fewer levels than one block, and blocks of one level
_SOLVER_ERROR_CASES = [
    (1.4, 40, 200),
    (1.6, 1000, 10),
    (1.2, 10, 1000),
    (1.5, 20, 7),
    (1.8, 5000, 3),
]


class TestSolverError:
    @pytest.mark.parametrize("alpha, M, N", _SOLVER_ERROR_CASES)
    def test_matches_reference_loop(self, alpha, M, N):
        errors = _group_error([alpha], M, N)
        assert errors == [_reference_solver_error(alpha, M, N)]

    def test_reference_cases_cover_every_block_shape(self):
        shapes = [_block_lengths(M, N) for _, M, N in _SOLVER_ERROR_CASES]
        assert any(len(b) > 1 and b[-1] < b[0] for b in shapes)  # several, last partial
        assert any(
            len(b) == 1 and 8 * (M + 1) * (N + 1) < rieszfd.pde._BLOCK_BYTES
            for b, (_, M, N) in zip(shapes, _SOLVER_ERROR_CASES)
        )  # below one block
        assert any(len(b) > 1 and set(b) == {1} for b in shapes)  # one level each

    def test_non_finite_block_is_an_error(self, monkeypatch):
        # NaN from the first level on: every block's error is NaN
        real = rieszfd.harness._example42

        def nan_forcing(alphas):
            def forcing(x, times):
                return np.full((len(alphas), len(times), len(x)), np.nan)

            return forcing, real(alphas)[1]

        monkeypatch.setattr(rieszfd.harness, "_example42", nan_forcing)
        assert len(_block_lengths(40, 300)) > 1
        with pytest.raises(DomainError, match="not finite"):
            _group_error([1.5], 40, 300)

    def test_forcing_memory_is_independent_of_the_level_count(self):
        # the group's forcing is sampled one march block at a time; a
        # whole-run (4, N, 159) forcing is 10 MB at N = 2000 and 40 MB at
        # N = 8000.  The two peaks (about 1.2 MB) differed by under 2 KB on
        # a 2-vCPU x86 machine.
        peaks = []
        for N in (2000, 8000):
            tracemalloc.start()
            try:
                _group_error(rieszfd.harness.TABLE3_ALPHAS, 160, N)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 32 * 1024, f"peaks {peaks} bytes"

    def test_cells_run_one_at_a_time(self, monkeypatch):
        # one group of lock-step cells per (M, N), and one group at a time
        real = rieszfd.harness._solver_error
        lock = threading.Lock()
        running = [0]
        most = [0]
        groups = []

        def counted(*args):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
                groups.append(([s.problem.alpha for s in args[0]], args[0][0].grid.M, args[1]))
            try:
                time.sleep(0.01)  # widen the window for an overlapping group
                return real(*args)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(rieszfd.harness, "_solver_error", counted)
        report = convergence_study(
            "spatial_table3", alphas=[1.5, 1.7], resolutions=[1 / 10, 1 / 20, 1 / 40]
        )
        assert len(report.rows) == 6
        assert groups == [([1.5, 1.7], M, 2000) for M in (10, 20, 40)]
        assert most[0] == 1


class TestErrorSurface:
    def test_structure(self):
        surface = error_surface(1.5, 40, 25)
        assert surface.shape == (26, 41)
        np.testing.assert_array_equal(surface[:, 0], 0.0)
        np.testing.assert_array_equal(surface[:, -1], 0.0)
        np.testing.assert_array_equal(surface[0], 0.0)
        assert 0.0 < surface.max() < 1e-3

    def test_overwrites_the_solution_in_place(self):
        for alpha, M, N in ((1.5, 40, 5000), (1.7, 600, 700)):  # dense and Toeplitz
            tracemalloc.start()
            try:
                surface = error_surface(alpha, M, N)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the old loop held two (N+1) x (M+1) arrays: a 2.0x peak
            assert peak < 1.3 * surface.nbytes
            assert np.array_equal(surface, _reference_error_surface(alpha, M, N))

    def test_negative_sizes_are_domain_errors(self):
        # the surface was allocated before the sizes were checked, and a
        # negative one raised numpy's bare ValueError
        for M, N in ((10, -5), (-10, 5)):
            with pytest.raises(DomainError):
                error_surface(1.5, M, N)

    def test_refuses_more_than_physical_memory_before_assembly(self, monkeypatch):
        class AssemblyStarted(Exception):
            pass

        def no_assembly(*args):
            raise AssemblyStarted

        # M = 600, N = 10**7 needs (N+1)(M+1) 8 bytes, 44.8 GiB
        needed = (10**7 + 1) * 601 * 8
        monkeypatch.setattr(rieszfd.pde, "assemble_system", no_assembly)
        monkeypatch.setattr(rieszfd.pde, "_physical_memory_bytes", lambda: needed - 1)
        with pytest.raises(SizeLimitError):
            error_surface(1.5, 600, 10**7)
        with pytest.raises(DomainError):  # a bad alpha is reported before the size
            error_surface(2.5, 600, 10**7)
        # an array of exactly the physical memory gets to assembly
        monkeypatch.setattr(rieszfd.pde, "_physical_memory_bytes", lambda: 26 * 41 * 8)
        with pytest.raises(AssemblyStarted):
            error_surface(1.5, 40, 25)


def _reference_error_surface(alpha, M, N):
    """Verbatim copy of ``error_surface`` before it wrote over the
    solution, with a second (N+1) x (M+1) array."""
    problem = example42_problem(alpha)
    sol = rieszfd.pde.solve(problem, M, N, keep="all")
    x = sol.grid.nodes()
    surface = np.empty((N + 1, M + 1))
    for k, t in enumerate(sol.times):
        surface[k] = np.abs(sol.snapshots[k] - problem.exact(x, t))
    return surface
