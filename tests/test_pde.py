"""Tests for the Crank-Nicolson advection-diffusion solver."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import lu_solve

import rieszfd.pde
from rieszfd import (
    AdvectionDiffusionProblem,
    DomainError,
    NumericsError,
    SizeLimitError,
    assemble_system,
    example42_problem,
    grid_norm,
    solve,
    step,
)


def _zero_problem(alpha, T=1.0, K=2.0):
    return AdvectionDiffusionProblem(
        alpha=alpha,
        K=K,
        K_alpha=alpha * alpha,
        domain=(0.0, 1.0),
        T=T,
        source=lambda x, t: np.zeros_like(x),
        initial=lambda x: np.zeros_like(x),
    )


class TestProblemValidation:
    def test_alpha_out_of_range(self):
        with pytest.raises(DomainError):
            _zero_problem(1.0)
        with pytest.raises(DomainError):
            _zero_problem(2.1)

    def test_alpha_two_admitted(self):
        _zero_problem(2.0)

    def test_negative_advection(self):
        with pytest.raises(DomainError):
            _zero_problem(1.5, K=-1.0)

    def test_nonpositive_diffusion(self):
        with pytest.raises(DomainError):
            AdvectionDiffusionProblem(
                alpha=1.5,
                K=0.0,
                K_alpha=0.0,
                domain=(0.0, 1.0),
                T=1.0,
                source=lambda x, t: np.zeros_like(x),
                initial=lambda x: np.zeros_like(x),
            )


class TestAssembly:
    def test_lhs_plus_b_is_twice_identity(self):
        system = assemble_system(example42_problem(1.6), 10, 5)
        np.testing.assert_array_equal(system.lhs + system.B, 2.0 * np.eye(9))

    def test_factorization_residual(self):
        system = assemble_system(example42_problem(1.6), 10, 5)
        e1 = np.zeros(9)
        e1[0] = 1.0
        x = lu_solve(system.lu, e1)
        assert np.max(np.abs(system.lhs @ x - e1)) <= 1e-12

    def test_integer_order_is_classical_stencil(self):
        problem = AdvectionDiffusionProblem(
            alpha=2.0,
            K=0.0,
            K_alpha=1.0,
            domain=(0.0, 1.0),
            T=1.0,
            source=lambda x, t: np.zeros_like(x),
            initial=lambda x: np.zeros_like(x),
        )
        system = assemble_system(problem, 8, 4)
        h = 1.0 / 8.0
        tau = 0.25
        m = 7
        lap = (
            np.diag(-2.0 * np.ones(m)) + np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1)
        ) / h**2
        np.testing.assert_allclose(
            system.lhs, np.eye(m) - (tau / 2.0) * lap, rtol=1e-13, atol=1e-13
        )

    def test_size_validation(self):
        with pytest.raises(DomainError):
            assemble_system(example42_problem(1.5), 3, 5)
        with pytest.raises(DomainError):
            assemble_system(example42_problem(1.5), 10, 0)

    def test_size_guard_refuses_before_allocating(self, monkeypatch):
        def no_assembly(*args):
            raise AssertionError("assembly started despite the size guard")

        monkeypatch.setattr(rieszfd.pde, "_physical_memory_bytes", lambda: 1 << 20)
        monkeypatch.setattr(rieszfd.pde, "riesz_matrix", no_assembly)
        with pytest.raises(SizeLimitError):
            assemble_system(example42_problem(1.5), 1000, 10)

    def test_size_guard_counts_three_arrays(self, monkeypatch):
        needed = 3 * 9 * 9 * 8
        monkeypatch.setattr(rieszfd.pde, "_physical_memory_bytes", lambda: needed)
        assemble_system(example42_problem(1.5), 10, 5)
        monkeypatch.setattr(rieszfd.pde, "_physical_memory_bytes", lambda: needed - 1)
        with pytest.raises(SizeLimitError):
            assemble_system(example42_problem(1.5), 10, 5)


def _explicit_matrix_step(system, u, t):
    """The explicit-matrix step ``lhs^-1 (B u + tau f)``, kept as the
    reference for :func:`step`."""
    f = system.problem.source(system.x_interior, t + system.tau / 2.0)
    return lu_solve(system.lu, system.B @ u + system.tau * f)


def _sine_problem(alpha):
    return AdvectionDiffusionProblem(
        alpha=alpha,
        K=1.5,
        K_alpha=1.0,
        domain=(0.0, 1.0),
        T=1.0,
        source=lambda x, t: np.sin(np.pi * x) * np.cos(t),
        initial=lambda x: np.sin(np.pi * x),
    )


class TestStep:
    @pytest.mark.parametrize("alpha", (1.2, 1.8, 2.0))
    def test_matches_explicit_matrix_step(self, alpha):
        system = assemble_system(_sine_problem(alpha), 64, 200)
        u = ref = np.sin(np.pi * system.x_interior)
        for k in range(200):
            u = step(system, u, k * system.tau)
            ref = _explicit_matrix_step(system, ref, k * system.tau)
            assert np.max(np.abs(u - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_reads_only_the_factors(self):
        system = assemble_system(example42_problem(1.6), 32, 10)
        bare = dataclasses.replace(system, lhs=None, B=None)
        u = system.problem.initial(system.x_interior)
        np.testing.assert_array_equal(step(bare, u, 0.3), step(system, u, 0.3))

    def test_zero_stays_zero(self):
        system = assemble_system(_zero_problem(1.5), 16, 4)
        u = step(system, np.zeros(15), 0.0)
        np.testing.assert_array_equal(u, 0.0)

    def test_energy_nonincreasing(self):
        rng = np.random.default_rng(11)
        system = assemble_system(_zero_problem(1.5, T=5.0), 64, 50)
        u = rng.standard_normal(63)
        h = system.grid.h
        previous = grid_norm(u, h)
        for k in range(50):
            u = step(system, u, k * system.tau)
            current = grid_norm(u, h)
            assert current <= previous + 1e-12
            previous = current

    def test_one_step_defect_from_exact_data(self):
        # one coarse step from exact initial data stays within an order of
        # magnitude of the global reference error at that resolution
        alpha = 1.6
        problem = example42_problem(alpha)
        system = assemble_system(problem, 10, 5)
        x = system.x_interior
        u = step(system, problem.exact(x, 0.0), 0.0)
        defect = np.max(np.abs(u - problem.exact(x, system.tau)))
        assert defect <= 10.0 * 1.238098e-4


def _reference_solve(problem, M, N, keep):
    """Verbatim copy of the original list-based ``solve`` loop, which kept
    each level in its own zero-padded row and copied the rows into one
    array at the end."""
    system = assemble_system(problem, M, N)
    grid = system.grid
    tau = system.tau
    x = grid.nodes()
    u = np.asarray(problem.initial(x), dtype=float)[1:M]

    rows = []
    if keep == "all":
        full = np.zeros(M + 1)
        full[1:M] = u
        rows.append(full)
    for k in range(N):
        u = step(system, u, k * tau)
        if keep == "all":
            full = np.zeros(M + 1)
            full[1:M] = u
            rows.append(full)
    if keep == "final":
        full = np.zeros(M + 1)
        full[1:M] = u
        times = np.array([N * tau])
        snapshots = full[np.newaxis, :]
    else:
        times = tau * np.arange(N + 1)
        snapshots = np.array(rows)
    return times, snapshots


class TestSolve:
    @pytest.mark.parametrize("keep", ("all", "final"))
    @pytest.mark.parametrize("M, N", [(8, 1), (40, 25)])
    @pytest.mark.parametrize("alpha", (1.3, 2.0))
    def test_matches_list_based_reference(self, alpha, M, N, keep):
        problem = dataclasses.replace(_sine_problem(alpha), T=0.7)
        times, snapshots = _reference_solve(problem, M, N, keep)
        sol = solve(problem, M, N, keep=keep)
        assert np.array_equal(sol.times, times)
        assert np.array_equal(sol.snapshots, snapshots)
        assert sol.snapshots.shape == (N + 1 if keep == "all" else 1, M + 1)

    def test_zero_problem(self):
        sol = solve(_zero_problem(1.3), 16, 8)
        np.testing.assert_array_equal(sol.snapshots, 0.0)

    def test_keep_all_shapes(self):
        problem = example42_problem(1.5)
        sol = solve(problem, 12, 6, keep="all")
        assert sol.snapshots.shape == (7, 13)
        assert sol.times[0] == 0.0
        assert sol.times[-1] == pytest.approx(1.0)
        np.testing.assert_array_equal(sol.snapshots[:, 0], 0.0)
        np.testing.assert_array_equal(sol.snapshots[:, -1], 0.0)
        x = sol.grid.nodes()
        np.testing.assert_allclose(sol.snapshots[0], problem.initial(x), atol=1e-15)

    def test_keep_final_shape(self):
        sol = solve(example42_problem(1.5), 12, 6, keep="final")
        assert sol.snapshots.shape == (1, 13)
        assert sol.times[0] == pytest.approx(1.0)

    def test_keep_validation(self):
        with pytest.raises(DomainError):
            solve(example42_problem(1.5), 12, 6, keep="some")

    @pytest.mark.parametrize("keep", ("all", "final"))
    def test_non_finite_source_is_an_error(self, keep):
        def source(x, t):
            return np.full_like(x, np.nan) if t > 0.5 else np.zeros_like(x)

        problem = dataclasses.replace(_zero_problem(1.5), source=source)
        with pytest.raises(NumericsError):
            solve(problem, 16, 8, keep=keep)

    def test_benchmark_accuracy(self):
        problem = example42_problem(1.6)
        sol = solve(problem, 200, 100)
        x = sol.grid.nodes()
        err = np.max(np.abs(sol.final() - problem.exact(x, 1.0)))
        assert err <= 5e-5

    def test_classical_limit_matches_textbook_scheme(self):
        # alpha = 2 with an independent dense Crank-Nicolson implementation
        M, N = 32, 20
        h = 1.0 / M
        tau = 1.0 / N
        K, K2 = 1.5, 1.0
        problem = AdvectionDiffusionProblem(
            alpha=2.0,
            K=K,
            K_alpha=K2,
            domain=(0.0, 1.0),
            T=1.0,
            source=lambda x, t: np.sin(np.pi * x) * np.cos(t),
            initial=lambda x: np.sin(np.pi * x),
        )
        sol = solve(problem, M, N)

        m = M - 1
        x = np.linspace(0.0, 1.0, M + 1)
        lap = (
            np.diag(-2.0 * np.ones(m)) + np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1)
        ) / h**2
        cen = (np.diag(np.ones(m - 1), 1) - np.diag(np.ones(m - 1), -1)) / (2.0 * h)
        A = K * cen - K2 * lap
        lhs = np.eye(m) + (tau / 2.0) * A
        rhs_mat = np.eye(m) - (tau / 2.0) * A
        u = np.sin(np.pi * x[1:M])
        for k in range(N):
            f = np.sin(np.pi * x[1:M]) * np.cos((k + 0.5) * tau)
            u = np.linalg.solve(lhs, rhs_mat @ u + tau * f)
        np.testing.assert_allclose(sol.final()[1:M], u, rtol=1e-12, atol=1e-12)


class TestGridNorm:
    def test_zero(self):
        assert grid_norm(np.zeros(9), 0.1) == 0.0

    def test_constant(self):
        assert grid_norm(np.ones(9), 0.1) == pytest.approx(np.sqrt(0.9), rel=1e-14)

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(17)
        for c in (-3.0, 0.25):
            assert grid_norm(c * u, 0.05) == pytest.approx(
                abs(c) * grid_norm(u, 0.05), rel=1e-13
            )
