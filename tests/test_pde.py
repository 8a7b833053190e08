"""Tests for the Crank-Nicolson advection-diffusion solver."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve, solve_toeplitz

import rieszfd.cli
import rieszfd.coeffs
import rieszfd.harness
import rieszfd.pde
from rieszfd import (
    AdvectionDiffusionProblem,
    DomainError,
    GridSpec1D,
    NumericsError,
    SingularMatrixError,
    SizeLimitError,
    assemble_system,
    example42_problem,
    grid_norm,
    riesz_matrix,
    solve,
    step,
)
from test_harness import _group_error, _source_step
from test_operators import ALPHA_DOMAIN, BAD_ALPHAS

CROSSOVER = rieszfd.pde._TOEPLITZ_MIN_M


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
        for alpha in (2.1, *BAD_ALPHAS):
            with pytest.raises(DomainError, match=ALPHA_DOMAIN):
                _zero_problem(alpha)

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

    @pytest.mark.parametrize("field, value", [
        ("K", np.nan), ("K", np.inf), ("K_alpha", np.nan), ("K_alpha", np.inf),
        ("T", np.nan), ("T", np.inf), ("domain", (np.nan, 1.0)), ("domain", (0.0, np.nan)),
        ("domain", (0.0, np.inf)), ("domain", (-np.inf, 1.0)),
    ])
    def test_non_finite_data_is_refused(self, field, value):
        # these once reached the setup as a Levinson breakdown (a
        # SingularMatrixError, meant for internal faults) or the march as
        # "initial data is not finite"
        with pytest.raises(DomainError):
            dataclasses.replace(example42_problem(1.5), **{field: value})


def _assert_refused(capsys, M):
    """The residual check refuses the setup, and the CLI reports it as one
    error line with nothing on stdout."""
    with pytest.raises(SingularMatrixError, match="residual"):
        assemble_system(example42_problem(1.5), M, 10)
    assert rieszfd.cli.run(["solve", "--alpha", "1.5", "--M", str(M), "--N", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _perturbed_levinson():
    """``_levinson_generators`` with its result scaled by ``1 + 1e-6``."""
    levinson = rieszfd.pde._levinson_generators
    return lambda *args: levinson(*args) * (1.0 + 1e-6)


def _corrupted_levinson(bad):
    """``_levinson_generators`` with generator entry ``[1, 5]`` set to ``bad``."""
    levinson = rieszfd.pde._levinson_generators

    def corrupted(*args):
        generators = levinson(*args)
        generators[1, 5] = bad
        return generators

    return corrupted


def _reference_dense_assembly(problem, M, N):
    """Verbatim copy of the dense assembly of ``lhs`` and ``B`` from
    ``riesz_matrix`` and strided diagonal edits, which ``assemble_system``
    used below the crossover; the reference for the matrices it now
    expands from the first column and row."""
    grid = GridSpec1D(*problem.domain, M)
    tau = problem.T / N
    m = M - 1
    h = grid.h
    stride = m + 1  # flat step along one diagonal
    half_a = riesz_matrix(problem.alpha, 2, grid)
    np.multiply(half_a, -problem.K_alpha, out=half_a)
    half_a.flat[1::stride] += problem.K * (1.0 / (2.0 * h))
    half_a.flat[m::stride] += problem.K * (-1.0 / (2.0 * h))
    half_a *= tau / 2.0

    lhs = half_a
    lhs.flat[::stride] += 1.0
    B = np.negative(lhs)
    B.flat[::stride] = 2.0 - lhs.flat[::stride]
    return lhs, B


class TestAssembly:
    @pytest.mark.parametrize("M", (4, 5, 160, 499))
    @pytest.mark.parametrize("alpha", (1.01, 1.5, 1.99, 2.0))
    def test_lhs_and_b_match_dense_assembly(self, alpha, M):
        for K in (0.0, 2.0, 7.3):
            problem = dataclasses.replace(_sine_problem(alpha), K=K)
            system = assemble_system(problem, M, 50)
            lhs, B = _reference_dense_assembly(problem, M, 50)
            assert np.array_equal(system.lhs, lhs)
            assert np.array_equal(system.B, B)

    def test_lhs_plus_b_is_twice_identity(self):
        system = assemble_system(example42_problem(1.6), 10, 5)
        np.testing.assert_array_equal(system.lhs + system.B, 2.0 * np.eye(9))

    def test_factorization_residual(self):
        system = assemble_system(example42_problem(1.6), 10, 5)
        e1 = np.zeros(9)
        e1[0] = 1.0
        x = system.step_matrix / 2.0 @ e1  # step_matrix is 2 lhs^-1
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

    def test_toeplitz_path_needs_no_dense_memory(self, monkeypatch):
        def no_dense(*args, **kwargs):
            raise AssertionError("the Toeplitz path used the dense assembly")

        monkeypatch.setattr(rieszfd.pde, "riesz_matrix", no_dense)
        monkeypatch.setattr(rieszfd.pde, "_toeplitz", no_dense)
        problem = example42_problem(1.5)
        system = assemble_system(problem, CROSSOVER, 10)
        assert system.step_matrix is system.lhs is system.B is None
        u = _source_step(system, problem.initial(system.x_interior), 0.0)
        assert u.shape == (CROSSOVER - 1,) and np.all(np.isfinite(u))

    @pytest.mark.parametrize("M", (4, 5, 40, 499))
    @pytest.mark.parametrize("alpha", (1.2, 1.99, 2.0))
    @pytest.mark.parametrize("K", (0.0, 2.0))
    def test_inverse_matches_lu_solve(self, M, alpha, K):
        # observed at M = 499: max |G - LU^-1| / max |LU^-1| up to 7.1e-14
        # (alpha 1.99), ||lhs G - I||_inf up to 4.0e-12 (alpha 2, K = 0);
        # the LU inverse's own residual is 5e-13 to 2.1e-12 there
        system = assemble_system(dataclasses.replace(_sine_problem(alpha), K=K), M, 50)
        assert M < CROSSOVER and system.step_spectra is None
        reference = lu_solve(lu_factor(system.lhs), np.eye(M - 1))
        inverse = system.step_matrix / 2.0  # step_matrix is 2 lhs^-1
        assert np.max(np.abs(inverse - reference)) <= 1e-12 * np.max(np.abs(reference))
        residual = np.max(np.sum(np.abs(system.lhs @ inverse - np.eye(M - 1)), axis=1))
        assert residual <= 1e-10

    def test_perturbed_inverse_is_refused(self, monkeypatch, capsys):
        # below the crossover the inverse is expanded from the generators
        monkeypatch.setattr(rieszfd.pde, "_levinson_generators", _perturbed_levinson())
        _assert_refused(capsys, 40)

    def test_non_finite_inverse_is_refused(self, monkeypatch, capsys):
        for bad in (np.nan, np.inf):
            monkeypatch.setattr(rieszfd.pde, "_levinson_generators", _corrupted_levinson(bad))
            _assert_refused(capsys, 40)

    def test_snapshot_guard_refuses_before_assembly(self, monkeypatch, capsys):
        class AssemblyStarted(Exception):
            pass

        def no_assembly(*args):
            raise AssemblyStarted

        # keep="all" at M = 600, N = 10**7 needs (N+1)(M+1) 8 bytes, 44.8 GiB
        needed = (10**7 + 1) * 601 * 8
        monkeypatch.setattr(rieszfd.pde, "_physical_memory_bytes", lambda: needed - 1)
        monkeypatch.setattr(rieszfd.pde, "assemble_system", no_assembly)
        problem = example42_problem(1.5)
        with pytest.raises(SizeLimitError):
            solve(problem, 600, 10**7, keep="all")
        with pytest.raises(AssemblyStarted):  # the guard is for keep="all" only
            solve(problem, 600, 10**7, keep="final")
        monkeypatch.setattr(rieszfd.pde, "_physical_memory_bytes", lambda: needed)
        with pytest.raises(AssemblyStarted):
            solve(problem, 600, 10**7, keep="all")

        monkeypatch.setattr(rieszfd.pde, "_physical_memory_bytes", lambda: needed - 1)
        size = ["--alpha", "1.5", "--M", "600", "--N", str(10**7)]
        for argv in (["solve", *size, "--keep", "all"], ["surface", *size]):
            assert rieszfd.cli.run(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_toeplitz_limit_refuses_before_setup(self, monkeypatch, capsys):
        class SetupStarted(Exception):
            pass

        def no_setup(*args):
            raise SetupStarted

        # the Levinson setup is quadratic in M: it is never run at the limit
        limit = rieszfd.pde._TOEPLITZ_MAX_M
        assert limit == 10**5
        monkeypatch.setattr(rieszfd.pde, "_levinson_generators", no_setup)
        problem = example42_problem(1.5)
        with pytest.raises(SizeLimitError, match=f"M={limit + 1} exceeds the cap of {limit}$"):
            assemble_system(problem, limit + 1, 1)
        with pytest.raises(SetupStarted):
            assemble_system(problem, limit, 1)
        for argv in (["solve", "--alpha", "1.5", "--M", str(limit + 1), "--N", "1"],
                     ["surface", "--alpha", "1.5", "--M", str(10**6), "--N", "1"]):
            assert rieszfd.cli.run(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert captured.err.endswith(f" exceeds the cap of {limit}\n")

    def test_step_count_cap_refuses_before_setup(self, monkeypatch):
        class SetupStarted(Exception):
            pass

        def no_setup(*args):
            raise SetupStarted

        cap = rieszfd.coeffs._MAX_COUNT
        assert cap == 10**6
        monkeypatch.setattr(rieszfd.pde, "_riesz_column", no_setup)
        problem = example42_problem(1.5)
        for N in (cap + 1, 10**12):
            with pytest.raises(SizeLimitError, match=f"N={N} exceeds the cap"):
                assemble_system(problem, 10, N)
            with pytest.raises(SizeLimitError, match=f"N={N} exceeds the cap"):
                solve(problem, 10, N)
        # a study's stack is refused before any of its cells is set up
        with pytest.raises(SizeLimitError):
            rieszfd.pde._setups([(problem, 5), (problem, cap + 1)], 10)
        with pytest.raises(SetupStarted):
            assemble_system(problem, 10, cap)


def _explicit_matrix_step(system, u, t):
    """The explicit-matrix step ``lhs^-1 (B u + tau f)``, kept as the
    reference for :func:`step`; the solve factorizes ``lhs`` itself, so it
    shares nothing with the inverse under test."""
    f = system.problem.source(system.x_interior, t + system.tau / 2.0)
    return lu_solve(lu_factor(system.lhs), system.B @ u + system.tau * f)


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
            u = _source_step(system, u, k * system.tau)
            ref = _explicit_matrix_step(system, ref, k * system.tau)
            assert np.max(np.abs(u - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_reads_only_the_factors(self):
        # not tau, the nodes or the source either: the march samples the forcing
        for M in (32, CROSSOVER):
            system = assemble_system(example42_problem(1.6), M, 10)
            unread = [f.name for f in dataclasses.fields(system)
                      if f.name not in ("step_matrix", "step_spectra")]
            bare = dataclasses.replace(system, **dict.fromkeys(unread))
            u = system.problem.initial(system.x_interior)
            forcing = np.linspace(-1.0, 1.0, M - 1)
            np.testing.assert_array_equal(step(bare, u, forcing=forcing),
                                          step(system, u, forcing=forcing))

    def test_forcing_is_keyword_only(self):
        # a positional third argument, such as the old level time, would
        # otherwise be added to u as the forcing
        system = assemble_system(example42_problem(1.5), 16, 4)
        with pytest.raises(TypeError):
            step(system, np.zeros(15), 0.0)

    def test_zero_stays_zero(self):
        system = assemble_system(_zero_problem(1.5), 16, 4)
        u = _source_step(system, np.zeros(15), 0.0)
        np.testing.assert_array_equal(u, 0.0)

    def test_energy_nonincreasing(self):
        rng = np.random.default_rng(11)
        system = assemble_system(_zero_problem(1.5, T=5.0), 64, 50)
        u = rng.standard_normal(63)
        h = system.grid.h
        previous = grid_norm(u, h)
        for k in range(50):
            u = _source_step(system, u, k * system.tau)
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
        u = _source_step(system, problem.exact(x, 0.0), 0.0)
        defect = np.max(np.abs(u - problem.exact(x, system.tau)))
        assert defect <= 10.0 * 1.238098e-4


def _dense_system(monkeypatch, problem, M, N):
    with monkeypatch.context() as patch:
        patch.setattr(rieszfd.pde, "_TOEPLITZ_MIN_M", M + 1)
        return assemble_system(problem, M, N)


class TestToeplitzPath:
    @pytest.mark.parametrize("M", (CROSSOVER, 1000, 2000))
    def test_matches_dense_lu_step_for_step(self, monkeypatch, M):
        # observed max |step difference| / max |u|: 3.3e-15 (alpha 1.2) to
        # 3.5e-13 (M = 2000, alpha 2); the dense solves' own roundoff
        # dominates it
        N = 50
        for alpha in (1.2, 1.5, 1.8, 2.0):
            for K in (0.0, 2.0):
                problem = dataclasses.replace(_sine_problem(alpha), K=K)
                system = assemble_system(problem, M, N)
                dense = _dense_system(monkeypatch, problem, M, N)
                assert system.lhs is None and dense.step_spectra is None
                lhs, _ = _reference_dense_assembly(problem, M, N)
                assert np.array_equal(system.column, lhs[:, 0])
                assert np.array_equal(system.row, lhs[0])
                tau, x = system.tau, system.x_interior
                inputs = np.empty((N, M - 1))
                outputs = np.empty((N, M - 1))
                u = problem.initial(x)
                for k in range(N):
                    inputs[k] = u
                    u = outputs[k] = _source_step(system, u, k * tau)
                # the dense steps from the same inputs, batched
                f = np.array([problem.source(x, (k + 0.5) * tau) for k in range(N)])
                ref = 2.0 * lu_solve(lu_factor(dense.lhs), (inputs + (tau / 2.0) * f).T).T - inputs
                assert np.max(np.abs(outputs - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("M", (40, CROSSOVER, 1000, 3000))
    @pytest.mark.parametrize("alpha", (1.2, 1.8, 2.0))
    def test_generators_match_scipy_solve_toeplitz(self, M, alpha):
        # observed max relative difference: 8.4e-13 (M = 3000, alpha 2,
        # N = 50), before the refinement step
        problem = _sine_problem(alpha)
        system = assemble_system(problem, M, 50)
        column, row = system.column, system.row
        unit = np.zeros((M - 1, 2))
        unit[0, 0] = unit[-1, 1] = 1.0
        reference = solve_toeplitz((column, row), unit).T
        generators = rieszfd.pde._levinson_generators(column, row)
        assert generators.shape == (2, M - 1)
        assert np.max(np.abs(generators - reference)) <= 1e-11 * np.max(np.abs(reference))

    def test_levinson_breakdown_is_refused(self):
        levinson = rieszfd.pde._levinson_generators
        ones = np.ones(4)
        with pytest.raises(SingularMatrixError, match="order 1"):
            levinson(np.array([0.0, 1.0, 0.5]), np.array([0.0, 2.0, 0.1]))
        # all-ones: the leading 2 x 2 block is singular
        with pytest.raises(SingularMatrixError, match="order 2"):
            levinson(ones, ones)
        with pytest.raises(SingularMatrixError):
            levinson(np.array([1.0, np.nan, 0.0]), np.array([1.0, 0.0, 0.0]))
        # a tiny pivot makes the next one infinite, or the 1 x 1 inverse
        with pytest.raises(SingularMatrixError, match="order 2"):
            levinson(np.array([1e-300, 1.0, 1.0]), np.array([1e-300, 1.0, 1.0]))
        with pytest.raises(SingularMatrixError, match="overflowed"):
            levinson(np.array([5e-324]), np.array([5e-324]))
        x, y = levinson(np.array([4.0, 1.0, 0.5]), np.array([4.0, -1.0, 0.25]))
        T = np.array([[4.0, -1.0, 0.25], [1.0, 4.0, -1.0], [0.5, 1.0, 4.0]])
        np.testing.assert_allclose(T @ x, [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(T @ y, [0.0, 0.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("M", (40, 1000))
    def test_generator_residual_has_the_bits_of_both_rows_at_once(self, M):
        (setup,) = rieszfd.pde._setups([(example42_problem(1.5), 10)], M)
        m, n = M - 1, 1 << (2 * (M - 1) - 1).bit_length()
        embedding = np.zeros(n, dtype=np.longdouble)
        embedding[:m] = setup.column
        embedding[n - m + 1 :] = setup.row[:0:-1]
        for generators in (setup.generators, np.random.default_rng(M).standard_normal((2, m))):
            both = np.fft.rfft(embedding) * np.fft.rfft(generators.astype(np.longdouble), n)
            product = np.fft.irfft(both, n)[:, :m]
            product[0, 0] -= 1.0
            product[1, -1] -= 1.0
            residual = rieszfd.pde._generator_residual(setup.column, setup.row, generators)
            np.testing.assert_array_equal(residual, product.astype(float))

    @pytest.mark.parametrize("M", (1000, 3000))
    def test_generator_residual_memory(self, M):
        # both rows transformed at once peaked at 257 KiB (8.1 n long
        # doubles) at M = 1000 and 770 KiB (6.0 n) at M = 3000; row by row,
        # into the reused embedding, 146 and 561 KiB
        (setup,) = rieszfd.pde._setups([(example42_problem(1.5), 10)], M)
        n = 1 << (2 * (M - 1) - 1).bit_length()
        residual = rieszfd.pde._generator_residual
        residual(setup.column, setup.row, setup.generators)  # FFT plans built
        tracemalloc.start()
        try:
            residual(setup.column, setup.row, setup.generators)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * n * np.dtype(np.longdouble).itemsize, f"peak {peak / 1024:.0f} KiB"

    def test_holds_only_linear_memory(self):
        system = assemble_system(example42_problem(1.5), 3000, 300)
        held = [system.column, system.row, *system.step_spectra]
        assert sum(a.nbytes for a in held) < 64 * 3000 * 8

    def test_perturbed_generators_are_refused(self, monkeypatch, capsys):
        monkeypatch.setattr(rieszfd.pde, "_levinson_generators", _perturbed_levinson())
        _assert_refused(capsys, CROSSOVER)

    def test_non_finite_generators_are_refused(self, monkeypatch, capsys):
        for bad in (np.nan, np.inf):
            monkeypatch.setattr(rieszfd.pde, "_levinson_generators", _corrupted_levinson(bad))
            _assert_refused(capsys, CROSSOVER)

    def test_non_finite_source_is_an_error(self, monkeypatch, capsys):
        def nan_problem(alpha):
            return dataclasses.replace(
                _zero_problem(alpha), source=lambda x, t: np.full_like(x, np.nan)
            )

        with pytest.raises(DomainError):
            solve(nan_problem(1.5), CROSSOVER, 3)
        monkeypatch.setattr(rieszfd.harness, "example42_problem", nan_problem)
        argv = ["solve", "--alpha", "1.5", "--M", str(CROSSOVER), "--N", "3"]
        assert rieszfd.cli.run(argv) == 1
        assert capsys.readouterr().out == ""


class TestFftLength:
    def test_smallest_even_five_smooth_length(self):
        top = 50_000
        smooth = np.zeros(4 * top + 1, dtype=bool)
        for n in range(2, len(smooth), 2):
            k = n
            for prime in (2, 3, 5):
                while k % prime == 0:
                    k //= prime
            smooth[n] = k == 1
        # expected[i]: the smallest 5-smooth even n >= i
        expected = np.empty(len(smooth), dtype=int)
        following = len(smooth)
        for i in range(len(smooth) - 1, -1, -1):
            if smooth[i]:
                following = i
            expected[i] = following
        lengths = [rieszfd.pde._fft_length(m) for m in range(1, top + 1)]
        assert lengths == expected[2 : 2 * top + 1 : 2].tolist()

    @pytest.mark.parametrize("M", (580, 1500, 3000))
    @pytest.mark.parametrize("alpha", (1.2, 1.8))
    def test_gohberg_semencul_solve_matches_dense_solve(self, M, alpha):
        # observed max relative difference 6.9e-14 (M = 3000, alpha 1.8), as
        # with the power-of-two lengths, 2048, 4096 and 8192, that these M
        # used to pad to instead of 1200, 3000 and 6000
        system = assemble_system(example42_problem(alpha), M, 300)
        m = M - 1
        n = rieszfd.pde._fft_length(m)
        assert n < 1 << (2 * m - 1).bit_length()
        assert [spectrum.shape for spectrum in system.step_spectra] == [(2, n // 2 + 1)] * 2
        b = np.random.default_rng(M).standard_normal(m)
        # the stored lower spectra are doubled: the solve gives 2 lhs^-1 b
        x = rieszfd.pde._gohberg_semencul_solve(system.step_spectra, b) / 2.0
        reference = np.linalg.solve(rieszfd.pde._toeplitz(system.column, system.row), b)
        assert np.max(np.abs(x - reference)) <= 1e-12 * np.max(np.abs(reference))


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
        u = _source_step(system, u, k * tau)
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

    @pytest.mark.parametrize("keep", ("all", "final"))
    @pytest.mark.parametrize("M, N", [(40, 500), (600, 40)])  # dense and Toeplitz
    def test_matches_step_loop_over_several_blocks(self, M, N, keep):
        problem = example42_problem(1.7)
        rows = max(1, rieszfd.pde._BLOCK_BYTES // (8 * (M + 1)))
        # N + 1 levels in full blocks and a partial last one
        assert N + 1 > 2 * rows and (N + 1) % rows != 0
        system = assemble_system(problem, M, N)
        u = problem.initial(system.grid.nodes())[1:M]
        levels = [u]
        for k in range(N):
            u = _source_step(system, u, k * system.tau)
            levels.append(u)
        expected = np.zeros((N + 1, M + 1))
        expected[:, 1:M] = levels
        sol = solve(problem, M, N, keep=keep)
        assert np.array_equal(sol.snapshots, expected if keep == "all" else expected[-1:])

    @pytest.mark.parametrize("M", (40, CROSSOVER))
    def test_scalar_source_marches_as_its_array(self, M):
        # the lone run's forcing takes each level's source value by row
        # assignment, so a scalar is broadcast over the nodes
        base = _sine_problem(1.5)
        scalar = dataclasses.replace(base, source=lambda x, t: np.cos(t))
        array = dataclasses.replace(base, source=lambda x, t: np.full_like(x, np.cos(t)))
        levels = solve(scalar, M, 30, keep="all").snapshots
        assert np.array_equal(levels, solve(array, M, 30, keep="all").snapshots)
        assert not np.array_equal(levels, solve(_sine_problem(1.5), M, 30, keep="all").snapshots)

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

    def test_non_finite_block_is_refused_before_it_is_yielded(self):
        # NaN from level 1001 of 2000; blocks of 390 levels at M = 20
        def source(x, t):
            return np.full_like(x, np.nan) if t > 0.5 else np.zeros_like(x)

        problem = dataclasses.replace(_zero_problem(1.5), source=source)
        system, blocks = rieszfd.pde._levels(problem, 20, 2000)
        seen = []
        # the error names level 1001, not the block's last level, 1169
        with pytest.raises(DomainError, match=re.escape(f"not finite at t={1001 * system.tau!r};")):
            for k, block in blocks:
                assert np.all(np.isfinite(block))
                seen.append(k + len(block))
        assert seen == [390, 780]  # the block of levels 780-1169 was refused

    def test_non_finite_cell_stops_its_lock_step_group(self):
        # one cell of four turns NaN from level 1001 of 2000; the group's
        # blocks hold 97 levels per cell at M = 20
        problems = [_zero_problem(alpha) for alpha in (1.2, 1.4, 1.6, 1.8)]
        setups = rieszfd.pde._setups([(problem, 2000) for problem in problems], 20)

        def forcing(x, times):
            f = np.zeros((4, len(times), len(x)))
            f[2, np.asarray(times) > 0.5] = np.nan
            return f

        system, blocks = rieszfd.pde._stacked_levels(setups, forcing, 2000)
        seen = []
        with pytest.raises(DomainError, match=re.escape(f"not finite at t={1001 * system.tau!r};")):
            for k, block in blocks:
                assert block.shape[0] == 4 and np.all(np.isfinite(block))
                seen.append(k + block.shape[1])
        assert seen == list(range(97, 1001, 97))  # levels 970-1066 were refused

    @pytest.mark.parametrize(
        "M, N, nan_step, rows",
        # blocks of 97 levels per cell at M = 20 (dense path) and of 4 at
        # CROSSOVER (Toeplitz path); the NaN step is inside a block
        [(20, 2000, 1234, 97), (CROSSOVER, 40, 13, 4)],
    )
    def test_nan_forcing_row_mid_block_names_its_level(self, M, N, nan_step, rows):
        # the forcing is NaN in cell 1 at the one half level of step
        # nan_step, so level nan_step + 1 is the first that is not finite:
        # each step gets its own row of the block's forcing
        problems = [_zero_problem(alpha) for alpha in (1.2, 1.4, 1.6, 1.8)]
        setups = rieszfd.pde._setups([(problem, N) for problem in problems], M)
        tau = setups[0].tau
        nan_time = nan_step * tau + tau / 2.0

        def forcing(x, times):
            f = np.zeros((4, len(times), len(x)))
            f[1, np.asarray(times) == nan_time] = np.nan
            return f

        system, blocks = rieszfd.pde._stacked_levels(setups, forcing, N)
        first = nan_step + 1
        assert 0 < first % rows < rows - 1
        seen = []
        with pytest.raises(DomainError, match=re.escape(f"not finite at t={first * tau!r};")):
            for k, block in blocks:
                assert np.all(np.isfinite(block))
                seen.append(k + block.shape[1])
        assert seen == list(range(rows, first, rows))

    def test_non_finite_initial_data_is_refused_before_any_level(self):
        problem = dataclasses.replace(_zero_problem(1.5), initial=lambda x: x / 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(DomainError, match="initial data is not finite"):
                rieszfd.pde._levels(problem, 20, 10)

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


def _stack(M, cells):
    """Reversed first columns and first rows of lhs, one row per
    ``(alpha, K, tau)`` in ``cells``, on M intervals of (0, 1), as
    ``pde._setups`` lays them out for the stacked recursion."""
    grid = GridSpec1D(0.0, 1.0, M)
    reversed_columns = np.empty((len(cells), M - 1))
    rows = np.empty_like(reversed_columns)
    for (alpha, K, tau), reversed_column, row in zip(cells, reversed_columns, rows):
        problem = dataclasses.replace(_zero_problem(alpha, K=K), K_alpha=1.0)
        riesz = rieszfd.pde._riesz_column(alpha, 2, grid)
        rieszfd.pde._lhs_column_row(problem, grid, tau, riesz, reversed_column[::-1], row)
    return reversed_columns, rows


def _table2_cells(alphas=rieszfd.harness.TABLE2_ALPHAS, N=(5, 10)):
    return [(example42_problem(alpha), n) for alpha in alphas for n in N]


class TestLockStep:
    def test_group_yields_the_levels_of_lone_marches(self):
        # four example-4.2 cells on M = 40 in several blocks of levels,
        # the dense path, and two on the Toeplitz path
        for M, N, alphas in ((40, 300, (1.2, 1.4, 1.6, 1.8)), (CROSSOVER, 12, (1.3, 1.7))):
            problems = [example42_problem(alpha) for alpha in alphas]
            setups = rieszfd.pde._setups([(problem, N) for problem in problems], M)

            def forcing(x, times):
                return np.array([[problem.source(x, t) for t in times] for problem in problems])

            system, blocks = rieszfd.pde._stacked_levels(setups, forcing, N)
            stacked = np.concatenate([block.copy() for _, block in blocks], axis=1)
            assert stacked.shape == (len(alphas), N + 1, M + 1)
            for problem, levels in zip(problems, stacked):
                lone = np.concatenate([b.copy() for _, b in rieszfd.pde._levels(problem, M, N)[1]])
                assert np.array_equal(levels, lone)

    def test_stack_holds_the_lone_inverses_and_spectra(self):
        setups = rieszfd.pde._setups(_table2_cells(N=(5,)), 40)
        system, _ = rieszfd.pde._stacked_levels(setups, None, 5)
        assert system.step_matrix.shape == (4, 39, 39) and system.step_spectra is None
        lone = assemble_system(setups[1].problem, 40, 5)
        assert np.array_equal(system.step_matrix[1], lone.step_matrix)
        setups = rieszfd.pde._setups(_table2_cells(N=(5,)), CROSSOVER)
        system, _ = rieszfd.pde._stacked_levels(setups, None, 5)
        assert system.step_matrix is None
        lone = assemble_system(setups[3].problem, CROSSOVER, 5)
        for stacked, alone in zip(system.step_spectra, lone.step_spectra):
            assert stacked.shape == (4, *alone.shape)
            assert np.array_equal(stacked[3], alone)


def _assert_study_cells_match_lone_cells(monkeypatch, kind, resolutions, recursions):
    """Run a study, counting its stacked recursions and its groups, and
    check every cell's error against a one-cell ``_solver_error`` run."""
    stacked = rieszfd.pde._stacked_levinson_generators
    sizes = []
    monkeypatch.setattr(
        rieszfd.pde,
        "_stacked_levinson_generators",
        lambda *args: sizes.append(len(args[1])) or stacked(*args),
    )
    real = rieszfd.harness._solver_error
    groups = []
    monkeypatch.setattr(
        rieszfd.harness, "_solver_error", lambda *args: groups.append(args[0]) or real(*args)
    )
    report = rieszfd.harness.convergence_study(kind, resolutions=resolutions)
    assert sizes == recursions
    assert [len(setups) for setups in groups] == [4, 4]
    for row in report.rows:
        n = round(1 / row.resolution)
        M, N = (1000, n) if kind == "temporal_table2" else (n, 2000)
        assert [row.error] == _group_error([row.alpha], M, N)


class TestStackedSetup:
    def test_stack_is_chosen_by_cell_count(self, monkeypatch):
        calls = []
        scalar = rieszfd.pde._levinson_generators
        stacked = rieszfd.pde._stacked_levinson_generators

        def counted_scalar(*args):
            calls.append("scalar")
            return scalar(*args)

        def counted_stacked(reversed_columns, rows):
            calls.append(("stacked", len(rows)))
            return stacked(reversed_columns, rows)

        monkeypatch.setattr(rieszfd.pde, "_levinson_generators", counted_scalar)
        monkeypatch.setattr(rieszfd.pde, "_stacked_levinson_generators", counted_stacked)
        cells = _table2_cells(N=(5,))
        rieszfd.pde._setups(cells[:2], 40)
        assert calls == [("stacked", 2)]
        calls.clear()
        rieszfd.pde._setups(cells, 3000)
        assert calls == [("stacked", 4)]
        calls.clear()
        rieszfd.pde._setups(cells[:1], 40)
        assert calls == ["scalar"]
        calls.clear()
        assemble_system(cells[0][0], 40, 5)
        assert calls == ["scalar"]

    def test_study_cells_match_lone_cells(self, monkeypatch):
        # eight table-2 cells share M = 1000 and one stacked recursion, and
        # march in two Toeplitz groups of four, one per N
        _assert_study_cells_match_lone_cells(monkeypatch, "temporal_table2", [1 / 5, 1 / 10], [8])

    def test_dense_study_cells_match_lone_cells(self, monkeypatch):
        # table 3's four alphas share each M and march as dense groups
        _assert_study_cells_match_lone_cells(monkeypatch, "spatial_table3", [1 / 10, 1 / 20], [4, 4])

    def test_setups_share_one_riesz_column_per_alpha(self, monkeypatch):
        columns = []
        riesz = rieszfd.pde._riesz_column
        monkeypatch.setattr(
            rieszfd.pde, "_riesz_column", lambda *args: columns.append(args[0]) or riesz(*args)
        )
        setups = rieszfd.pde._setups(_table2_cells(alphas=(1.2, 1.8), N=(5, 10, 20)), 100)
        assert columns == [1.2, 1.8]
        for setup in setups:
            alone = assemble_system(setup.problem, 100, round(setup.problem.T / setup.tau))
            np.testing.assert_array_equal(setup.column, alone.column)
            np.testing.assert_array_equal(setup.row, alone.row)

    @pytest.mark.parametrize(
        "bad_column",
        [
            [0.0, 1.0, 0.5],  # column[0] = 0: breaks down at order 1
            [1e-300, 1.0, 1.0],  # a tiny pivot makes the next one infinite
            [1.0, np.nan, 0.0],
        ],
    )
    def test_a_breakdown_raises_the_scalar_error(self, bad_column):
        reversed_columns, rows = _stack(4, [(1.3, 2.0, 0.1), (1.6, 0.0, 0.5), (1.9, 1.0, 0.01)])
        reversed_columns[1] = bad_column[::-1]
        rows[1] = bad_column
        with pytest.raises(SingularMatrixError) as scalar:
            rieszfd.pde._levinson_generators(reversed_columns[1, ::-1], rows[1])
        with pytest.raises(SingularMatrixError) as stacked:
            rieszfd.pde._stacked_levinson_generators(reversed_columns, rows)
        assert str(stacked.value) == str(scalar.value)

    def test_an_overflow_raises_the_scalar_error(self):
        reversed_columns = np.array([[4.0], [5e-324], [2.0]])
        with pytest.raises(SingularMatrixError, match="overflowed"):
            rieszfd.pde._stacked_levinson_generators(reversed_columns, reversed_columns.copy())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, "perturbed"])
    def test_corrupted_generators_are_refused_on_the_study_path(self, bad, monkeypatch, capsys):
        # the last of eight stacked cells; the first seven pass their checks,
        # and the setup refuses the eighth before any group marches
        stacked = rieszfd.pde._stacked_levinson_generators
        cells = []

        def corrupted(*args):
            generators = stacked(*args)
            if bad == "perturbed":
                generators[-1] *= 1.0 + 1e-6
            else:
                generators[-1, 1, 5] = bad
            return generators

        def counted(*args):
            cells.append(args)
            return real(*args)

        real = rieszfd.harness._solver_error
        monkeypatch.setattr(rieszfd.pde, "_stacked_levinson_generators", corrupted)
        monkeypatch.setattr(rieszfd.harness, "_solver_error", counted)
        with pytest.raises(SingularMatrixError, match="residual"):
            rieszfd.harness.convergence_study("temporal_table2", resolutions=[1 / 5, 1 / 10])
        assert cells == []
        argv = ["convergence", "--table", "2", "--alphas", "1.2,1.4,1.6,1.8"]
        assert rieszfd.cli.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _long_double_levinson(column, row):
    """``x = T^-1 e_0`` and ``y = T^-1 e_{m-1}`` by the Levinson-Trench
    recursion of ``pde._levinson_generators``, in the dtype of the inputs."""
    m = len(column)
    f = np.zeros(m, dtype=column.dtype)
    b = np.zeros_like(f)
    f[0] = b[-1] = 1
    reversed_column = column[::-1].copy()
    scale = 1 / column[0]
    for k in range(1, m):
        fk, bk = f[: k + 1], b[m - 1 - k :]
        e_f = scale * np.dot(reversed_column[m - 1 - k :], fk)
        e_b = scale * np.dot(row[: k + 1], bk)
        shifted = bk * e_f
        bk -= fk * e_b
        fk -= shifted
        scale /= 1 - e_f * e_b
    return f * scale, b * scale


def _long_double_final_level(system, N):
    """Interior values at T of ``system``'s problem, from the float64
    column, row and source samples that production uses, with the
    Levinson recursion, the Gohberg-Semencul apply and the Crank-Nicolson
    update in long double: a reference for the solver's own roundoff.
    ``system`` is a ``SteppingSystem`` or a ``pde._Setup``."""
    ld = np.longdouble
    problem, M, tau = system.problem, system.grid.M, system.tau
    x_interior = system.grid.nodes()[1:M]
    x, y = _long_double_levinson(system.column.astype(ld), system.row.astype(ld))
    m = M - 1
    n = 1 << (2 * m - 1).bit_length()
    lower = np.zeros((2, m), dtype=ld)
    lower[0], lower[1, 1:] = x / x[0], y[:-1]
    lower[1] /= x[0]
    upper = np.zeros((2, m), dtype=ld)
    upper[0], upper[1, 1:] = y[::-1], x[:0:-1]
    lower, upper = np.fft.rfft(lower, n), np.conj(np.fft.rfft(upper, n))
    assert lower.dtype == upper.dtype == np.clongdouble

    def solve(v):
        products = np.fft.rfft(np.fft.irfft(upper * np.fft.rfft(v, n), n)[:, :m], n)
        return np.fft.irfft(lower[0] * products[0] - lower[1] * products[1], n)[:m]

    half = tau / 2.0
    u = np.asarray(problem.initial(system.grid.nodes()), dtype=float)[1:M].astype(ld)
    for k in range(N):
        f = np.asarray(problem.source(x_interior, k * tau + half), dtype=float)
        u = 2 * solve(u + ld(half) * f.astype(ld)) - u
    return u


# Largest max |u - u_ld| / max |u_ld| at T for example 4.2 with N = 100,
# alpha 1.2 / 1.5 / 1.8 and M = 160, 499, 500 and 1000: 2.4e-15 to 5.7e-14
# on a 2-vCPU x86 machine (long double eps 1.08e-19), on both step kernels
_LONG_DOUBLE_RTOL = 2e-13


class TestLongDoubleReference:
    def test_long_double_is_wider_than_double(self):
        assert np.finfo(np.longdouble).eps < np.finfo(float).eps

    def test_fft_keeps_long_double(self):
        # numpy 1.x runs np.fft in double whatever the input, which would
        # leave this reference and ``pde._generator_residual`` in double
        assert np.fft.rfft(np.zeros(8, dtype=np.longdouble)).dtype == np.clongdouble

    @pytest.mark.parametrize("M", (160, 499, 500, 1000))
    @pytest.mark.parametrize("alpha", (1.2, 1.5, 1.8))
    def test_solve_matches_long_double_run(self, alpha, M):
        problem = example42_problem(alpha)
        system = assemble_system(problem, M, 100)
        reference = _long_double_final_level(system, 100)
        u = solve(problem, M, 100).final()[1:M]
        assert np.max(np.abs(u - reference)) <= _LONG_DOUBLE_RTOL * np.max(np.abs(reference))

    def test_stacked_setup_matches_long_double_run(self):
        # a cell that shares one stacked recursion and marches in lock step
        # with three others under the stacked example-4.2 forcing
        setups = rieszfd.pde._setups(_table2_cells(N=(100,)), 1000)
        assert len(setups) > 1
        forcing, _ = rieszfd.harness._example42([s.problem.alpha for s in setups])
        system, blocks = rieszfd.pde._stacked_levels(setups, forcing, 100)
        for _, block in blocks:
            pass
        reference = _long_double_final_level(setups[2], 100)
        error = np.max(np.abs(block[2, -1, 1:-1] - reference))
        assert error <= _LONG_DOUBLE_RTOL * np.max(np.abs(reference))


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
