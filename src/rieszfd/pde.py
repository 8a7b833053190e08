"""Crank-Nicolson solver for the 1D Riesz fractional advection-diffusion
equation ``u_t + K u_x = K_alpha d^alpha u / d|x|^alpha + f`` with
homogeneous Dirichlet boundaries.

The implicit matrix ``lhs`` is time-independent, so it is inverted once
and the inverse is reused across every time step.  Because the explicit
matrix is ``B = 2I - lhs``, a step needs only one solve with ``lhs`` and
no product with ``B``:
``u+ = 2 y - u`` with ``lhs y = u + (tau/2) f``.  The scheme is
unconditionally stable and second-order accurate in both the time step
and the mesh size.

``lhs`` is Toeplitz, so its first column and row, formed in O(M), define
it, and one setup serves every M: the Levinson-Trench recursion gives
the generators ``x = lhs^-1 e_0`` and ``y = lhs^-1 e_{m-1}`` in O(M**2)
time and O(M) memory, a residual check accepts them, and one step of
iterative refinement polishes them.  They determine the inverse by the
Gohberg-Semencul formula
``lhs^-1 = (1/x_0) [L(x) U(J y) - L(Z y) U(Z J x)]``, where L(v) and U(v)
are the lower and upper triangular Toeplitz matrices with first column
and first row v, J reverses and Z shifts down by one.  The number of
intervals M picks one of two step kernels:

* below ``_TOEPLITZ_MIN_M`` (500), the formula is expanded to the dense
  inverse (O(M**2) memory) and a step is one matrix-vector product;
* from ``_TOEPLITZ_MIN_M`` to ``_TOEPLITZ_MAX_M`` (10**5, above which
  ``assemble_system`` refuses), a step applies the formula in six real
  FFTs with O(M) memory.

A failed setup raises SingularMatrixError.  The module needs only numpy.

Every run goes through one stepping loop, the private generator
``_march``: it calls :func:`step` once per level and hands the levels
over in blocks of at most ``_BLOCK_BYTES``, so :func:`solve` and the
convergence studies reduce or copy many levels per numpy call.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import numpy.fft  # noqa: F401  numpy 2 would load it on first use, mid-solve

from .errors import DomainError, SingularMatrixError, SizeLimitError
from .operators import GridSpec1D, _riesz_column, _toeplitz
from .operators import riesz_matrix  # noqa: F401  unused; kept while perfbench's tests pin it

__all__ = [
    "AdvectionDiffusionProblem",
    "SolutionGrid",
    "SteppingSystem",
    "assemble_system",
    "step",
    "solve",
    "grid_norm",
]

# Smallest M on the Toeplitz path.  The paths share the setup and differ in
# the step.  Per step with the example42 source on a 2-vCPU x86 machine
# (medians of 15 paired blocks of 200 steps, three runs), inverse matvec vs
# FFTs: 55-71 vs 119-145 us at M = 420, 106-117 vs 134-143 us at M = 500 and
# 170-187 vs 202-226 us at M = 580; from M = 600 to 850 they are within the
# noise.  The dense path also costs twice the setup (18 vs 8 ms at M = 500)
# and O(M**2) memory, so the crossover stays at 500.
_TOEPLITZ_MIN_M = 500

# Largest M on the Toeplitz path.  Its setup is O(M**2) in time: 0.13 s
# at M = 10**4, 1.2 s at 2 * 10**4 and 23 s at 10**5 on a 2-vCPU x86
# machine, which extrapolates to about 40 minutes at 10**6.
_TOEPLITZ_MAX_M = 100_000

# Largest block of levels that ``_march`` yields at once (at least one
# level).  Larger blocks cost peak memory and gain nothing: with 256 KiB
# blocks the table-3 study took as long and 0.7 MB more peak RSS.
_BLOCK_BYTES = 32 * 1024

# Largest accepted ||lhs [x y] - [e_0 e_{m-1}]||_inf relative to
# ||lhs||_inf max|[x y]| for the Levinson generators x and y
_GENERATOR_RTOL = 1e-10


@dataclass(frozen=True)
class AdvectionDiffusionProblem:
    """Problem data: coefficients, domain, horizon, source, initial data,
    and an optional exact solution for error measurement.

    ``alpha = 2`` is admitted as the classical (integer-order) limit; the
    fractional operator then degenerates to the standard second
    difference.
    """

    alpha: float
    K: float
    K_alpha: float
    domain: tuple[float, float]
    T: float
    source: Callable[[np.ndarray, float], np.ndarray]
    initial: Callable[[np.ndarray], np.ndarray]
    exact: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    def __post_init__(self) -> None:
        if not 1.0 < self.alpha <= 2.0:
            raise DomainError(f"solver requires alpha in (1, 2], got {self.alpha}")
        if self.K < 0.0:
            raise DomainError(f"advection coefficient K must be >= 0, got {self.K}")
        if self.K_alpha <= 0.0:
            raise DomainError(
                f"diffusion coefficient K_alpha must be > 0, got {self.K_alpha}"
            )
        if self.domain[1] <= self.domain[0]:
            raise DomainError(f"invalid domain {self.domain}")
        if self.T <= 0.0:
            raise DomainError(f"time horizon must be > 0, got {self.T}")


@dataclass(frozen=True)
class SolutionGrid:
    """Solution snapshots on the space-time grid.

    ``snapshots`` has one row per retained time level (all N+1 levels, or
    just the final one), each of length M+1 with zero boundary columns.
    ``times`` gives the time level of each retained row.
    """

    grid: GridSpec1D
    tau: float
    N: int
    times: np.ndarray
    snapshots: np.ndarray

    def final(self) -> np.ndarray:
        return self.snapshots[-1]


@dataclass(frozen=True)
class SteppingSystem:
    """One-time inversion of the implicit Crank-Nicolson system.

    ``lhs = I + (tau/2)(K C - K_alpha R)`` and
    ``B = I - (tau/2)(K C - K_alpha R)``, where C is the central
    difference matrix and R the Riesz operator matrix; lhs + B = 2I.
    Both are m x m Toeplitz matrices (m = M - 1).  ``column`` and ``row``
    hold the first column and row of lhs on both paths.

    Dense path (M < ``_TOEPLITZ_MIN_M``): ``inverse`` holds lhs^-1
    expanded from the Gohberg-Semencul generators (see the module
    docstring), ``lhs`` and ``B`` the dense matrices expanded from
    ``column`` and ``row``, and ``spectra`` is None.  The system holds
    three m x m arrays.

    Toeplitz path (M >= ``_TOEPLITZ_MIN_M``): ``inverse``, ``lhs`` and
    ``B`` are None, and ``spectra`` holds the FFT spectra of the
    Gohberg-Semencul factors, so everything held is O(M).

    :func:`step` reads only ``inverse`` or ``spectra``; the rest is kept
    for checks.
    """

    inverse: Optional[np.ndarray]
    lhs: Optional[np.ndarray]
    B: Optional[np.ndarray]
    grid: GridSpec1D
    tau: float
    problem: AdvectionDiffusionProblem
    x_interior: np.ndarray
    column: Optional[np.ndarray] = None
    row: Optional[np.ndarray] = None
    spectra: Optional[tuple] = None


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_all_levels_fit(M: int, N: int) -> None:
    """Raise SizeLimitError when an (N+1) x (M+1) float array, every level
    of a run, would need more than the machine's physical memory."""
    needed, available = (N + 1) * (M + 1) * 8, _physical_memory_bytes()
    if needed > available:
        raise SizeLimitError(
            f"keeping all {N + 1} levels at M={M} needs about {needed} bytes, "
            f"more than the {available} bytes of physical memory"
        )


def assemble_system(
    problem: AdvectionDiffusionProblem, M: int, N: int
) -> SteppingSystem:
    """Build and invert the Crank-Nicolson stepping system: checked and
    refined Levinson-Trench generators at every M, expanded to the dense
    inverse below ``_TOEPLITZ_MIN_M`` and turned into FFT spectra from
    there on.

    Raises SizeLimitError before any quadratic work when M exceeds
    ``_TOEPLITZ_MAX_M``, and SingularMatrixError when the generator
    recursion breaks down or the generators fail their residual check.
    """
    if M < 4:
        raise DomainError(f"solver requires M >= 4, got M={M}")
    if N < 1:
        raise DomainError(f"solver requires N >= 1, got N={N}")
    if M > _TOEPLITZ_MAX_M:
        raise SizeLimitError(
            f"M={M} exceeds {_TOEPLITZ_MAX_M}: the Toeplitz setup (Levinson "
            "recursion) is quadratic in M, about 25 s at M=100000"
        )
    a, b = problem.domain
    grid = GridSpec1D(a, b, M)
    tau = problem.T / N
    x_interior = grid.nodes()[1:M]
    column, row = _lhs_column_row(problem, grid, tau)
    generators = _checked_generators(column, row)
    if M >= _TOEPLITZ_MIN_M:
        spectra = _factor_spectra(generators)
        return SteppingSystem(
            None, None, None, grid, tau, problem, x_interior, column, row, spectra
        )
    inverse = _trench_inverse(generators)
    lhs = _toeplitz(column, row)
    # 2 - lhs_ii is exact for 1 <= lhs_ii < 2**53, so lhs + B = 2I bit for bit
    B = np.negative(lhs)
    np.fill_diagonal(B, 2.0 - column[0])
    return SteppingSystem(inverse, lhs, B, grid, tau, problem, x_interior, column, row)


def _lhs_column_row(
    problem: AdvectionDiffusionProblem, grid: GridSpec1D, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """First column and first row of lhs in O(M); they define the matrix
    on both paths."""
    h = grid.h
    column = _riesz_column(problem.alpha, 2, grid)
    np.multiply(column, -problem.K_alpha, out=column)
    row = column.copy()
    row[1] += problem.K * (1.0 / (2.0 * h))
    column[1] += problem.K * (-1.0 / (2.0 * h))
    column *= tau / 2.0
    row *= tau / 2.0
    column[0] += 1.0
    row[0] = column[0]
    return column, row


def _checked_generators(column: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Rows ``x = T^-1 e_0`` and ``y = T^-1 e_{m-1}`` for the Toeplitz
    matrix T with this first column and row, from the Levinson-Trench
    recursion.  Their residual rows ``T [x y] - [e_0 e_{m-1}]`` must not
    exceed ``_GENERATOR_RTOL ||T||_inf max|[x y]|`` in max norm, and one
    step of iterative refinement with them polishes the result."""
    generators = _levinson_generators(column, row)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite fails below
        residual = _generator_residual(column, row, generators)
    error = float(np.max(np.abs(residual)))
    lhs_norm = float(np.sum(np.abs(column)) + np.sum(np.abs(row[1:])))
    bound = _GENERATOR_RTOL * lhs_norm * float(np.max(np.abs(generators)))
    if not error <= bound < math.inf:  # NaN fails too
        raise SingularMatrixError(
            "Toeplitz generators fail the residual check: "
            f"||lhs [x y] - [e_0 e_m-1]||_inf = {error:.3g} > {bound:.3g}"
        )
    # the formula amplifies generator errors: at M = 2000 and alpha = 2,
    # Levinson generators with 6e-13 relative error gave a step 2e-12 off,
    # the refined ones 7e-15
    spectra = _factor_spectra(generators)
    generators -= [_gohberg_semencul_solve(spectra, r) for r in residual]
    return generators


def _levinson_generators(column: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Rows ``x = T^-1 e_0`` and ``y = T^-1 e_{m-1}`` for the Toeplitz
    matrix T with this first column and row, by the Levinson-Trench
    recursion (Golub & Van Loan, Matrix Computations, section 4.7) in
    O(m**2) time and O(m) memory.

    For the leading k x k block T_k, ``T_k f = e_0`` and ``T_k b = e_{k-1}``
    grow to order k + 1 as ``f' = s ([f; 0] - e_f [0; b])`` and
    ``b' = s ([0; b] - e_b [f; 0])``, where ``e_f = T[k, :k] f``,
    ``e_b = T[0, 1:k+1] b`` and ``s = 1 / (1 - e_f e_b)``.  The vectors are
    kept without the common factor s (so a step updates them with two
    multiply-subtracts and no vector scaling) and the running product of
    the factors, which is x_0, scales them once at the end.  ``b`` is kept
    right-aligned, so ``[0; b]`` and ``[f; 0]`` are the same-length slices
    of two buffers.

    Raises SingularMatrixError on a breakdown: a zero or non-finite pivot
    ``T[0, 0]`` or ``1 - e_f e_b`` (a singular leading block), or a
    non-finite generator.
    """
    m = len(column)
    f = np.zeros(m)
    b = np.zeros(m)
    f[0] = b[-1] = 1.0
    reversed_column = column[::-1].copy()
    dot = np.dot
    scale = 1.0
    pivot = float(column[0])
    k = 1
    # a vector that overflows is refused below, after the loop
    with np.errstate(over="ignore", invalid="ignore"):
        while pivot != 0.0 and math.isfinite(pivot):  # NaN fails too
            scale /= pivot
            if k == m:
                generators = np.stack([f, b])
                generators *= scale
                if not np.all(np.isfinite(generators)):
                    raise SingularMatrixError("Toeplitz generator recursion overflowed")
                return generators
            # f[k] = b[m - 1 - k] = 0, so these are the length-k dot products
            fk = f[: k + 1]
            bk = b[m - 1 - k :]
            e_f = scale * float(dot(reversed_column[m - 1 - k :], fk))
            e_b = scale * float(dot(row[: k + 1], bk))
            pivot = 1.0 - e_f * e_b
            if math.isfinite(pivot):
                shifted = bk * e_f
                bk -= fk * e_b
                fk -= shifted
            k += 1
    raise SingularMatrixError(
        f"Toeplitz generator recursion broke down at order {k}: pivot {pivot!r}"
    )


def _generator_residual(
    column: np.ndarray, row: np.ndarray, generators: np.ndarray
) -> np.ndarray:
    """Rows ``lhs x - e_0`` and ``lhs y - e_{m-1}``, from an FFT product with
    the length-n circulant that embeds lhs.  It runs in long double:
    a float64 residual is as inexact as the generators and refines nothing
    (where long double is float64, the refinement gains nothing)."""
    m = len(column)
    n = 1 << (2 * m - 1).bit_length()  # n >= 2m: no circular wrap
    embedding = np.zeros(n, dtype=np.longdouble)
    embedding[:m] = column
    embedding[n - m + 1 :] = row[:0:-1]
    spectrum = np.fft.rfft(embedding) * np.fft.rfft(generators.astype(np.longdouble), n)
    product = np.fft.irfft(spectrum, n)[:, :m]
    product[0, 0] -= 1.0
    product[1, -1] -= 1.0
    return product.astype(float)


def _factors(generators: np.ndarray) -> tuple:
    """``(lower, upper)``: rows of ``lower`` are x and Z y, the first
    columns of the lower triangular factors, and rows of ``upper`` are J y
    and Z J x, the first rows of the upper triangular ones."""
    x, y = generators
    m = len(x)
    lower = np.zeros((2, m))
    lower[0] = x
    lower[1, 1:] = y[:-1]
    upper = np.zeros((2, m))
    upper[0] = y[::-1]
    upper[1, 1:] = x[:0:-1]
    return lower, upper


def _factor_spectra(generators: np.ndarray) -> tuple:
    """``(lower, upper)``: rows of ``lower`` are the FFTs of x and Z y over
    x_0, rows of ``upper`` the conjugated FFTs of J y and Z J x
    (conjugation turns the circular convolution into the correlation that
    an upper triangular Toeplitz product is)."""
    lower, upper = _factors(generators)
    # n >= 2m keeps every product's first m entries free of circular wrap
    n = 1 << (2 * lower.shape[1] - 1).bit_length()
    return np.fft.rfft(lower, n) / lower[0, 0], np.conj(np.fft.rfft(upper, n))


def _trench_inverse(generators: np.ndarray) -> np.ndarray:
    """``lhs^-1`` as a dense array, expanded from the generators in O(m**2).

    Entry (i, j) of L(a) U(b) is the sum of ``a[i-k] b[j-k]`` over
    k <= min(i, j), so ``x_0 lhs^-1`` is the cumulative sum along each
    diagonal of ``outer(x, J y) - outer(Z y, Z J x)``: row i + 1 is row i
    shifted right plus row i + 1 of that difference.  Here x and Z y are
    divided by x_0 first.
    """
    lower, upper = _factors(generators)
    lower /= generators[0, 0]
    inverse = np.outer(lower[0], upper[0])
    inverse -= np.outer(lower[1], upper[1])
    for i in range(1, len(inverse)):
        inverse[i, 1:] += inverse[i - 1, :-1]
    return inverse


def _gohberg_semencul_solve(spectra: tuple, b: np.ndarray) -> np.ndarray:
    """``lhs^-1 b = (1/x_0) [L(x) U(J y) - L(Z y) U(Z J x)] b`` in six real
    FFTs: one of b, two inverse and two forward for the two upper
    triangular products, and one inverse for the difference."""
    lower, upper = spectra
    n = 2 * (lower.shape[1] - 1)
    m = len(b)
    products = np.fft.rfft(np.fft.irfft(upper * np.fft.rfft(b, n), n)[:, :m], n)
    return np.fft.irfft(lower[0] * products[0] - lower[1] * products[1], n)[:m]


def step(system: SteppingSystem, u_k: np.ndarray, t_k: float) -> np.ndarray:
    """Advance interior values one time level, sampling the source at the
    half level t_k + tau/2: ``2 y - u_k`` with ``lhs y = u_k + (tau/2) f``."""
    half = system.tau / 2.0
    f = np.asarray(system.problem.source(system.x_interior, t_k + half), dtype=float)
    if system.spectra is not None:
        return 2.0 * _gohberg_semencul_solve(system.spectra, u_k + half * f) - u_k
    return 2.0 * (system.inverse @ (u_k + half * f)) - u_k


def _march(system: SteppingSystem, u: np.ndarray, N: int):
    """Advance the interior values ``u`` (level 0) through N levels with
    :func:`step` and yield ``(k, block)``, where row i of ``block`` holds
    level k + i.  Every block but the last is full and holds at most
    ``_BLOCK_BYTES`` (at least one level).  ``block`` is a view of one
    buffer that the next block overwrites; the last block yielded stays
    intact.

    Raises DomainError, before the last block, when level N is not finite.
    ``2 y - u`` keeps every NaN or inf of ``u``, and both solvers spread
    one from the right-hand side to all of ``y`` (the dense path through
    its product with the full inverse, the Toeplitz path through its FFTs,
    which mix every entry), so checking level N covers the whole run."""
    tau = system.tau
    buffer = np.empty((max(1, min(N, _BLOCK_BYTES // (8 * len(u)))), len(u)))
    rows = len(buffer)
    for k in range(N):
        u = step(system, u, k * tau)
        i = k % rows
        buffer[i] = u
        if k == N - 1 and not np.all(np.isfinite(u)):
            raise DomainError(
                f"solution is not finite at t={N * tau!r}; the source or the "
                "initial data produced NaN or inf"
            )
        if i == rows - 1 or k == N - 1:
            yield k + 1 - i, buffer[: i + 1]


def solve(
    problem: AdvectionDiffusionProblem, M: int, N: int, keep: str = "final"
) -> SolutionGrid:
    """Run N Crank-Nicolson steps from the sampled initial data, through
    ``_march``.

    ``keep="all"`` retains every time level (for error surfaces) in one
    (N+1) x (M+1) array, filled block by block; ``keep="final"`` retains
    only t = T to bound memory.

    Raises SizeLimitError, before assembling anything, when the
    ``keep="all"`` array would need more than the machine's physical
    memory.
    """
    if keep not in ("all", "final"):
        raise DomainError(f"keep must be 'all' or 'final', got {keep!r}")
    if keep == "all":
        _check_all_levels_fit(M, N)
    system = assemble_system(problem, M, N)
    grid = system.grid
    tau = system.tau
    u = np.asarray(problem.initial(grid.nodes()), dtype=float)[1:M]
    levels = np.arange(N + 1) if keep == "all" else np.array([N])
    snapshots = np.zeros((len(levels), M + 1))
    interior = snapshots[:, 1:M]
    interior[0] = u  # with keep="final" the final level overwrites it
    for k, block in _march(system, u, N):
        if keep == "all":
            interior[k : k + len(block)] = block
    interior[-1] = block[-1]
    return SolutionGrid(grid, tau, N, tau * levels, snapshots)


def grid_norm(values: np.ndarray, h: float) -> float:
    """Discrete L2 norm ``sqrt(h sum u_j**2)`` over interior values."""
    values = np.asarray(values, dtype=float)
    return float(np.sqrt(h * np.sum(values * values)))
