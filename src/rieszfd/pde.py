"""Crank-Nicolson solver for the 1D Riesz fractional advection-diffusion
equation ``u_t + K u_x = K_alpha d^alpha u / d|x|^alpha + f`` with
homogeneous Dirichlet boundaries.

The implicit matrix ``lhs`` is time-independent, so it is inverted once
and the inverse is reused across every time step.  Because the explicit
matrix is ``B = 2I - lhs``, a step needs only one solve with ``lhs`` and
no product with ``B``:
``u+ = 2 y - u`` with ``lhs y = u + (tau/2) f``.  The stored operator is
``2 lhs^-1``, so a step is one product and one subtraction; scaling by 2
is exact, so it gives the bits of ``2.0 * (lhs^-1 v)``.  The scheme is
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
  inverse, doubled (O(M**2) memory), and a step is one matrix-vector
  product;
* from ``_TOEPLITZ_MIN_M`` to ``_TOEPLITZ_MAX_M`` (10**5, above which
  ``assemble_system`` refuses), a step applies the formula, its lower
  factors' spectra doubled, in six real FFTs with O(M) memory.  Their
  length is the smallest even ``2**a 3**b 5**c`` at or above 2(M - 1),
  not the next power of two, which can be almost twice that: 6000 at
  M = 3000, not 8192.

A failed setup raises SingularMatrixError.  More than 10**6 time steps
(``coeffs._MAX_COUNT``) is refused with SizeLimitError before any work.
The module needs only numpy.

Systems on one M can share their setup: the private ``_setups`` builds
the column and row of each (the Riesz column once per alpha) and, for
two or more systems, runs one Levinson-Trench recursion over their
(systems, m) stack, which gives each system the bits of its own scalar
recursion, and then checks and refines every pair in place
(``_checked_generators``), so a bad pair is refused during setup, before
any system steps.  The convergence studies set up the cells of each grid
this way.  The recursion writes each order's update products into one
scratch allocated up front, and the residual check transforms one
generator row at a time in a reused buffer, so neither grows fresh
temporaries.  A lone system (``assemble_system``, every solve) keeps the
scalar loop, which is twice as fast for one system: 19 vs 35 ms at
M = 3000 and 5.3 vs 11 ms at M = 1000 on a 2-vCPU x86 machine.

Systems that also share the time step can march in lock step:
``_stacked_levels`` turns their generators into one (cells, m, m) stack
of doubled inverses or (cells, 2, n/2 + 1) stack of spectra, a
``_Stack``, and :func:`step` advances a (cells, m) state with one
stacked product or one set of FFTs along the last axis, each row bit for
bit its cell's own step.  A stack's forcing takes many times at once and
is sampled once per block of levels, not once per level.  The
convergence studies march each group of cells with one (M, N) this way;
a lone system is the one-cell case and keeps its ``SteppingSystem`` and
its per-level ``problem.source`` call.

Every run goes through one stepping loop, the private generator
``_march``: it calls :func:`step` once per level and hands the levels,
level 0 first and zero boundary values included, over in blocks of at
most ``_BLOCK_BYTES``, so :func:`solve` and the convergence studies
reduce or copy many levels per numpy call.
``_levels`` does the assembly, the initial data and the march of a lone
system, and ``_stacked_levels`` those of a lock-step stack.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
import numpy.fft  # noqa: F401  numpy 2 would load it on first use, mid-solve

from .coeffs import _MAX_COUNT, _check_alpha
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
# FFTs at ``_fft_length``: 40-58 vs 81-111 us at M = 420, 77-95 vs 90-121 us
# at M = 500 and 128-149 vs 99-136 us at M = 580; at 700 they are within
# the noise.  The dense path also costs twice the setup (9-13 vs 4-6 ms at
# M = 500) and O(M**2) memory, so the crossover stays at 500.
_TOEPLITZ_MIN_M = 500

# Largest M on the Toeplitz path.  Its setup is O(M**2) in time: 0.13 s
# at M = 10**4, 1.2 s at 2 * 10**4 and 23 s at 10**5 on a 2-vCPU x86
# machine, which extrapolates to about 40 minutes at 10**6.
_TOEPLITZ_MAX_M = 100_000

# Largest block of levels that ``_march`` yields at once (at least one
# level).  The CLI copies the levels out of each block one at a time into
# its own staging of one ``_g17.BLOCK_ROWS`` write, so this does not set
# the CSV writes.  Larger blocks cost peak memory and gain nothing: with
# 256 KiB blocks the table-3 study took as long and 0.7 MB more peak RSS,
# and with 128 KiB ``solve --M 1000 --N 1000 --keep all`` peaked about
# 1.1 MB higher.
_BLOCK_BYTES = 64 * 1024

# Largest accepted ||lhs [x y] - [e_0 e_{m-1}]||_inf relative to
# ||lhs||_inf max|[x y]| for the Levinson generators x and y
_GENERATOR_RTOL = 1e-10


@dataclass(frozen=True)
class AdvectionDiffusionProblem:
    """Problem data: coefficients, domain, horizon, source, initial data,
    and an optional exact solution for error measurement."""

    alpha: float
    K: float
    K_alpha: float
    domain: tuple[float, float]
    T: float
    source: Callable[[np.ndarray, float], np.ndarray]
    initial: Callable[[np.ndarray], np.ndarray]
    exact: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
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
    hold the first column and row of lhs on both paths, so both are
    required.

    Both paths hold what a step applies, 2 lhs^-1, not lhs^-1: the factor
    2 of ``u+ = 2 y - u`` is folded in.  So the fields are named after the
    step, ``step_matrix`` and ``step_spectra``.

    Dense path (M < ``_TOEPLITZ_MIN_M``): ``step_matrix`` holds 2 lhs^-1,
    expanded from the Gohberg-Semencul generators that ``_setups`` checked
    and refined (see the module docstring) and doubled, ``lhs`` and ``B``
    the dense matrices expanded from ``column`` and ``row``, and
    ``step_spectra`` is None.  The system holds three m x m arrays.

    Toeplitz path (M >= ``_TOEPLITZ_MIN_M``): ``step_matrix``, ``lhs``
    and ``B`` are None, and ``step_spectra`` holds the FFT spectra of the
    Gohberg-Semencul factors, the lower ones doubled, so that
    ``_gohberg_semencul_solve`` with them applies 2 lhs^-1; everything
    held is O(M).

    :func:`step` reads only ``step_matrix`` or ``step_spectra``, ``tau``,
    ``x_interior`` and ``problem.source``; the rest is kept for checks.
    """

    step_matrix: Optional[np.ndarray]
    lhs: Optional[np.ndarray]
    B: Optional[np.ndarray]
    grid: GridSpec1D
    tau: float
    problem: AdvectionDiffusionProblem
    x_interior: np.ndarray
    column: np.ndarray
    row: np.ndarray
    step_spectra: Optional[tuple] = None


class _Stack(NamedTuple):
    """Systems on one grid and one time step, to be marched in lock step:
    what :func:`step` and :func:`_march` read of a ``SteppingSystem``,
    with the cells on a leading axis.  ``step_matrix`` is (cells, m, m),
    each 2 lhs^-1, below ``_TOEPLITZ_MIN_M`` and ``step_spectra`` holds two
    (cells, 2, n/2 + 1) arrays, the lower ones doubled, from there on.
    In place of a per-level source, ``forcing(x, times)`` returns the
    (cells, len(times), len(x)) forcing at many times, which
    :func:`_march` samples once per block of levels."""

    step_matrix: Optional[np.ndarray]
    step_spectra: Optional[tuple]
    tau: float
    x_interior: np.ndarray
    forcing: Callable[[np.ndarray, list], np.ndarray]


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
    there on.  It finishes the one-cell case of ``_setups``, which checks
    and refines the generators: ``_step_operator`` turns them into what a
    step applies.

    Raises SizeLimitError before any work when M exceeds
    ``_TOEPLITZ_MAX_M`` or N exceeds ``_MAX_COUNT``, and
    SingularMatrixError when the generator recursion breaks down or the
    generators fail their residual check.
    """
    ((problem, grid, tau, column, row, generators),) = _setups([(problem, N)], M)
    x_interior = grid.nodes()[1:M]
    step_matrix, step_spectra = _step_operator(generators, M)
    if step_spectra is not None:
        return SteppingSystem(
            None, None, None, grid, tau, problem, x_interior, column, row, step_spectra
        )
    lhs = _toeplitz(column, row)
    # 2 - lhs_ii is exact for 1 <= lhs_ii < 2**53, so lhs + B = 2I bit for bit
    B = np.negative(lhs)
    np.fill_diagonal(B, 2.0 - column[0])
    return SteppingSystem(step_matrix, lhs, B, grid, tau, problem, x_interior, column, row)


class _Setup(NamedTuple):
    """One system of ``_setups``: its problem and time step on the grid,
    the first column and row of its lhs, and its Levinson-Trench
    generators, checked and refined.  (A named tuple: a frozen dataclass
    costs about 0.5 ms more at import.)"""

    problem: AdvectionDiffusionProblem
    grid: GridSpec1D
    tau: float
    column: np.ndarray
    row: np.ndarray
    generators: np.ndarray


def _setups(cells: list, M: int) -> list:
    """One ``_Setup`` per ``(problem, N)`` in ``cells``, all on M intervals.

    The Riesz column is computed once per distinct (alpha, domain).  For
    two or more systems one recursion over the stack gives every generator
    pair (``_stacked_levinson_generators``); a lone system runs
    ``_levinson_generators``.  Both give the same bits, and each pair is
    checked and refined in place (``_checked_generators``).  Raises as
    ``assemble_system`` does: before any work for a bad size, and
    SingularMatrixError for a breakdown or a pair that fails its check.
    """
    if M < 4:
        raise DomainError(f"solver requires M >= 4, got M={M}")
    for _, N in cells:
        if N < 1:
            raise DomainError(f"solver requires N >= 1, got N={N}")
        if N > _MAX_COUNT:
            raise SizeLimitError(f"N={N} exceeds the cap of {_MAX_COUNT} time steps")
    if M > _TOEPLITZ_MAX_M:
        raise SizeLimitError(
            f"M={M} exceeds {_TOEPLITZ_MAX_M}: the Toeplitz setup (Levinson "
            "recursion) is quadratic in M, about 25 s at M=100000"
        )
    # the columns are stored reversed, as the stacked recursion reads them,
    # which saves it a copy; every other reader gets the reversed view
    reversed_columns = np.empty((len(cells), M - 1))
    rows = np.empty_like(reversed_columns)
    columns = reversed_columns[:, ::-1]
    riesz = {}
    parts = []
    for (problem, N), column, row in zip(cells, columns, rows):
        key = (problem.alpha, problem.domain)
        if key not in riesz:
            grid = GridSpec1D(*problem.domain, M)
            riesz[key] = grid, _riesz_column(problem.alpha, 2, grid)
        grid, riesz_column = riesz[key]
        parts.append((problem, grid, problem.T / N))
        _lhs_column_row(problem, grid, problem.T / N, riesz_column, column, row)
    if len(cells) > 1:
        generators = _stacked_levinson_generators(reversed_columns, rows)
    else:
        generators = map(_levinson_generators, columns, rows)
    return [
        _Setup(*part, column, row, _checked_generators(column, row, pair))
        for part, column, row, pair in zip(parts, columns, rows, generators)
    ]


def _lhs_column_row(
    problem: AdvectionDiffusionProblem,
    grid: GridSpec1D,
    tau: float,
    riesz_column: np.ndarray,
    column: np.ndarray,
    row: np.ndarray,
) -> None:
    """Fill ``column`` and ``row`` with the first column and first row of
    lhs in O(M), from ``riesz_column = _riesz_column(problem.alpha, 2,
    grid)``; they define the matrix on both paths."""
    h = grid.h
    np.multiply(riesz_column, -problem.K_alpha, out=column)
    row[:] = column
    row[1] += problem.K * (1.0 / (2.0 * h))
    column[1] += problem.K * (-1.0 / (2.0 * h))
    column *= tau / 2.0
    row *= tau / 2.0
    column[0] += 1.0
    row[0] = column[0]


def _checked_generators(
    column: np.ndarray, row: np.ndarray, generators: np.ndarray
) -> np.ndarray:
    """Check the rows ``x = T^-1 e_0`` and ``y = T^-1 e_{m-1}`` that the
    Levinson-Trench recursion gave for the Toeplitz matrix T with this
    first column and row.  Their residual rows ``T [x y] - [e_0 e_{m-1}]``
    must not exceed ``_GENERATOR_RTOL ||T||_inf max|[x y]|`` in max norm,
    and one step of iterative refinement with them refines the rows in
    place, so a stack's pairs need no second stack; they are returned."""
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


def _stacked_levinson_generators(
    reversed_columns: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """``_levinson_generators`` of every Toeplitz matrix in a stack at once:
    row i of ``reversed_columns`` holds the first column of matrix i in
    reverse, row i of ``rows`` its first row, and entry i of the
    (cells, 2, m) result its rows x and y.

    Each order costs the scalar loop's few numpy calls for the whole
    stack instead of for one system.  Every operation is the scalar one,
    row by row, and the dot products are stacked ``np.matmul`` of
    (cells, 1, k) by (cells, k, 1), which runs numpy's dot kernel, so each
    entry is bit-equal to ``_levinson_generators`` on its system alone.
    The update's two products go into one (2, cells * m) scratch, allocated
    once and viewed at order k as contiguous (cells, k + 1) arrays: fresh
    products, up to 20 x 999 for table 2, cost about 0.1 MB of peak RSS,
    and strided (2, cells, m) windows 5% of table 2's time.  A system
    that breaks down (its running scale ends at 0 or non-finite) or whose
    generators overflow is rerun alone through ``_levinson_generators``,
    which raises its SingularMatrixError.
    """
    cells, m = rows.shape
    generators = np.zeros((cells, 2, m))
    f, b = generators[:, 0], generators[:, 1]
    f[:, 0] = b[:, -1] = 1.0
    matmul, multiply = np.matmul, np.multiply
    products = np.empty((2, cells * m))
    scale = np.ones(cells)
    pivot = reversed_columns[:, -1]
    # a broken-down system goes on with a zero or non-finite scale, which
    # leaves the others alone and is caught below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(1, m):
            scale /= pivot
            fk = f[:, : k + 1]
            bk = b[:, m - 1 - k :]
            e_f = scale * matmul(reversed_columns[:, None, m - 1 - k :], fk[:, :, None])[:, 0, 0]
            e_b = scale * matmul(rows[:, None, : k + 1], bk[:, :, None])[:, 0, 0]
            pivot = 1.0 - e_f * e_b
            shifted, product = products[:, : cells * (k + 1)].reshape(2, cells, k + 1)
            multiply(bk, e_f[:, None], out=shifted)
            bk -= multiply(fk, e_b[:, None], out=product)
            fk -= shifted
        scale /= pivot
        generators *= scale[:, None, None]
    finite = np.isfinite(generators).all(axis=(1, 2))
    for i in np.flatnonzero(~finite | ~np.isfinite(scale) | (scale == 0.0)):
        generators[i] = _levinson_generators(reversed_columns[i, ::-1], rows[i])
    return generators


def _generator_residual(
    column: np.ndarray, row: np.ndarray, generators: np.ndarray
) -> np.ndarray:
    """Rows ``lhs x - e_0`` and ``lhs y - e_{m-1}``, from an FFT product with
    the length-n circulant that embeds lhs.  It runs in long double:
    a float64 residual is as inexact as the generators and refines nothing
    (where long double is float64, the refinement gains nothing).

    The rows go through one at a time: once the spectrum of lhs is taken,
    each row is copied into the buffer that embedded lhs, and the inverse
    FFT is written back into it.  The traced peak is about 4.5 n long
    doubles (146 KiB at M = 1000, 561 KiB at 3000) against 6-8 n for both
    rows at once, with the same bits."""
    m = len(column)
    # n >= 2m: no circular wrap.  It stays a power of two, unlike
    # ``_fft_length``: these FFTs run once per setup, and the 5-smooth
    # length would save about 0.3 ms of it at M = 3000 but move the refined
    # generators, and with them the dense-path outputs (table 3,
    # ``solve --M 160``), in their last bits.
    n = 1 << (2 * m - 1).bit_length()
    embedding = np.zeros(n, dtype=np.longdouble)
    embedding[:m] = column
    embedding[n - m + 1 :] = row[:0:-1]
    lhs_spectrum = np.fft.rfft(embedding)
    residual = np.empty(generators.shape)
    for generator, unit, out in zip(generators, (0, m - 1), residual):
        embedding[:m] = generator
        embedding[m:] = 0.0
        spectrum = np.fft.rfft(embedding)
        spectrum *= lhs_spectrum
        np.fft.irfft(spectrum, n, out=embedding)
        embedding[unit] -= 1.0
        out[:] = embedding[:m]
    return residual


def _factors(generators: np.ndarray) -> tuple:
    """``(lower, upper)``: rows of ``lower`` are x and Z y, the first
    columns of the lower triangular factors, and rows of ``upper`` are J y
    and Z J x, the first rows of the upper triangular ones, stacked like
    the generators."""
    x, y = generators[..., 0, :], generators[..., 1, :]
    lower = np.zeros(generators.shape)
    lower[..., 0, :] = x
    lower[..., 1, 1:] = y[..., :-1]
    upper = np.zeros(generators.shape)
    upper[..., 0, :] = y[..., ::-1]
    upper[..., 1, 1:] = x[..., :0:-1]
    return lower, upper


def _factor_spectra(generators: np.ndarray) -> tuple:
    """``(lower, upper)``: rows of ``lower`` are the FFTs of x and Z y over
    x_0, rows of ``upper`` the conjugated FFTs of J y and Z J x
    (conjugation turns the circular convolution into the correlation that
    an upper triangular Toeplitz product is), all at length
    ``_fft_length(m)``; stacked generators give stacked spectra.  The
    division and the conjugation run in place, on the fresh spectra."""
    n = _fft_length(generators.shape[-1])
    lower, upper = (np.fft.rfft(factor, n) for factor in _factors(generators))
    lower /= generators[..., :1, :1]
    return lower, np.conj(upper, out=upper)


def _fft_length(m: int) -> int:
    """The smallest even n >= 2m of the form 2**a 3**b 5**c: the length of
    the Gohberg-Semencul FFTs for m unknowns.  n >= 2m keeps every
    product's first m entries free of circular wrap, numpy's FFT is fast
    at any 5-smooth length, and n is even so that ``_gohberg_semencul_solve``
    recovers it from the spectra's length n // 2 + 1.  At m = 2999 it is
    6000 where the next power of two is 8192, and one
    ``_gohberg_semencul_solve`` takes about 0.4 instead of 0.55 ms on a
    2-vCPU x86 machine (1.2 instead of 2.0 ms at m = 9999)."""
    best = 1 << (m - 1).bit_length()  # the smallest power of two >= m
    power5 = 1
    while power5 < best:
        power35 = power5
        while power35 < best:
            # the smallest power35 * 2**a >= m
            best = min(best, power35 << (-(-m // power35) - 1).bit_length())
            power35 *= 3
        power5 *= 5
    return 2 * best


def _step_operator(generators: np.ndarray, M: int) -> tuple:
    """``(step_matrix, step_spectra)``, what :func:`step` applies on M intervals,
    from checked and refined generators (stacked ones give stacks): below
    ``_TOEPLITZ_MIN_M`` the dense 2 lhs^-1 and None, from there on None and
    the Gohberg-Semencul spectra with the lower ones doubled.  The factor 2
    of ``u+ = 2 y - u`` is folded in place, so no second copy is held, and
    exactly, so each step keeps its bits."""
    if M >= _TOEPLITZ_MIN_M:
        lower, upper = _factor_spectra(generators)
        lower *= 2.0
        return None, (lower, upper)
    inverse = _trench_inverse(generators)
    inverse *= 2.0
    return inverse, None


def _trench_inverse(generators: np.ndarray) -> np.ndarray:
    """``lhs^-1`` as a dense array, expanded from the generators in O(m**2).

    Entry (i, j) of L(a) U(b) is the sum of ``a[i-k] b[j-k]`` over
    k <= min(i, j), so ``x_0 lhs^-1`` is the cumulative sum along each
    diagonal of ``outer(x, J y) - outer(Z y, Z J x)``: row i + 1 is row i
    shifted right plus row i + 1 of that difference.  Here x and Z y are
    divided by x_0 first.  Stacked generators give stacked inverses.
    """
    lower, upper = _factors(generators)
    lower /= generators[..., :1, :1]
    inverse = lower[..., 0, :, None] * upper[..., 0, None, :]
    # the second outer product row by row: a whole one would be a second
    # m x m temporary per cell, 0.8 MB more peak for table 3's stacks
    for i in range(inverse.shape[-1]):
        inverse[..., i, :] -= lower[..., 1, i, None] * upper[..., 1, :]
        if i:
            inverse[..., i, 1:] += inverse[..., i - 1, :-1]
    return inverse


def _gohberg_semencul_solve(spectra: tuple, b: np.ndarray) -> np.ndarray:
    """``lhs^-1 b = (1/x_0) [L(x) U(J y) - L(Z y) U(Z J x)] b`` in six real
    FFTs: one of b, two inverse and two forward for the two upper
    triangular products, and one inverse for the difference; with a
    system's stored spectra, whose lower ones are doubled, it is
    ``2 lhs^-1 b``.  The FFTs run along the last axis, so stacked spectra
    solve a (cells, m) stack."""
    lower, upper = spectra
    n = 2 * (lower.shape[-1] - 1)
    m = b.shape[-1]
    products = np.fft.rfft(np.fft.irfft(upper * np.fft.rfft(b, n)[..., None, :], n)[..., :m], n)
    difference = lower[..., 0, :] * products[..., 0, :] - lower[..., 1, :] * products[..., 1, :]
    return np.fft.irfft(difference, n)[..., :m]


def step(
    system: SteppingSystem, u_k: np.ndarray, t_k: float, forcing: Optional[np.ndarray] = None
) -> np.ndarray:
    """Advance interior values one time level, sampling
    ``system.problem.source`` at the half level t_k + tau/2: ``2 y - u_k``
    with ``lhs y = u_k + (tau/2) f``, as one product with the stored
    ``2 lhs^-1`` and one subtraction.  ``forcing``, if given, is that
    ``(tau/2) f``, already sampled, and the source is not called; this is
    how :func:`_march` feeds a ``_Stack``, whose ``u_k`` and forcing are
    (cells, m), and each row gets the bits of its cell's own step."""
    if forcing is None:
        half = system.tau / 2.0
        forcing = half * np.asarray(system.problem.source(system.x_interior, t_k + half), float)
    v = u_k + forcing
    if system.step_spectra is not None:
        return _gohberg_semencul_solve(system.step_spectra, v) - u_k
    return np.matmul(system.step_matrix, v[..., None])[..., 0] - u_k


def _march(system: SteppingSystem, u: np.ndarray, N: int):
    """Advance the interior values ``u`` of level 0 through N levels with
    :func:`step` and yield ``(k, block)`` for all N + 1 levels, level 0
    first, where row i of ``block`` holds level k + i with zero boundary
    values (M + 1 values).  Every block but the last is full and holds at
    most ``_BLOCK_BYTES`` (at least one level).  ``block`` is a view of
    one buffer that the next block overwrites, and the caller may
    overwrite its interior values too; the last block yielded stays as the
    caller left it.

    A ``_Stack`` marches its (cells, m) ``u`` with one :func:`step` per
    level, and ``block`` is then (cells, levels, M + 1).  Its forcing is
    sampled once per block, ``(tau/2) forcing(x, times)`` at the half
    levels of the block's steps, and each :func:`step` gets its level's
    row, so only one block of forcing is held whatever N is.

    Raises DomainError, in place of yielding it, for a block whose last
    level is not finite, naming the time of the block's first level that
    is not finite in any cell, so every level yielded is finite.
    ``2 y - u`` keeps every NaN or inf of ``u``, and both solvers spread
    one from the right-hand side to all of ``y`` (the dense path through
    its product with the full inverse, the Toeplitz path through its FFTs,
    which mix every entry), so a non-finite level makes every later one
    non-finite and checking the last level of each block covers the
    block."""
    tau = system.tau
    cells = u.shape[:-1]
    width = u.shape[-1] + 2
    rows = max(1, min(N + 1, _BLOCK_BYTES // (8 * width * math.prod(cells))))
    # np.empty with zeroed boundary columns: a np.zeros buffer left
    # ``solve --M 1000 --N 1000 --keep all`` 0.3-0.4 MB higher in peak RSS
    buffer = np.empty((*cells, rows, width))
    buffer[..., [0, -1]] = 0.0
    stacked = isinstance(system, _Stack)
    for k in range(N + 1):
        i = k % rows
        buffer[..., i, 1:-1] = u
        if i == rows - 1 or k == N:
            block = buffer[..., : i + 1, :]
            if not np.all(np.isfinite(u)):
                finite = np.isfinite(block).all(axis=-1).reshape(-1, i + 1).all(axis=0)
                first = k - i + int(np.argmin(finite))
                raise DomainError(
                    f"solution is not finite at t={first * tau!r}; the source or "
                    "the initial data produced NaN or inf"
                )
            yield k - i, block
        if k < N:
            if stacked and i == 0:
                times = [j * tau + tau / 2.0 for j in range(k, min(k + rows, N))]
                forcing = tau / 2.0 * system.forcing(system.x_interior, times)
            u = step(system, u, k * tau, forcing[..., i, :] if stacked else None)


def _initial_data(problem: AdvectionDiffusionProblem, nodes: np.ndarray) -> np.ndarray:
    """``problem.initial`` at the interior ``nodes``; DomainError if any
    value is not finite."""
    u = np.asarray(problem.initial(nodes), dtype=float)[1:-1]
    if not np.all(np.isfinite(u)):
        raise DomainError("initial data is not finite")
    return u


def _levels(problem: AdvectionDiffusionProblem, M: int, N: int, keep: str = "final"):
    """Assemble the system for ``problem`` and return it with the
    :func:`_march` of its sampled initial data: an iterator over all N + 1
    levels in blocks, level 0 first.  The assembly runs here, so its
    errors come before any level; initial data that is not finite is a
    DomainError.  ``keep`` is what the caller retains, "final" or "all"
    (else DomainError); for "all", an (N+1) x (M+1) array beyond physical
    memory is a SizeLimitError before anything is assembled."""
    if keep not in ("all", "final"):
        raise DomainError(f"keep must be 'all' or 'final', got {keep!r}")
    if keep == "all":
        _check_all_levels_fit(M, N)
    system = assemble_system(problem, M, N)
    return system, _march(system, _initial_data(problem, system.grid.nodes()), N)


def _stacked_levels(setups: list, forcing: Callable, N: int):
    """``_levels`` of the ``_setups`` entries ``setups``, which share one
    grid and one time step, in lock step: their ``_Stack``, with
    ``forcing`` as its block forcing, and the :func:`_march` of their
    stacked initial data.  The entries' generators, which ``_setups``
    checked and refined, go into one stack; no cell builds lhs or B."""
    grid, tau = setups[0].grid, setups[0].tau
    step_matrix, step_spectra = _step_operator(np.stack([s.generators for s in setups]), grid.M)
    nodes = grid.nodes()
    system = _Stack(step_matrix, step_spectra, tau, nodes[1 : grid.M], forcing)
    return system, _march(system, np.stack([_initial_data(s.problem, nodes) for s in setups]), N)


def solve(
    problem: AdvectionDiffusionProblem, M: int, N: int, keep: str = "final"
) -> SolutionGrid:
    """Run N Crank-Nicolson steps from the sampled initial data, through
    ``_levels``.

    ``keep="all"`` retains every time level (for error surfaces) in one
    (N+1) x (M+1) array, filled block by block; ``keep="final"`` retains
    only t = T to bound memory.  ``_levels`` refuses any other ``keep``
    with DomainError and, before assembling anything, a ``keep="all"``
    array beyond the machine's physical memory with SizeLimitError.
    """
    system, blocks = _levels(problem, M, N, keep)
    levels = np.arange(N + 1) if keep == "all" else np.array([N])
    snapshots = np.empty((len(levels), M + 1))
    for k, block in blocks:
        if keep == "all":
            snapshots[k : k + len(block)] = block
    snapshots[-1] = block[-1]
    return SolutionGrid(system.grid, system.tau, N, system.tau * levels, snapshots)


def grid_norm(values: np.ndarray, h: float) -> float:
    """Discrete L2 norm ``sqrt(h sum u_j**2)`` over interior values."""
    values = np.asarray(values, dtype=float)
    return float(np.sqrt(h * np.sum(values * values)))
