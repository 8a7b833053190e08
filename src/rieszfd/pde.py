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
  FFTs with O(M) memory.  Their length is the smallest even
  ``2**a 3**b 5**c`` at or above 2(M - 1), not the next power of two,
  which can be almost twice that: 6000 at M = 3000, not 8192.

A failed setup raises SingularMatrixError.  The module needs only numpy.

Systems on one M can share their setup: the private ``_setups`` builds
the column and row of each (the Riesz column once per alpha) and, for
two or more systems, runs one Levinson-Trench recursion over their
(systems, m) stack, which gives each system the bits of its own scalar
recursion.  The convergence studies set up the cells of each grid this
way.  A lone system (``assemble_system``, every solve) keeps the scalar
loop, which is twice as fast for one system: 19 vs 35 ms at M = 3000 and
5.3 vs 11 ms at M = 1000 on a 2-vCPU x86 machine.

Systems that also share the time step can march in lock step:
``_stacked_levels`` checks and refines each one's generators into one
(cells, m, m) stack of inverses or (cells, 2, n/2 + 1) stack of spectra,
a ``_Stack``, and :func:`step` advances a (cells, m) state with one
stacked product or one set of FFTs along the last axis, each row bit for
bit its cell's own step.  The convergence studies march each group of
cells with one (M, N) this way; a lone system is the one-cell case and
keeps its ``SteppingSystem``.

Every run goes through one stepping loop, the private generator
``_march``: it calls :func:`step` once per level and hands the levels,
level 0 first and zero boundary values included, over in blocks of at
most ``_BLOCK_BYTES``, so :func:`solve`, the convergence studies and the
CLI's CSV writer reduce, copy or format many levels per numpy call.
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
# level).  The CLI formats each block in one call, so this also sets the
# CSV rows per call: about 8192 (eight ``_g17.BLOCK_ROWS`` writes, of which
# only the last is short).  Larger blocks cost peak memory and gain
# nothing: with 256 KiB blocks the table-3 study took as long and 0.7 MB
# more peak RSS, and with 128 KiB ``solve --M 1000 --N 1000 --keep all``
# peaked about 1.1 MB higher.
_BLOCK_BYTES = 64 * 1024

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

    :func:`step` reads only ``inverse`` or ``spectra``, ``tau``,
    ``x_interior`` and ``source``; the rest is kept for checks.
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

    @property
    def source(self) -> Callable[[np.ndarray, float], np.ndarray]:
        """``problem.source``, which :func:`step` samples."""
        return self.problem.source


class _Stack(NamedTuple):
    """Systems on one grid and one time step, to be marched in lock step:
    what :func:`step` reads of a ``SteppingSystem``, with the cells on a
    leading axis.  ``inverse`` is (cells, m, m) below ``_TOEPLITZ_MIN_M``
    and ``spectra`` holds two (cells, 2, n/2 + 1) arrays from there on;
    ``source(x, t)`` returns one row of forcing per cell."""

    inverse: Optional[np.ndarray]
    spectra: Optional[tuple]
    grid: GridSpec1D
    tau: float
    x_interior: np.ndarray
    source: Callable[[np.ndarray, float], np.ndarray]


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
    there on.  It finishes the one-cell case of ``_setups``: the
    generators are checked and refined by ``_checked_generators``.

    Raises SizeLimitError before any quadratic work when M exceeds
    ``_TOEPLITZ_MAX_M``, and SingularMatrixError when the generator
    recursion breaks down or the generators fail their residual check.
    """
    ((problem, grid, tau, column, row, generators),) = _setups([(problem, N)], M)
    x_interior = grid.nodes()[1:M]
    generators = _checked_generators(column, row, generators)
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


class _Setup(NamedTuple):
    """One system of ``_setups``: its problem and time step on the grid,
    the first column and row of its lhs, and its Levinson-Trench
    generators, not yet checked.  (A named tuple: a frozen dataclass
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
    ``_levinson_generators``.  Both give the same bits.  Raises as
    ``assemble_system`` does, before any quadratic work for a bad size,
    and SingularMatrixError for a recursion that breaks down.
    """
    if M < 4:
        raise DomainError(f"solver requires M >= 4, got M={M}")
    for _, N in cells:
        if N < 1:
            raise DomainError(f"solver requires N >= 1, got N={N}")
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
        generators = [_levinson_generators(c, r) for c, r in zip(columns, rows)]
    return [
        _Setup(*part, column, row, pair)
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
    and one step of iterative refinement with them gives the rows
    returned."""
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
    return generators - [_gohberg_semencul_solve(spectra, r) for r in residual]


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
    entry is bit-equal to ``_levinson_generators`` on its system alone.  A
    system that breaks down (its running scale ends at 0 or non-finite)
    or whose generators overflow is rerun alone through
    ``_levinson_generators``, which raises its SingularMatrixError.
    """
    cells, m = rows.shape
    generators = np.zeros((cells, 2, m))
    f, b = generators[:, 0], generators[:, 1]
    f[:, 0] = b[:, -1] = 1.0
    matmul = np.matmul
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
            shifted = bk * e_f[:, None]
            bk -= fk * e_b[:, None]
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
    (where long double is float64, the refinement gains nothing)."""
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
    spectrum = np.fft.rfft(embedding) * np.fft.rfft(generators.astype(np.longdouble), n)
    product = np.fft.irfft(spectrum, n)[:, :m]
    product[0, 0] -= 1.0
    product[1, -1] -= 1.0
    return product.astype(float)


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
    ``_fft_length(m)``; stacked generators give stacked spectra."""
    lower, upper = _factors(generators)
    n = _fft_length(lower.shape[-1])
    return np.fft.rfft(lower, n) / lower[..., :1, :1], np.conj(np.fft.rfft(upper, n))


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
    triangular products, and one inverse for the difference.  The FFTs
    run along the last axis, so stacked spectra solve a (cells, m) stack."""
    lower, upper = spectra
    n = 2 * (lower.shape[-1] - 1)
    m = b.shape[-1]
    products = np.fft.rfft(np.fft.irfft(upper * np.fft.rfft(b, n)[..., None, :], n)[..., :m], n)
    difference = lower[..., 0, :] * products[..., 0, :] - lower[..., 1, :] * products[..., 1, :]
    return np.fft.irfft(difference, n)[..., :m]


def step(system: SteppingSystem, u_k: np.ndarray, t_k: float) -> np.ndarray:
    """Advance interior values one time level, sampling the source at the
    half level t_k + tau/2: ``2 y - u_k`` with ``lhs y = u_k + (tau/2) f``.
    For a ``_Stack``, ``u_k`` and the forcing are (cells, m), and each row
    gets the bits of its cell's own step."""
    half = system.tau / 2.0
    f = np.asarray(system.source(system.x_interior, t_k + half), dtype=float)
    v = u_k + half * f
    if system.spectra is not None:
        return 2.0 * _gohberg_semencul_solve(system.spectra, v) - u_k
    return 2.0 * np.matmul(system.inverse, v[..., None])[..., 0] - u_k


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
    level, and ``block`` is then (cells, levels, M + 1).

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
            u = step(system, u, k * tau)


def _initial_data(problem: AdvectionDiffusionProblem, nodes: np.ndarray) -> np.ndarray:
    """``problem.initial`` at the interior ``nodes``; DomainError if any
    value is not finite."""
    u = np.asarray(problem.initial(nodes), dtype=float)[1:-1]
    if not np.all(np.isfinite(u)):
        raise DomainError("initial data is not finite")
    return u


def _levels(problem: AdvectionDiffusionProblem, M: int, N: int):
    """Assemble the system for ``problem`` and return it with the
    :func:`_march` of its sampled initial data: an iterator over all N + 1
    levels in blocks, level 0 first.  The assembly runs here, so its
    errors come before any level; initial data that is not finite is a
    DomainError."""
    system = assemble_system(problem, M, N)
    return system, _march(system, _initial_data(problem, system.grid.nodes()), N)


def _stacked_levels(setups: list, source: Callable, N: int):
    """``_levels`` of the ``_setups`` entries ``setups``, which share one
    grid and one time step, in lock step: their ``_Stack``, with
    ``source`` as its forcing, and the :func:`_march` of their stacked
    initial data.  Each entry's generators are checked and refined
    (``_checked_generators``) straight into one stack; no cell builds lhs
    or B."""
    grid, tau = setups[0].grid, setups[0].tau
    generators = np.stack([_checked_generators(s.column, s.row, s.generators) for s in setups])
    if grid.M >= _TOEPLITZ_MIN_M:
        inverse, spectra = None, _factor_spectra(generators)
    else:
        inverse, spectra = _trench_inverse(generators), None
    nodes = grid.nodes()
    system = _Stack(inverse, spectra, grid, tau, nodes[1 : grid.M], source)
    return system, _march(system, np.stack([_initial_data(s.problem, nodes) for s in setups]), N)


def solve(
    problem: AdvectionDiffusionProblem, M: int, N: int, keep: str = "final"
) -> SolutionGrid:
    """Run N Crank-Nicolson steps from the sampled initial data, through
    ``_levels``.

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
    system, blocks = _levels(problem, M, N)
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
