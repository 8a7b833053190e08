"""Crank-Nicolson solver for the 1D Riesz fractional advection-diffusion
equation ``u_t + K u_x = K_alpha d^alpha u / d|x|^alpha + f`` with
homogeneous Dirichlet boundaries.

The implicit matrix is time-independent, so it is LU-factorized once and
the factorization is reused across every time step.  Because the explicit
matrix is ``B = 2I - lhs``, a step needs only one triangular solve pair on
those factors and no matrix-vector product:
``u+ = 2 y - u`` with ``lhs y = u + (tau/2) f``.  The scheme is
unconditionally stable and second-order accurate in both the time step
and the mesh size.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import LinAlgError, lu_factor
from scipy.linalg.lapack import dgetrs

from .errors import DomainError, SingularMatrixError, SizeLimitError
from .operators import GridSpec1D, riesz_matrix

__all__ = [
    "AdvectionDiffusionProblem",
    "SolutionGrid",
    "SteppingSystem",
    "assemble_system",
    "step",
    "solve",
    "grid_norm",
]

# m x m float64 arrays alive at once while assembling: lhs, B and the LU
# copy of lhs at the end (riesz_matrix holds two of them before that)
_ASSEMBLY_PEAK_ARRAYS = 3


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
    """One-time factorization of the implicit Crank-Nicolson system.

    ``lhs = I + (tau/2)(K C - K_alpha R)`` and
    ``B = I - (tau/2)(K C - K_alpha R)``, where C is the central
    difference matrix and R the Riesz operator matrix; lhs + B = 2I.
    :func:`step` reads only ``lu``; ``lhs`` and ``B`` are kept for checks.
    Assembly holds three m x m arrays at its peak (m = M - 1).
    """

    lu: tuple
    lhs: np.ndarray
    B: np.ndarray
    grid: GridSpec1D
    tau: float
    problem: AdvectionDiffusionProblem
    x_interior: np.ndarray


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def assemble_system(
    problem: AdvectionDiffusionProblem, M: int, N: int
) -> SteppingSystem:
    """Build and factorize the Crank-Nicolson stepping system.

    Raises SizeLimitError, before allocating, when the dense assembly
    would need more than the machine's physical memory.
    """
    if M < 4:
        raise DomainError(f"solver requires M >= 4, got M={M}")
    if N < 1:
        raise DomainError(f"solver requires N >= 1, got N={N}")
    m = M - 1
    needed = _ASSEMBLY_PEAK_ARRAYS * m * m * 8
    available = _physical_memory_bytes()
    if needed > available:
        raise SizeLimitError(
            f"dense assembly at M={M} needs about {needed} bytes, more than "
            f"the {available} bytes of physical memory"
        )
    a, b = problem.domain
    grid = GridSpec1D(a, b, M)
    tau = problem.T / N
    h = grid.h

    # half_a = (tau/2)(K C - K_alpha R) is built in R's buffer, with the
    # same rounding as forming it from dense matrices; C has two bands
    stride = m + 1  # flat step along one diagonal
    half_a = riesz_matrix(problem.alpha, 2, grid).entries
    np.multiply(half_a, -problem.K_alpha, out=half_a)
    half_a.flat[1::stride] += problem.K * (1.0 / (2.0 * h))
    half_a.flat[m::stride] += problem.K * (-1.0 / (2.0 * h))
    half_a *= tau / 2.0

    B = np.negative(half_a)
    B.flat[::stride] = 1.0 - half_a.flat[::stride]
    lhs = half_a
    lhs.flat[::stride] += 1.0
    try:
        lu = lu_factor(lhs)
    except LinAlgError as exc:  # unreachable for valid alpha; internal invariant
        raise SingularMatrixError(f"stepping matrix factorization failed: {exc}")
    x_interior = grid.nodes()[1:M]
    return SteppingSystem(lu, lhs, B, grid, tau, problem, x_interior)


def step(system: SteppingSystem, u_k: np.ndarray, t_k: float) -> np.ndarray:
    """Advance interior values one time level, sampling the source at the
    half level t_k + tau/2: ``2 y - u_k`` with ``lhs y = u_k + (tau/2) f``."""
    half = system.tau / 2.0
    f = np.asarray(system.problem.source(system.x_interior, t_k + half), dtype=float)
    lu, piv = system.lu
    y, info = dgetrs(lu, piv, u_k + half * f, overwrite_b=True)
    if info != 0:  # only an illegal argument sets it; internal invariant
        raise SingularMatrixError(f"LAPACK getrs failed with info={info}")
    return 2.0 * y - u_k


def _require_finite(u: np.ndarray, t: float) -> None:
    """``2 y - u`` keeps every NaN or inf of ``u``, and the dense factors
    spread one from the right-hand side, so checking the final level
    covers the whole run."""
    if not np.all(np.isfinite(u)):
        raise DomainError(
            f"solution is not finite at t={t!r}; the source or the initial "
            "data produced NaN or inf"
        )


def solve(
    problem: AdvectionDiffusionProblem, M: int, N: int, keep: str = "final"
) -> SolutionGrid:
    """Run N Crank-Nicolson steps from the sampled initial data.

    ``keep="all"`` retains every time level (for error surfaces) in one
    (N+1) x (M+1) array, filled in place; ``keep="final"`` retains only
    t = T to bound memory.
    """
    if keep not in ("all", "final"):
        raise DomainError(f"keep must be 'all' or 'final', got {keep!r}")
    system = assemble_system(problem, M, N)
    grid = system.grid
    tau = system.tau
    u = np.asarray(problem.initial(grid.nodes()), dtype=float)[1:M]
    levels = np.arange(N + 1) if keep == "all" else np.array([N])
    snapshots = np.zeros((len(levels), M + 1))
    interior = snapshots[:, 1:M]
    interior[0] = u  # with keep="final" the final level overwrites it
    for k in range(N):
        u = step(system, u, k * tau)
        if keep == "all":
            interior[k + 1] = u
    _require_finite(u, N * tau)
    interior[-1] = u
    return SolutionGrid(grid, tau, N, tau * levels, snapshots)


def grid_norm(values: np.ndarray, h: float) -> float:
    """Discrete L2 norm ``sqrt(h sum u_j**2)`` over interior values."""
    values = np.asarray(values, dtype=float)
    return float(np.sqrt(h * np.sum(values * values)))
