"""Fractional difference operators on uniform 1D grids.

Applies left/right shifted fractional differences and their symmetric
Riesz combination to grid functions with homogeneous Dirichlet data,
assembles the dense Toeplitz operator matrix, and evaluates the Toeplitz
generating symbol used to certify negative semi-definiteness of the
discrete operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, toeplitz

from .coeffs import CoefficientTable, _grows, kappa_polynomial, kappa_weights
from .errors import DomainError, SizeLimitError, TableError

__all__ = [
    "GridSpec1D",
    "GridFunction",
    "riesz_constant",
    "left_apply",
    "right_apply",
    "riesz_apply",
    "point_riesz_derivative",
    "assemble_galpha",
    "riesz_matrix",
    "generating_symbol",
    "spectral_bounds",
]


@dataclass(frozen=True)
class GridSpec1D:
    """Uniform grid x_j = a + j*h, j = 0..M, with h = (b - a)/M."""

    a: float
    b: float
    M: int

    def __post_init__(self) -> None:
        if self.b <= self.a:
            raise DomainError(f"grid requires b > a, got a={self.a}, b={self.b}")
        if self.M < 4:
            raise DomainError(f"grid requires M >= 4, got M={self.M}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.M

    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(self.M + 1)


@dataclass(frozen=True)
class GridFunction:
    """Values of a function on a uniform grid, zero at both boundaries
    when used as operator input (homogeneous Dirichlet convention)."""

    grid: GridSpec1D
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.values) != self.grid.M + 1:
            raise DomainError(
                f"grid function needs M+1={self.grid.M + 1} values, "
                f"got {len(self.values)}"
            )


def riesz_constant(alpha: float) -> float:
    """The combination constant C_alpha = -1/(2 cos(pi alpha / 2))."""
    return -1.0 / (2.0 * math.cos(math.pi * alpha / 2.0))


def _check_table_length(table: CoefficientTable, M: int) -> None:
    if len(table.values) < M + 1:
        raise TableError(
            f"coefficient table of length {len(table.values)} is too short "
            f"for a grid with M={M} (need at least {M + 1} entries)"
        )


def _left_interior(
    values: np.ndarray, w: np.ndarray, M: int, h: float, alpha: float
) -> np.ndarray:
    """Interior entries j = 1..M-1 of the left difference shifted by one."""
    conv = np.convolve(w[: M + 1], values)
    return h ** (-alpha) * conv[2 : M + 1]


def left_apply(u: GridFunction, table: CoefficientTable) -> GridFunction:
    """Left fractional difference shifted by one node:
    ``h**(-alpha) sum_{ell=0..j+1} w_ell u_{j-ell+1}`` at interior nodes,
    zero at the boundaries.  The shift is fixed at 1: the alpha-th power of
    a kappa generating polynomial approximates ``z (-log z)**alpha``, and
    only the shifted difference cancels that factor z (unshifted, the kappa
    operators drop to first order)."""
    M = u.grid.M
    _check_table_length(table, M)
    out = np.zeros(M + 1)
    out[1:M] = _left_interior(u.values, table.values, M, u.grid.h, table.alpha)
    return GridFunction(u.grid, out)


def right_apply(u: GridFunction, table: CoefficientTable) -> GridFunction:
    """Right fractional difference, the mirror image of :func:`left_apply`:
    ``h**(-alpha) sum_{ell=0..M-j+1} w_ell u_{j+ell-1}``."""
    M = u.grid.M
    _check_table_length(table, M)
    out = np.zeros(M + 1)
    interior = _left_interior(u.values[::-1], table.values, M, u.grid.h, table.alpha)
    out[1:M] = interior[::-1]
    return GridFunction(u.grid, out)


def _operator_weights(p: int, alpha: float, M: int) -> CoefficientTable:
    """Kappa weights 0..M for an operator; a (p, alpha) whose weights grow
    geometrically is refused before any weight is computed."""
    if _grows(kappa_polynomial(p, alpha)):
        raise DomainError(
            f"kappa weights for p={p}, alpha={alpha} grow geometrically: the "
            "generating polynomial has a root inside the closed unit disk"
        )
    return kappa_weights(p, alpha, M)


def riesz_apply(u: GridFunction, alpha: float, p: int) -> GridFunction:
    """Order-p Riesz fractional derivative approximation:
    ``C_alpha (left + right)`` with the kappa weights."""
    if not 1.0 < alpha < 2.0:
        raise DomainError(f"riesz operator requires alpha in (1, 2), got {alpha}")
    table = _operator_weights(p, alpha, u.grid.M)
    left = left_apply(u, table)
    right = right_apply(u, table)
    values = riesz_constant(alpha) * (left.values + right.values)
    return GridFunction(u.grid, values)


def point_riesz_derivative(u: GridFunction, alpha: float, p: int, j: int) -> float:
    """Single interior entry of :func:`riesz_apply` without materializing
    the full result."""
    if not 1.0 < alpha < 2.0:
        raise DomainError(f"riesz operator requires alpha in (1, 2), got {alpha}")
    M = u.grid.M
    if not 1 <= j <= M - 1:
        raise DomainError(f"index j={j} outside the interior range 1..{M - 1}")
    w = _operator_weights(p, alpha, M).values
    v = u.values
    left = np.dot(w[: j + 2], v[j + 1 :: -1])
    right = np.dot(w[: M - j + 2], v[j - 1 :])
    return riesz_constant(alpha) * u.grid.h ** (-alpha) * (left + right)


def assemble_galpha(alpha: float, p: int, M: int) -> np.ndarray:
    """Lower-Hessenberg Toeplitz matrix with entry (i, j) = kappa_{i-j+1}
    over the M-1 interior nodes (first superdiagonal kappa_0)."""
    if M < 4:
        raise DomainError(f"assembly requires M >= 4, got M={M}")
    k = _operator_weights(p, alpha, M).values
    first_col = k[1:M]
    first_row = np.zeros(M - 1)
    first_row[0] = k[1]
    first_row[1] = k[0]
    return toeplitz(first_col, first_row)


def riesz_matrix(alpha: float, p: int, grid: GridSpec1D) -> np.ndarray:
    """Dense interior-node Riesz operator matrix C_alpha h**(-alpha) (G + G^T).

    ``alpha = 2`` is admitted: the p = 2 kappa weights then reduce to the
    classical second difference exactly.  At most two m x m arrays are
    alive at once.
    """
    if not 1.0 < alpha <= 2.0:
        raise DomainError(f"riesz matrix requires alpha in (1, 2], got {alpha}")
    g = assemble_galpha(alpha, p, grid.M)
    entries = g + g.T
    entries *= riesz_constant(alpha) * grid.h ** (-alpha)
    return entries


def generating_symbol(alpha: float, x):
    """Generating symbol f(alpha, x) of the Toeplitz matrix G + G^T for
    the p = 2 kappa weights, evaluated through its factored
    magnitude/phase form.

    The symbol is even in x, vanishes at x = 0, and is nonpositive on
    [-pi, pi] for every alpha in (1, 2), which is what certifies negative
    semi-definiteness of the operator matrix.
    """
    if not 1.0 < alpha < 2.0:
        raise DomainError(f"generating symbol requires alpha in (1, 2), got {alpha}")
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


def spectral_bounds(alpha: float, p: int, M: int) -> tuple[float, float]:
    """Extreme eigenvalues of G + G^T by dense symmetric eigensolve."""
    if M > 512:
        raise SizeLimitError(f"dense eigensolve limited to M <= 512, got M={M}")
    g = assemble_galpha(alpha, p, M)
    eigs = eigh(g + g.T, eigvals_only=True)
    return float(eigs[0]), float(eigs[-1])
