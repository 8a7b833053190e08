"""Fractional difference operators on uniform 1D grids.

Applies left/right shifted fractional differences and their symmetric
Riesz combination to node values with homogeneous Dirichlet data,
assembles the dense Toeplitz operator matrix, and evaluates its
generating symbol, for every order p, from the generating polynomial that
defines the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import _MAX_COUNT, CoefficientTable, _circle_power, _decaying_polynomial, kappa_weights
from .errors import DomainError, SizeLimitError, TableError

__all__ = [
    "GridSpec1D",
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
    """Uniform grid x_j = a + j*h, j = 0..M, with h = (b - a)/M; M above
    ``coeffs._MAX_COUNT``, the cap of its weights 0..M, is refused before
    any node array or weight exists."""

    a: float
    b: float
    M: int

    def __post_init__(self) -> None:
        if self.b <= self.a:
            raise DomainError(f"grid requires b > a, got a={self.a}, b={self.b}")
        if self.M < 4:
            raise DomainError(f"grid requires M >= 4, got M={self.M}")
        if self.M > _MAX_COUNT:
            raise SizeLimitError(f"grid M={self.M} exceeds the cap of {_MAX_COUNT} intervals")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.M

    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(self.M + 1)


def riesz_constant(alpha: float) -> float:
    """The combination constant C_alpha = -1/(2 cos(pi alpha / 2))."""
    return -1.0 / (2.0 * math.cos(math.pi * alpha / 2.0))


def _check_operand(u: np.ndarray, grid: GridSpec1D, table: CoefficientTable) -> None:
    n = grid.M + 1
    if len(u) != n:
        raise DomainError(f"operator input needs M+1={n} node values, got {len(u)}")
    if len(table.values) < n:
        raise TableError(f"{len(table.values)} weights are too few for M={grid.M}; need {n}")


def left_apply(u: np.ndarray, grid: GridSpec1D, table: CoefficientTable) -> np.ndarray:
    """Left fractional difference shifted by one node:
    ``h**(-alpha) sum_{ell=0..j+1} w_ell u_{j-ell+1}`` at interior nodes,
    zero at the boundaries.  The shift is fixed at 1: the alpha-th power of
    a kappa generating polynomial approximates ``z (-log z)**alpha``, and
    only the shifted difference cancels that factor z (unshifted, the kappa
    operators drop to first order)."""
    _check_operand(u, grid, table)
    M = grid.M
    out = np.zeros(M + 1)
    out[1:M] = grid.h ** (-table.alpha) * np.convolve(table.values[: M + 1], u)[2 : M + 1]
    return out


def right_apply(u: np.ndarray, grid: GridSpec1D, table: CoefficientTable) -> np.ndarray:
    """Right fractional difference ``h**(-alpha) sum_{ell=0..M-j+1} w_ell u_{j+ell-1}``:
    the left difference of the mirrored node values, mirrored back."""
    return left_apply(u[::-1], grid, table)[::-1]


def _operator_weights(p: int, alpha: float, M: int) -> CoefficientTable:
    """Kappa weights 0..M for an operator, refused before any weight is
    computed when they do not decay."""
    _decaying_polynomial(p, alpha)
    return kappa_weights(p, alpha, M)


def riesz_apply(u: np.ndarray, grid: GridSpec1D, alpha: float, p: int) -> np.ndarray:
    """Order-p Riesz fractional derivative approximation:
    ``C_alpha (left + right)`` with the kappa weights."""
    table = _operator_weights(p, alpha, grid.M)
    return riesz_constant(alpha) * (left_apply(u, grid, table) + right_apply(u, grid, table))


def point_riesz_derivative(u: np.ndarray, grid: GridSpec1D, alpha: float, p: int, j: int) -> float:
    """Single interior entry of :func:`riesz_apply` without materializing
    the full result."""
    M = grid.M
    if not 1 <= j <= M - 1:
        raise DomainError(f"index j={j} outside the interior range 1..{M - 1}")
    table = _operator_weights(p, alpha, M)
    _check_operand(u, grid, table)
    w = table.values
    left = np.dot(w[: j + 2], u[j + 1 :: -1])
    right = np.dot(w[: M - j + 2], u[j - 1 :])
    return riesz_constant(alpha) * grid.h ** (-alpha) * (left + right)


def _toeplitz(column: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The matrix with entries ``column[i - j]`` on and below the diagonal
    and ``row[j - i]`` above it (``row[0]`` is not read): row i is the
    reversed length-len(row) window of ``[row[:0:-1], column]`` at i."""
    values = np.concatenate((row[:0:-1], column))
    return np.lib.stride_tricks.sliding_window_view(values, len(row))[:, ::-1].copy()


def assemble_galpha(alpha: float, p: int, M: int) -> np.ndarray:
    """Lower-Hessenberg Toeplitz matrix with entry (i, j) = kappa_{i-j+1}
    over the M-1 interior nodes (first superdiagonal kappa_0)."""
    if M < 4:
        raise DomainError(f"assembly requires M >= 4, got M={M}")
    k = _operator_weights(p, alpha, M).values
    first_row = np.zeros(M - 1)
    first_row[:2] = k[1], k[0]
    return _toeplitz(k[1:M], first_row)


def _riesz_column(alpha: float, p: int, grid: GridSpec1D) -> np.ndarray:
    """First column of :func:`riesz_matrix`, in O(M): the matrix is
    symmetric Toeplitz, with entry d of this column on its d-th sub- and
    superdiagonals.  ``kappa_polynomial`` refuses an alpha outside (1, 2]."""
    k = _operator_weights(p, alpha, grid.M).values
    # entry (d, 0) of G + G^T is kappa_{d+1} plus the first row of G
    column = k[1 : grid.M].copy()
    column[0] += k[1]
    column[1] += k[0]
    column *= riesz_constant(alpha) * grid.h ** (-alpha)
    return column


def riesz_matrix(alpha: float, p: int, grid: GridSpec1D) -> np.ndarray:
    """Dense interior-node Riesz operator matrix C_alpha h**(-alpha) (G + G^T).

    Only the result is an m x m array; it is expanded from
    :func:`_riesz_column`.
    """
    column = _riesz_column(alpha, p, grid)
    return _toeplitz(column, column)


def generating_symbol(alpha: float, x, p: int = 2):
    """Generating symbol ``2 Re(e**(-ix) W(e**(ix))**alpha)`` of G + G^T for
    the order-p kappa weights, ``W = kappa_polynomial(p, alpha)``.

    It is even in x and exactly 0 at x = 0, and every eigenvalue of G + G^T
    lies between its extremes, so a nonpositive symbol (every alpha for
    p = 2) certifies that the operator is negative semi-definite.  Growing
    weights are refused, as in :func:`riesz_apply`.
    """
    a = _decaying_polynomial(p, alpha)
    z = np.exp(1j * np.asarray(x, dtype=float))
    out = 2.0 * np.real(np.conj(z) * _circle_power(a, alpha, np.atleast_1d(z)))
    return out if z.ndim else float(out[0])


def spectral_bounds(alpha: float, p: int, M: int) -> tuple[float, float]:
    """Extreme eigenvalues of G + G^T by dense symmetric eigensolve."""
    if M > 512:
        raise SizeLimitError(f"dense eigensolve limited to M <= 512, got M={M}")
    g = assemble_galpha(alpha, p, M)
    eigs = np.linalg.eigvalsh(g + g.T)
    return float(eigs[0]), float(eigs[-1])
