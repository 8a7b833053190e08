"""Exception hierarchy shared by all modules.

Every library-level failure derives from :class:`NumericsError`, itself a
``ValueError``, so callers (and the CLI) can catch one base type and map it
to a single exit code while plain programming errors still surface as-is.
"""

from __future__ import annotations

__all__ = [
    "NumericsError",
    "DomainError",
    "UnsupportedOrderError",
    "SeriesError",
    "TableError",
    "SizeLimitError",
    "SingularMatrixError",
]


class NumericsError(ValueError):
    """Base class for all anticipated numerical-domain failures."""


class DomainError(NumericsError):
    """An argument lies outside the mathematically valid domain."""


class UnsupportedOrderError(NumericsError):
    """The requested approximation order has no closed-form construction."""


class SeriesError(NumericsError):
    """A truncated power-series operation cannot proceed (bad leading
    coefficient or truncation order)."""


class TableError(NumericsError):
    """A coefficient table is unusable for the requested operation
    (typically: too short for the grid)."""


class SizeLimitError(NumericsError):
    """A size limit was exceeded: memory for a kept-levels array, the
    quadratic time of the Toeplitz setup, or a grid, weight or sample
    count cap."""


class SingularMatrixError(NumericsError):
    """The Toeplitz generator recursion broke down, or its result failed
    its residual check; for the Crank-Nicolson system this indicates an
    internal invariant violation rather than bad input."""
