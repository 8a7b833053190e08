"""Benchmark problems, convergence studies, and error surfaces.

Two manufactured benchmarks drive everything: a static one (the Riesz
derivative of ``x**2 (1-x)**2`` evaluated at x = 0.5, whose exact value is
known in closed form) and a time-dependent advection-diffusion problem
with exact solution ``cos(alpha t**2) x**4 (1-x)**4``, whose forcing and
exact solution ``_example42`` writes once for any number of alphas
(``example42_problem`` is its one-alpha case).  The convergence studies
sweep resolutions, estimate observed orders, and compare both errors and
orders against stored reference values.

Every study checks each resolution and alpha before any cell runs, and a
solver study each cell's generator pair too: it sets up the cells that
share M together (``pde._setups``, which checks and refines the pairs).
Table 2's 20 cells share M = 1000 and one stacked Levinson-Trench recursion
(55-75 ms against 103-183 ms one at a time on a 2-vCPU x86 machine), and
table 3's four alphas share each M.  The cells that also share N, the four
alphas of each table-2 time step and of each table-3 mesh, form a group,
and ``_solver_error`` marches a group's setups in lock step
(``pde._stacked_levels``) under one stacked example-4.2 forcing
(``_example42``) of their problems' alphas, every cell with the bits of its
own run.  The march samples that forcing once per block of levels, for
every cell and every level of the block in one call, so a group makes no
per-level source call and holds no more forcing than one block.  The groups
run one at a time, so only one group's inverses or spectra are held at
once.  Each cell parameter is decided once: solver cells take their alphas
from their setups, and operator cells the M that the resolution check gave.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .coeffs import _MAX_COUNT, _check_alpha
from .errors import DomainError, SizeLimitError
from .operators import GridSpec1D, point_riesz_derivative
from .pde import AdvectionDiffusionProblem, _levels, _setups
from .pde import _stacked_levels
from .pde import step  # noqa: F401  unused; kept while perfbench's tests pin harness.step

__all__ = [
    "StudyRow",
    "ConvergenceReport",
    "example41_exact",
    "example42_problem",
    "convergence_study",
    "error_surface",
    "TABLE1_ALPHAS",
    "TABLE1_RESOLUTIONS",
    "TABLE2_ALPHAS",
    "TABLE2_RESOLUTIONS",
    "TABLE3_ALPHAS",
    "TABLE3_RESOLUTIONS",
]


@dataclass(frozen=True)
class StudyRow:
    """One (alpha, resolution) cell of a convergence study.

    ``resolution`` is the mesh size h for spatial studies and the time
    step tau for temporal studies.  ``passed`` is None when no reference
    value is stored for the cell.
    """

    alpha: float
    resolution: float
    error: float
    observed_order: Optional[float]
    ref_error: Optional[float]
    ref_order: Optional[float]
    passed: Optional[bool]


@dataclass(frozen=True)
class ConvergenceReport:
    """All rows of one study, sorted by (alpha, decreasing resolution)."""

    study: str
    rows: list

    @property
    def passed(self) -> bool:
        flags = [r.passed for r in self.rows if r.passed is not None]
        return bool(flags) and all(flags)


# Reference errors and observed orders for the static operator study:
# point error at x = 0.5, p = 2, mesh sizes 1/20 .. 1/320.
TABLE1_ALPHAS = (1.1, 1.3, 1.5, 1.7, 1.9)
TABLE1_RESOLUTIONS = (1 / 20, 1 / 40, 1 / 80, 1 / 160, 1 / 320)
_TABLE1_REF = {
    1.1: [
        (2.492284e-3, None),
        (6.462793e-4, 1.9472),
        (1.643881e-4, 1.9751),
        (4.144518e-5, 1.9878),
        (1.040456e-5, 1.9940),
    ],
    1.3: [
        (3.563949e-3, None),
        (9.146722e-4, 1.9621),
        (2.315235e-4, 1.9821),
        (5.823146e-5, 1.9913),
        (1.460130e-5, 1.9957),
    ],
    1.5: [
        (4.555022e-3, None),
        (1.157683e-3, 1.9762),
        (2.916709e-4, 1.9888),
        (7.319217e-5, 1.9946),
        (1.833193e-5, 1.9973),
    ],
    1.7: [
        (5.266851e-3, None),
        (1.326934e-3, 1.9888),
        (3.329312e-4, 1.9948),
        (8.337785e-5, 1.9975),
        (2.086231e-5, 1.9988),
    ],
    1.9: [
        (5.352412e-3, None),
        (1.339793e-3, 1.9982),
        (3.351414e-4, 1.9992),
        (8.380846e-5, 1.9996),
        (2.095494e-5, 1.9998),
    ],
}

# Temporal study: h = 1/1000 fixed, tau = 1/5 .. 1/80, max error over
# every time level up to T = 1.
TABLE2_ALPHAS = (1.2, 1.4, 1.6, 1.8)
TABLE2_RESOLUTIONS = (1 / 5, 1 / 10, 1 / 20, 1 / 40, 1 / 80)
_TABLE2_REF = {
    1.2: [
        (8.853323e-5, None),
        (2.139870e-5, 2.05),
        (5.374545e-6, 1.99),
        (1.350102e-6, 1.99),
        (3.461897e-7, 1.96),
    ],
    1.4: [
        (9.968682e-5, None),
        (2.551591e-5, 1.97),
        (6.323861e-6, 2.01),
        (1.591389e-6, 1.99),
        (4.064288e-7, 1.97),
    ],
    1.6: [
        (1.238098e-4, None),
        (2.974978e-5, 2.06),
        (7.370363e-6, 2.01),
        (1.846014e-6, 2.00),
        (4.695380e-7, 1.98),
    ],
    1.8: [
        (1.435874e-4, None),
        (3.361038e-5, 2.09),
        (8.398948e-6, 2.00),
        (2.099550e-6, 2.00),
        (5.309125e-7, 1.98),
    ],
}

# Spatial study: tau = 1/2000 fixed, h = 1/10 .. 1/160, max error over
# every time level up to T = 1.
TABLE3_ALPHAS = (1.2, 1.4, 1.6, 1.8)
TABLE3_RESOLUTIONS = (1 / 10, 1 / 20, 1 / 40, 1 / 80, 1 / 160)
_TABLE3_REF = {
    1.2: [
        (2.101375e-4, None),
        (5.260133e-5, 2.00),
        (1.334869e-5, 1.98),
        (3.373047e-6, 1.98),
        (8.484737e-7, 1.99),
    ],
    1.4: [
        (2.015275e-4, None),
        (5.155201e-5, 1.97),
        (1.312357e-5, 1.97),
        (3.315909e-6, 1.97),
        (8.337871e-7, 1.99),
    ],
    1.6: [
        (1.831026e-4, None),
        (4.672567e-5, 1.97),
        (1.183333e-5, 1.98),
        (2.979178e-6, 1.99),
        (7.475850e-7, 1.99),
    ],
    1.8: [
        (1.485772e-4, None),
        (3.783943e-5, 1.97),
        (9.534022e-6, 1.99),
        (2.391298e-6, 2.00),
        (5.991744e-7, 2.00),
    ],
}

_STUDIES = {
    "operator_table1": (TABLE1_ALPHAS, TABLE1_RESOLUTIONS, _TABLE1_REF, 0.005),
    "temporal_table2": (TABLE2_ALPHAS, TABLE2_RESOLUTIONS, _TABLE2_REF, 0.05),
    "spatial_table3": (TABLE3_ALPHAS, TABLE3_RESOLUTIONS, _TABLE3_REF, 0.05),
}

_ORDER_TOL = 0.05  # pass band around the reference observed order


def example41_exact(alpha: float) -> float:
    """Exact Riesz derivative of ``x**2 (1-x)**2`` at x = 0.5:
    ``-((alpha - 1)(alpha - 3) 2**(alpha-1) / Gamma(5-alpha)) sec(pi alpha / 2)``,
    obtained from the power rule for the left derivative and the symmetry
    of the function about x = 0.5; at alpha = 2 it is ``u''(0.5) = -1``.
    """
    _check_alpha(alpha)
    sec = 1.0 / math.cos(math.pi * alpha / 2.0)
    return float(
        -((alpha - 1.0) * (alpha - 3.0) * 2.0 ** (alpha - 1.0))
        / math.gamma(5.0 - alpha)
        * sec
    )


def _bump_half_sum(alpha: float, n: int, x: np.ndarray) -> np.ndarray:
    """Half the sum of the left and right Riemann-Liouville derivatives of
    order alpha of ``x**n (1-x)**n`` on (0, 1), n >= 2, by the power rule on
    ``sum_k (-1)**k C(n, k) x**(n+k)``; its Riesz derivative is minus this
    over ``cos(pi alpha / 2)``."""
    total = np.zeros_like(x)
    for k in range(n + 1):
        scale = (-1) ** k * math.comb(n, k) * (math.factorial(n + k) // 2)
        power = (n + k) - alpha
        total += scale / math.gamma((n + k + 1) - alpha) * (x**power + (1.0 - x) ** power)
    return total


def _bump(x: np.ndarray) -> np.ndarray:
    return x**4 * (1.0 - x) ** 4


def _bump_dx(x: np.ndarray) -> np.ndarray:
    return 4.0 * x**3 - 20.0 * x**4 + 36.0 * x**5 - 28.0 * x**6 + 8.0 * x**7


def _node_cached(factors):
    """``factors(x)`` for float node arrays ``x``, computed once per node
    array: the two newest results are kept, keyed on the node shape and
    bytes, which compare several times faster than np.array_equal.  Two,
    because the CLI's writer asks for every node between steps on the
    interior ones.  The cache is replaced as a whole, so a reader on
    another thread never sees a mix of two node arrays."""
    cache = [()]

    def cached(x: np.ndarray) -> tuple:
        key = (x.shape, x.tobytes())
        entries = cache[0]
        for entry_key, value in entries:
            if entry_key == key:
                return value
        value = factors(x)
        cache[0] = ((key, value), *entries[:1])
        return value

    return cached


def example42_problem(alpha: float) -> AdvectionDiffusionProblem:
    """Manufactured advection-diffusion benchmark on (0, 1) with T = 1,
    K = 2, K_alpha = alpha**2, and exact solution
    ``cos(alpha t**2) x**4 (1-x)**4``.

    ``source`` and ``exact`` are the one-alpha case of ``_example42``,
    which holds the benchmark's arithmetic: ``source(x, t)`` is
    ``forcing(x, [t])[0, 0]``, and ``exact(x, t)`` also takes a sequence t
    and returns one row per time.
    """

    def exact(x: np.ndarray, t: float | Sequence[float]) -> np.ndarray:
        if np.ndim(t) == 0:
            return stacked_exact(x, [t])[0, 0]
        return stacked_exact(x, t)[0]

    def source(x: np.ndarray, t: float) -> np.ndarray:
        return forcing(x, [t])[0, 0]

    problem = AdvectionDiffusionProblem(
        alpha=alpha,
        K=2.0,
        K_alpha=alpha * alpha,
        domain=(0.0, 1.0),
        T=1.0,
        source=source,
        initial=_bump,
        exact=exact,
    )
    # after the problem has refused a bad alpha: math.cos(inf) would raise ValueError
    forcing, stacked_exact = _example42([alpha])
    return problem


def _example42(alphas: Sequence[float]) -> tuple:
    """``(forcing, exact)`` of example 4.2 for every alpha in ``alphas``
    and many times at once: for 1-D nodes x, both ``forcing(x, times)``
    and ``exact(x, times)`` are (alphas, len(times), len(x)), and row i is
    bit for bit ``_example42([alphas[i]])``'s, as it uses only that alpha's
    scalars (the time factors in Python floats).  The space factors are
    computed once per node array.  A lock-step group samples the forcing
    once per block of levels (``pde._march``) instead of once per level,
    which saved about 50 ms of table 3's 0.16 s on a 2-vCPU x86 machine."""
    alphas = list(alphas)
    cos_halves = np.array([math.cos(math.pi * alpha / 2.0) for alpha in alphas])[:, None, None]
    space_factors = _node_cached(
        lambda x: (
            np.stack([alpha * alpha * _bump_half_sum(alpha, 4, x) for alpha in alphas]),
            _bump(x),
            _bump_dx(x),
        )
    )

    def exact(x: np.ndarray, times: Sequence[float]) -> np.ndarray:
        _, bump_x, _ = space_factors(np.asarray(x, dtype=float))
        cosines = [[math.cos(alpha * t * t) for t in times] for alpha in alphas]
        return np.multiply.outer(cosines, bump_x)

    def forcing(x: np.ndarray, times: Sequence[float]) -> np.ndarray:
        scaled_fracs, bump_x, bump_dx_x = space_factors(np.asarray(x, dtype=float))
        angles = [[(alpha * t * t, 2.0 * alpha * t) for t in times] for alpha in alphas]
        ct = np.array([[math.cos(angle) for angle, _ in row] for row in angles])[..., None]
        st = np.array([[rate * math.sin(angle) for angle, rate in row] for row in angles])[..., None]
        return scaled_fracs[:, None] * ct / cos_halves - st * bump_x + 2.0 * ct * bump_dx_x

    return forcing, exact


def _resolution_to_m(h: float) -> int:
    if not 0.0 < h < math.inf:  # NaN fails too
        raise DomainError(f"resolution must be finite and > 0, got {h}")
    if not 1.0 / h <= _MAX_COUNT + 0.5:  # an overflow to inf fails too
        raise SizeLimitError(f"resolution {h} is too small: 1/h exceeds {_MAX_COUNT}")
    m = round(1.0 / h)
    if abs(m * h - 1.0) > 1e-9:
        raise DomainError(f"resolution {h} is not the reciprocal of an integer")
    return m


def _example41_point(alpha: float, p: int, M: int, j: int) -> tuple[float, float]:
    """``(x_j, value)``: node j of the grid of M intervals on (0, 1) and the
    order-p approximation there of the Riesz derivative of ``x**2 (1-x)**2``
    (example 4.1), whose exact value at x = 0.5 is ``example41_exact``."""
    grid = GridSpec1D(0.0, 1.0, M)
    x = grid.nodes()
    value = point_riesz_derivative(x**2 * (1.0 - x) ** 2, grid, alpha, p, j)
    return float(x[j]), value  # x[j] after the derivative has refused a bad j


def _operator_error(alpha: float, m: int) -> float:
    if m % 2 != 0:
        raise DomainError(f"point error at x = 0.5 needs an even node count, M={m}")
    return abs(_example41_point(alpha, 2, m, m // 2)[1] - example41_exact(alpha))


def _error_blocks(system, blocks, exact):
    """``blocks``, the levels of ``system`` from ``pde._levels`` (or the
    lock-step ones of ``pde._stacked_levels``), with every value replaced
    by |U - u_exact|: zero at the boundaries, and at the interior nodes
    from one ``exact(x, times)`` call per block, which returns the
    manufactured solution in the block's shape.  Each error block is the
    level block itself, overwritten."""
    x, tau = system.x_interior, system.tau

    def error(k: int, block: np.ndarray) -> tuple:
        interior = block[..., 1:-1]
        times = [j * tau for j in range(k, k + block.shape[-2])]
        np.subtract(interior, exact(x, times), out=interior)
        np.abs(interior, out=interior)
        return k, block

    return itertools.starmap(error, blocks)


def _solver_error(setups: list, N: int) -> list:
    """Maximum absolute nodal error over every time level of the
    manufactured benchmark, one per entry of ``setups``, the ``pde._setups``
    entries of ``(example42_problem(alpha), N)`` on one M (the solution
    amplitude oscillates in time, so the worst level is generally not the
    final one).  The cells march in lock step (``pde._stacked_levels``),
    each with the bits of its own run, under one ``_example42`` forcing of
    their problems' alphas, sampled once per block of levels."""
    forcing, exact = _example42([setup.problem.alpha for setup in setups])
    worst = np.zeros(len(setups))
    for _, error in _error_blocks(*_stacked_levels(setups, forcing, N), exact):
        np.maximum(worst, error.max(axis=(-2, -1)), out=worst)
    return worst.tolist()


def convergence_study(
    kind: str,
    alphas: Optional[Sequence[float]] = None,
    resolutions: Optional[Sequence[float]] = None,
) -> ConvergenceReport:
    """Run one of the three convergence studies.

    ``operator_table1``: static point error at x = 0.5 versus mesh size.
    ``temporal_table2``: solver error, the maximum over every time level
    up to T = 1, with h = 1/1000 fixed and the time step varying.
    ``spatial_table3``: the same error with tau = 1/2000 fixed and the
    mesh size varying.  Resolutions must halve successively for the
    observed orders to be meaningful.

    Every resolution and alpha is checked before any cell runs.  The
    solver cells that share M are set up together, and those that also
    share N march together (see the module docstring).
    """
    if kind not in _STUDIES:
        raise DomainError(
            f"unknown study {kind!r}; expected one of {sorted(_STUDIES)}"
        )
    default_alphas, default_res, reference, err_tol = _STUDIES[kind]
    alphas = tuple(alphas) if alphas is not None else default_alphas
    resolutions = tuple(resolutions) if resolutions is not None else default_res
    counts = {res: _resolution_to_m(res) for res in resolutions}  # before any cell runs
    cells = [(a, r) for a in alphas for r in resolutions]
    if kind == "operator_table1":
        for alpha in alphas:
            example41_exact(alpha)  # refuses a bad alpha before any cell runs
        groups = {cell: [cell] for cell in cells}

        def group_errors(cell: tuple) -> list:
            return [_operator_error(cell[0], counts[cell[1]])]

    else:
        problems = {alpha: example42_problem(alpha) for alpha in alphas}  # likewise
        groups, setups = {}, {}
        for alpha, res in cells:
            n = counts[res]
            size = (1000, n) if kind == "temporal_table2" else (n, 2000)
            groups.setdefault(size, []).append((alpha, res))
        for M in dict.fromkeys(M for M, _ in groups):
            shared = [(cell, N) for (m, N), group in groups.items() if m == M for cell in group]
            entries = _setups([(problems[a], N) for (a, _), N in shared], M)
            setups.update(zip([cell for cell, _ in shared], entries))

        def group_errors(size: tuple) -> list:
            return _solver_error([setups[cell] for cell in groups[size]], size[1])

    # one worker, as steps hold the GIL; the executor stays while perfbench's tests patch it
    errors = {}
    with ThreadPoolExecutor(max_workers=1) as pool:
        for group, values in zip(groups.values(), pool.map(group_errors, groups)):
            errors.update(zip(group, values))

    rows: list[StudyRow] = []
    for alpha in alphas:
        previous = None
        for i, res in enumerate(resolutions):
            error = errors[(alpha, res)]
            order = None
            if previous is not None and previous > 0 and error > 0:
                order = math.log2(previous / error)
            ref_error = ref_order = passed = None
            ref_rows = reference.get(alpha)
            if ref_rows is not None and resolutions == default_res:
                ref_error, ref_order = ref_rows[i]
                passed = bool(abs(error - ref_error) <= err_tol * ref_error)
                if ref_order is not None:
                    passed = passed and (
                        order is not None and abs(order - ref_order) <= _ORDER_TOL
                    )
            rows.append(
                StudyRow(alpha, res, error, order, ref_error, ref_order, passed)
            )
            previous = error
    return ConvergenceReport(kind, rows)


def error_surface(alpha: float, M: int, N: int) -> np.ndarray:
    """Pointwise absolute error |U - u_exact| of the manufactured
    benchmark over the full (N+1) x (M+1) space-time grid, filled block by
    block of levels (the boundaries are exact, so zero).  ``pde._levels``
    raises SizeLimitError before assembly if that array exceeds physical
    memory."""
    problem = example42_problem(alpha)
    system, blocks = _levels(problem, M, N, "all")  # refuses a bad M or N before the allocation
    surface = np.empty((N + 1, M + 1))
    for k, error in _error_blocks(system, blocks, problem.exact):
        surface[k : k + len(error)] = error
    return surface
