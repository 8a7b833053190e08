"""Property tests over random inputs: cross-method weight agreement, the
Riesz operator against its dense matrix, its alpha -> 2 limit, the
Crank-Nicolson identity ``lhs + B = 2I``, a non-increasing energy norm without a
source, the stacked Levinson-Trench recursion against the scalar one and
the stacked example-4.2 forcing against its verbatim formula, and the
weight-decay check, one table of alpha thresholds, against the
``np.roots`` rule.  Derandomized, so every run draws the same examples."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rieszfd import (
    AdvectionDiffusionProblem,
    GridSpec1D,
    assemble_system,
    example42_problem,
    grid_norm,
    kappa_polynomial,
    kappa_weights,
    riesz_apply,
    riesz_matrix,
    step,
)
from rieszfd.coeffs import _FIRST_DECAYING_ALPHA, _decaying_polynomial
from rieszfd.errors import DomainError
from rieszfd.harness import _example42
from rieszfd.pde import _levinson_generators, _setups, _stacked_levinson_generators
from test_harness import _reference_exact, _reference_source

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)

orders = st.integers(2, 4)
alphas = st.floats(1.01, 1.99)


def _grows(p, alpha):
    """The weight-decay check as the operators take it: True when
    ``_decaying_polynomial`` refuses (p, alpha) as not decaying."""
    try:
        _decaying_polynomial(p, alpha)
    except DomainError as error:
        assert "do not decay" in str(error)
        return True
    return False


@PROPERTY
@given(p=orders, alpha=alphas, count=st.integers(2, 300))
def test_recursion_convolution_fft_agree_on_decaying_weights(p, alpha, count):
    assume(not _grows(p, alpha))
    rec = kappa_weights(p, alpha, count, method="recursion").values
    conv = kappa_weights(p, alpha, count, method="convolution").values
    fft = kappa_weights(p, alpha, count, method="fft", samples=2**16).values
    np.testing.assert_allclose(conv, rec, rtol=1e-10, atol=1e-15)
    assert np.max(np.abs(rec - fft)) <= 1e-10


def _grows_by_roots(a):
    """The decay rule by every root of the polynomial: ``np.roots``,
    LAPACK's eigenvalue solver on the companion matrix."""
    roots = np.roots(a[::-1])
    roots = roots[np.abs(roots - 1.0) > 1e-6]
    return bool(roots.size and np.min(np.abs(roots)) <= 1.0 + 1e-9)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(p=orders, alpha=st.floats(1.0, 2.0, exclude_min=True))
def test_decay_check_agrees_with_the_roots_rule(p, alpha):
    a = kappa_polynomial(p, alpha)
    assert _grows(p, alpha) == _grows_by_roots(a)


# alpha = 2 drops the p = 2 polynomial to 1 - z; the weights stop growing
# where the second root's modulus passes 1 + 1e-9 (p = 2), and the negative
# root passes -1 - 1e-9 near 1.358257569957 (p = 3) and 1.707106781824 (p = 4)
@pytest.mark.parametrize(
    "p, alpha, grows",
    [
        (2, 2.0, False),
        (2, 1.0 + 1e-13, True),
        (2, 1.0 + 2.4e-10, True),
        (2, 1.0 + 2.6e-10, False),
        (3, 2.0, False),
        (3, 1.0 + 1e-13, True),
        (3, 1.3582575699558, True),
        (3, 1.3582575699578, False),
        (4, 2.0, False),
        (4, 1.0 + 1e-13, True),
        (4, 1.7071067818230, True),
        (4, 1.7071067818250, False),
    ],
)
def test_decay_check_cases(p, alpha, grows):
    a = kappa_polynomial(p, alpha)
    assert _grows(p, alpha) is _grows_by_roots(a) is grows


def _bits(x):
    """The float64 x as an integer; adjacent floats differ by 1."""
    return int(np.float64(x).view(np.int64))


def _float(bits):
    return float(np.int64(bits).view(np.float64))


# where W(-1) = 0: 5a^2 - 9a + 3 (p = 3) and (2a - 1)(2a^2 - 4a + 1) (p = 4)
@pytest.mark.parametrize(
    "p, closed_form", [(2, 1.0), (3, (9.0 + math.sqrt(21.0)) / 10.0), (4, 1.0 + 1.0 / math.sqrt(2.0))]
)
def test_decay_threshold_is_the_roots_rule_boundary(p, closed_form):
    threshold = _FIRST_DECAYING_ALPHA[p]
    # the closed form offset by the rule's 1 + 1e-9 modulus tolerance
    assert closed_form < threshold < closed_form + 1e-9
    # the first float the check admits
    assert not _grows(p, threshold) and _grows(p, _float(_bits(threshold) - 1))

    def oracle(bits):
        return _grows_by_roots(kappa_polynomial(p, _float(bits)))

    # bisect the oracle over the floats in (1, 2]: it grows at lo, decays at hi
    lo, hi = _bits(1.0) + 1, _bits(2.0)
    assert oracle(lo) and not oracle(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if oracle(mid) else (lo, mid)
    # np.roots is not monotone within a few ulps of the threshold
    assert abs(hi - _bits(threshold)) <= 8
    for k in range(8, 65):
        below, above = _bits(threshold) - k, _bits(threshold) + k
        assert oracle(below) is _grows(p, _float(below)) is True
        assert oracle(above) is _grows(p, _float(above)) is False


@st.composite
def dirichlet_functions(draw):
    M = draw(st.integers(4, 40))
    interior = draw(st.lists(st.floats(-1e3, 1e3), min_size=M - 1, max_size=M - 1))
    return np.array([0.0, *interior, 0.0])


@PROPERTY
@given(u=dirichlet_functions(), p=orders, alpha=alphas)
def test_riesz_apply_matches_riesz_matrix(u, p, alpha):
    # np.convolve against the dense Toeplitz matrix product, entry by
    # entry within a few roundoffs of the summed term magnitudes
    assume(not _grows(p, alpha))
    grid = GridSpec1D(0.0, 1.0, len(u) - 1)
    interior = u[1 : grid.M]
    matrix = riesz_matrix(alpha, p, grid)
    error = np.abs(riesz_apply(u, grid, alpha, p)[1 : grid.M] - matrix @ interior)
    assert np.all(error <= 1e-13 * (np.abs(matrix) @ np.abs(interior)))


# Largest ratio of the two sides of the alpha -> 2 bound below, measured
# on M = 4 .. 64 and 25 log-spaced delta in [1e-9, 1e-3]: 1.105 at M = 4,
# falling with M to 1.049 at M = 64, and flat in delta
_LIMIT_C = 1.2


@PROPERTY
@given(M=st.integers(4, 64), exponent=st.floats(-9.0, -3.0))
def test_riesz_matrix_approaches_its_alpha_2_limit(M, exponent):
    # h**-alpha moves by delta |ln h| relative, the weights by O(delta)
    delta = 10.0**exponent
    grid = GridSpec1D(0.0, 1.0, M)
    limit = riesz_matrix(2.0, 2, grid)
    gap = np.max(np.abs(riesz_matrix(2.0 - delta, 2, grid) - limit))
    scale = delta * (1.0 + abs(math.log(grid.h))) * np.max(np.abs(limit))
    assert gap <= _LIMIT_C * scale


@PROPERTY
@given(M=st.integers(4, 40), N=st.integers(1, 50), alpha=st.floats(1.01, 2.0))
def test_lhs_plus_b_is_twice_identity(M, N, alpha):
    system = assemble_system(example42_problem(alpha), M, N)
    np.testing.assert_array_equal(system.lhs + system.B, 2.0 * np.eye(M - 1))


@PROPERTY
@given(M=st.integers(4, 40), N=st.integers(1, 30), alpha=st.floats(1.01, 2.0), data=st.data())
def test_energy_norm_nonincreasing_without_source(M, N, alpha, data):
    problem = AdvectionDiffusionProblem(
        alpha=alpha,
        K=2.0,
        K_alpha=alpha * alpha,
        domain=(0.0, 1.0),
        T=1.0,
        source=lambda x, t: np.zeros_like(x),
        initial=lambda x: np.zeros_like(x),
    )
    system = assemble_system(problem, M, N)
    u = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=M - 1, max_size=M - 1)))
    h = system.grid.h
    previous = grid_norm(u, h)
    for k in range(N):
        u = step(system, u, k * system.tau)
        current = grid_norm(u, h)
        assert current <= previous + 1e-12
        previous = current


@st.composite
def shared_grid_systems(draw):
    """2 to 6 Crank-Nicolson systems on one grid of M = 5 .. 300 intervals,
    each with its own alpha in (1, 2], K >= 0 and time step, as
    ``pde._setups`` builds them.  Alphas within about 2.5e-10 of 1, whose
    p = 2 weights the operators refuse as not decaying, are not drawn."""
    M = draw(st.integers(5, 300))
    cells = draw(
        st.lists(
            st.tuples(
                st.floats(1.0, 2.0, exclude_min=True), st.floats(0.0, 50.0), st.floats(1e-4, 1.0)
            ),
            min_size=2,
            max_size=6,
        )
    )
    problems = [
        AdvectionDiffusionProblem(
            alpha=alpha,
            K=K,
            K_alpha=alpha * alpha,
            domain=(0.0, 1.0),
            T=tau,
            source=lambda x, t: np.zeros_like(x),
            initial=lambda x: np.zeros_like(x),
        )
        for alpha, K, tau in cells
    ]
    assume(not any(_grows(2, problem.alpha) for problem in problems))
    return _setups([(problem, 1) for problem in problems], M)


@PROPERTY
@given(setups=shared_grid_systems())
def test_stacked_levinson_equals_each_system_alone(setups):
    reversed_columns = np.array([setup.column[::-1] for setup in setups])
    rows = np.array([setup.row for setup in setups])
    stacked = _stacked_levinson_generators(reversed_columns, rows)
    for setup, generators in zip(setups, stacked):
        np.testing.assert_array_equal(generators, _levinson_generators(setup.column, setup.row))


@PROPERTY
@given(
    alphas=st.lists(st.floats(1.0, 2.0, exclude_min=True, exclude_max=True), min_size=1, max_size=5),
    times=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    M=st.integers(4, 200),
    tau=st.floats(1e-4, 0.5),
)
# (alpha t) t != alpha (t t) for alpha 1.013 and 1.996 at t = 0.837 and 0.47
@example(alphas=[1.013, 1.5], times=[0.837], M=40, tau=1 / 2000)
@example(alphas=[1.2, 1.996, 1.836], times=[0.1, 0.47, 0.837], M=160, tau=1 / 80)
def test_stacked_example42_is_each_alpha_alone(alphas, times, M, tau):
    # each row against the formula as first written, not against the
    # one-alpha stack, which is the same code
    x = GridSpec1D(0.0, 1.0, M).nodes()
    forcing, exact = _example42(alphas)
    stacked_forcing = forcing(x[1:M], times)
    stacked_exact = exact(x, times)
    assert stacked_forcing.shape == (len(alphas), len(times), M - 1)
    assert stacked_exact.shape == (len(alphas), len(times), M + 1)
    # a step adds a row of the block's (tau/2) forcing, where a lone step
    # adds half * source(x, t)
    half = tau / 2.0
    rows = tau / 2.0 * stacked_forcing
    u = np.sin(17.0 * x[1:M])
    for alpha, f, v, exact_rows in zip(alphas, stacked_forcing, rows, stacked_exact):
        for t, f_t, v_t, exact_t in zip(times, f, v, exact_rows):
            source = _reference_source(alpha, x[1:M], t)
            assert np.array_equal(f_t, source)
            assert np.array_equal(u + v_t, u + half * source)
            assert np.array_equal(exact_t, _reference_exact(alpha, x, t))
