"""Property tests over random inputs: cross-method weight agreement, the
Riesz operator against its dense matrix, its alpha -> 2 limit, the
Crank-Nicolson identity ``lhs + B = 2I``, a non-increasing energy norm without a
source, the stacked Levinson-Trench recursion against the scalar one and
the stacked example-4.2 forcing against each alpha's own.  Derandomized,
so every run draws the same examples."""

import math

import numpy as np
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
from rieszfd.coeffs import _grows
from rieszfd.harness import _example42
from rieszfd.pde import _levinson_generators, _setups, _stacked_levinson_generators

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)

orders = st.integers(2, 4)
alphas = st.floats(1.01, 1.99)


@PROPERTY
@given(p=orders, alpha=alphas, count=st.integers(2, 300))
def test_recursion_convolution_fft_agree_on_decaying_weights(p, alpha, count):
    assume(not _grows(kappa_polynomial(p, alpha)))
    rec = kappa_weights(p, alpha, count, method="recursion").values
    conv = kappa_weights(p, alpha, count, method="convolution").values
    fft = kappa_weights(p, alpha, count, method="fft", samples=2**16).values
    np.testing.assert_allclose(conv, rec, rtol=1e-10, atol=1e-15)
    assert np.max(np.abs(rec - fft)) <= 1e-10


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
    assume(not _grows(kappa_polynomial(p, alpha)))
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
    assume(not any(_grows(kappa_polynomial(2, problem.alpha)) for problem in problems))
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
    t=st.floats(0.0, 1.0),
    M=st.integers(4, 200),
)
# (alpha t) t != alpha (t t) for alpha 1.013 and 1.996 at these t
@example(alphas=[1.013, 1.5], t=0.837, M=40)
@example(alphas=[1.2, 1.996, 1.836], t=0.47, M=160)
def test_stacked_example42_is_each_alpha_alone(alphas, t, M):
    x = GridSpec1D(0.0, 1.0, M).nodes()
    source, exact = _example42(alphas)
    stacked_source = source(x[1:M], t)
    stacked_exact = exact(x, [t, 1.0 - t])
    assert stacked_source.shape == (len(alphas), M - 1)
    assert stacked_exact.shape == (len(alphas), 2, M + 1)
    for alpha, f, u in zip(alphas, stacked_source, stacked_exact):
        problem = example42_problem(alpha)
        assert np.array_equal(f, problem.source(x[1:M], t))
        assert np.array_equal(u, problem.exact(x, [t, 1.0 - t]))
