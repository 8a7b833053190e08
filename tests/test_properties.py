"""Property tests over random inputs: cross-method weight agreement, the
left/right reflection identity, the Crank-Nicolson identity ``lhs + B = 2I``
and a non-increasing energy norm without a source.  Derandomized, so every
run draws the same examples."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rieszfd import (
    AdvectionDiffusionProblem,
    GridSpec1D,
    assemble_system,
    example42_problem,
    grid_norm,
    kappa_polynomial,
    kappa_weights,
    left_apply,
    right_apply,
    step,
)
from rieszfd.coeffs import _grows

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
def test_right_apply_mirrors_left_apply(u, p, alpha):
    grid = GridSpec1D(0.0, 1.0, len(u) - 1)
    table = kappa_weights(p, alpha, grid.M)
    right = right_apply(u, grid, table)
    left_of_mirror = left_apply(u[::-1], grid, table)[::-1]
    np.testing.assert_allclose(right, left_of_mirror, rtol=1e-13, atol=1e-13)


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
