"""Acceptance suite: one test per headline criterion, each printing a
single pass line with its measured margins."""

import math
import time

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.blas import dgemm

from rieszfd import (
    AdvectionDiffusionProblem,
    DomainError,
    alpha_star,
    assemble_system,
    convergence_study,
    expansion_coefficients,
    generating_symbol,
    gl_weights,
    kappa_weights,
    solve,
    spectral_bounds,
    verify_properties,
)

ALPHA_GRID5 = (1.1, 1.3, 1.5, 1.7, 1.9)

# (p, alpha) cells whose weights decay (generating polynomial has no root
# inside the closed unit disk except z = 1); only these admit honest FFT
# extraction.  The remaining cells have geometrically growing weights.
FFT_CELLS = [(2, a) for a in ALPHA_GRID5] + [(3, 1.5), (3, 1.7), (3, 1.9), (4, 1.9)]
GROWING_CELLS = [(3, 1.1), (3, 1.3), (4, 1.1), (4, 1.3), (4, 1.5), (4, 1.7)]


def test_criterion_1_operator_table_reproduction():
    start = time.time()
    report = convergence_study("operator_table1")
    elapsed = time.time() - start
    worst_err = 0.0
    worst_order = 0.0
    for row in report.rows:
        assert row.ref_error is not None
        rel = abs(row.error - row.ref_error) / row.ref_error
        worst_err = max(worst_err, rel)
        assert rel <= 0.005
        if row.ref_order is not None:
            dev = abs(row.observed_order - row.ref_order)
            worst_order = max(worst_order, dev)
            assert dev <= 0.02
    assert elapsed < 5.0
    print(
        f"criterion 1 (static operator table): PASS "
        f"(worst error dev {worst_err:.1e}, worst order dev {worst_order:.4f}, "
        f"{elapsed:.1f}s)"
    )


def test_criterion_2_temporal_table_reproduction():
    start = time.time()
    report = convergence_study("temporal_table2")
    elapsed = time.time() - start
    worst = 0.0
    for row in report.rows:
        rel = abs(row.error - row.ref_error) / row.ref_error
        worst = max(worst, rel)
        assert rel <= 0.05
        if row.observed_order is not None:
            assert abs(row.observed_order - 2.0) <= 0.1
    assert elapsed < 180.0
    print(
        f"criterion 2 (temporal solver table): PASS "
        f"(worst error dev {worst:.1e}, {elapsed:.1f}s)"
    )


def test_criterion_3_spatial_table_reproduction():
    start = time.time()
    report = convergence_study("spatial_table3")
    elapsed = time.time() - start
    worst = 0.0
    for row in report.rows:
        rel = abs(row.error - row.ref_error) / row.ref_error
        worst = max(worst, rel)
        assert rel <= 0.05
        if row.observed_order is not None:
            assert abs(row.observed_order - 2.0) <= 0.1
    assert elapsed < 180.0
    print(
        f"criterion 3 (spatial solver table): PASS "
        f"(worst error dev {worst:.1e}, {elapsed:.1f}s)"
    )


def test_criterion_4_cross_method_oracle():
    # recursion vs convolution: relative agreement everywhere.
    # recursion vs fft: absolute agreement on the decaying cells; on the
    # growing cells unit-circle sampling is mathematically invalid (the
    # generating function is not analytic in the disk) and the fft method
    # refuses them, which is asserted as the documented behavior.
    start = time.time()
    worst_conv = 0.0
    for p in (2, 3, 4):
        for alpha in ALPHA_GRID5:
            rec = kappa_weights(p, alpha, 512, method="recursion").values
            conv = kappa_weights(p, alpha, 512, method="convolution").values
            rel = np.max(np.abs(rec - conv) / np.maximum(np.abs(rec), 1e-300))
            worst_conv = max(worst_conv, rel)
            assert rel <= 1e-10
    worst_fft = 0.0
    for p, alpha in FFT_CELLS:
        rec = kappa_weights(p, alpha, 512, method="recursion").values
        fft = kappa_weights(p, alpha, 512, method="fft", samples=2**19).values
        dev = np.max(np.abs(rec - fft))
        worst_fft = max(worst_fft, dev)
        assert dev <= 1e-10
    for p, alpha in GROWING_CELLS:
        with pytest.raises(DomainError):
            kappa_weights(p, alpha, 512, method="fft", samples=2**19)
    elapsed = time.time() - start
    print(
        f"criterion 4 (cross-method oracle): PASS "
        f"(recursion/convolution rel {worst_conv:.1e}, recursion/fft abs "
        f"{worst_fft:.1e} on decaying cells, growing cells rejected, {elapsed:.1f}s)"
    )


def test_criterion_5_weight_property_suite():
    # sign pattern across the threshold order
    star = alpha_star()
    for alpha in (1.1, 1.2, 1.3, 1.4, 1.5, star - 1e-3):
        k = kappa_weights(2, alpha, 3).values
        assert k[0] > 0 and k[1] < 0 and k[2] < 1e-14
    for alpha in (star + 1e-3, 1.6, 1.7, 1.8, 1.9):
        k = kappa_weights(2, alpha, 3).values
        assert k[0] > 0 and k[1] < 0 and k[2] >= -1e-14
    # tail nonnegativity and structural report
    for alpha in ALPHA_GRID5:
        report = verify_properties(kappa_weights(2, alpha, 2000))
        assert report.passed, report.clauses
    # asymptotic constant at ell = 1e5 for alpha = 1.5
    alpha = 1.5
    k = kappa_weights(2, alpha, 10**5).values
    constant = -math.sin(math.pi * alpha) * math.gamma(alpha + 1.0) / math.pi
    ratio = k[-1] * (10**5) ** (alpha + 1.0) / constant
    assert abs(ratio - 1.0) <= 0.05
    # partial-sum decay below 1e-3 at L = 1e4
    partial = abs(np.sum(k[: 10**4 + 1]))
    assert partial <= 1e-3
    print(
        f"criterion 5 (weight properties): PASS "
        f"(asymptotic ratio {ratio:.4f}, partial sum at 1e4 {partial:.2e})"
    )


def test_criterion_6_spectral_certification():
    alphas = np.linspace(1.1, 1.9, 9)
    xs = np.linspace(0.0, math.pi, 10**4)
    worst_eig = -np.inf
    worst_symbol = -np.inf
    for alpha in alphas:
        f = generating_symbol(alpha, xs)
        worst_symbol = max(worst_symbol, float(np.max(f)))
        assert np.max(f) <= 1e-12
        fmin, fmax = float(np.min(f)), float(np.max(f))
        for m in (8, 16, 32, 64, 128):
            lo, hi = spectral_bounds(alpha, 2, m)
            worst_eig = max(worst_eig, hi)
            assert hi <= 1e-10
            assert lo >= fmin - 1e-10
            assert hi <= fmax + 1e-10
    print(
        f"criterion 6 (spectral certification): PASS "
        f"(max eigenvalue {worst_eig:.1e}, max symbol {worst_symbol:.1e})"
    )


def test_criterion_7_unconditional_stability():
    rng = np.random.default_rng(2024)
    worst = -np.inf
    for alpha in (1.1, 1.5, 1.9):
        problem = AdvectionDiffusionProblem(
            alpha=alpha,
            K=2.0,
            K_alpha=alpha * alpha,
            domain=(0.0, 1.0),
            T=50.0,
            source=lambda x, t: np.zeros_like(x),
            initial=lambda x: np.zeros_like(x),
        )
        system = assemble_system(problem, 200, 500)  # tau = 0.1, h = 1/200
        h = system.grid.h
        U = rng.standard_normal((199, 50))
        norms = np.sqrt(h * np.sum(U * U, axis=0))
        lu = lu_factor(system.lhs)
        # the product goes through scipy's BLAS too: alternating numpy's and
        # scipy's threaded BLAS pools made this loop about 16 times slower
        B = np.asfortranarray(system.B)
        for _ in range(500):
            U = lu_solve(lu, dgemm(1.0, B, U))
            new = np.sqrt(h * np.sum(U * U, axis=0))
            worst = max(worst, float(np.max(new - norms)))
            assert np.all(new <= norms + 1e-12)
            norms = new
    print(
        f"criterion 7 (unconditional stability): PASS "
        f"(worst norm increase {worst:.1e} over 500 steps x 50 vectors x 3 alphas)"
    )


def test_criterion_8_gamma_expansion():
    worst = 0.0
    for alpha in np.linspace(1.05, 1.95, 17):
        ec = expansion_coefficients(alpha, 3)
        g2 = -(2 * alpha**2 - 6 * alpha + 3) / (6 * alpha)
        g3 = (3 * alpha**3 - 11 * alpha**2 + 12 * alpha - 4) / (12 * alpha**2)
        assert abs(ec[0]) <= 1e-12
        dev = max(abs(ec[1] - g2), abs(ec[2] - g3))
        worst = max(worst, dev, abs(ec[0]))
        assert dev <= 1e-10
    print(f"criterion 8 (gamma expansion): PASS (worst deviation {worst:.1e})")


def test_criterion_9_classical_limit():
    np.testing.assert_allclose(gl_weights(2.0, 2).values, [1.0, -2.0, 1.0], atol=1e-15)
    k = kappa_weights(2, 2.0, 10).values
    np.testing.assert_allclose(k[:3], [1.0, -2.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(k[3:], 0.0, atol=1e-14)

    M, N = 40, 25
    h, tau = 1.0 / M, 1.0 / N
    K, K2 = 2.0, 1.0
    problem = AdvectionDiffusionProblem(
        alpha=2.0,
        K=K,
        K_alpha=K2,
        domain=(0.0, 1.0),
        T=1.0,
        source=lambda x, t: np.exp(-t) * np.sin(np.pi * x),
        initial=lambda x: x * (1.0 - x),
    )
    sol = solve(problem, M, N)

    # independent classical Crank-Nicolson reference
    m = M - 1
    x = np.linspace(0.0, 1.0, M + 1)
    lap = (
        np.diag(-2.0 * np.ones(m)) + np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1)
    ) / h**2
    cen = (np.diag(np.ones(m - 1), 1) - np.diag(np.ones(m - 1), -1)) / (2.0 * h)
    A = K * cen - K2 * lap
    lhs = np.eye(m) + (tau / 2.0) * A
    rhs_mat = np.eye(m) - (tau / 2.0) * A
    u = x[1:M] * (1.0 - x[1:M])
    for k_step in range(N):
        f = np.exp(-(k_step + 0.5) * tau) * np.sin(np.pi * x[1:M])
        u = np.linalg.solve(lhs, rhs_mat @ u + tau * f)
    dev = float(np.max(np.abs(sol.final()[1:M] - u)))
    assert dev <= 1e-12
    print(f"criterion 9 (classical limit): PASS (solver deviation {dev:.1e})")
