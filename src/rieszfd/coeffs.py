"""Weight families for fractional difference operators.

This module generates the coefficient tables used by the difference
operators: the classical Grünwald-Letnikov weights, the Lubich
convolution-quadrature weights of orders 1..6, the two weighted-shifted
second-order families, and the generating-function based ``kappa`` weights
of orders p = 2, 3, 4.  All families are produced by one truncated
power-series engine; the kappa family additionally supports a convolution
form and an FFT extraction as independent cross-checks of the recursion.

It also computes the expansion coefficients ``gamma_ell`` of the operator
consistency error and provides a property report verifying the structural
facts about the second-order kappa weights (sign pattern, asymptotic decay
rate, boundedness, zero-sum tail).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SeriesError, SizeLimitError, UnsupportedOrderError

__all__ = [
    "Family",
    "CoefficientTable",
    "PropertyReport",
    "alpha_star",
    "gl_weights",
    "lubich_weights",
    "wsgd_weights",
    "kappa_polynomial",
    "series_fractional_power",
    "kappa_weights",
    "expansion_coefficients",
    "verify_properties",
]


class Family(enum.Enum):
    """Weight family tags."""

    GL = "gl"
    LUBICH = "lubich"
    WSGD1 = "wsgd1"
    WSGD2 = "wsgd2"
    KAPPA = "kappa"


@dataclass(frozen=True)
class CoefficientTable:
    """A finite prefix of a weight sequence.

    ``values`` has length ``truncation + 1`` and holds the weights at
    indices 0..truncation; a non-finite weight raises :class:`DomainError`.
    """

    family: Family
    order_p: int
    alpha: float
    values: np.ndarray

    def __post_init__(self) -> None:
        bad = np.flatnonzero(~np.isfinite(self.values))
        if bad.size:
            raise DomainError(
                f"{self.family.value} weights for p={self.order_p}, alpha={self.alpha}, "
                f"count={self.truncation} overflow double precision at index {bad[0]}"
            )

    @property
    def truncation(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class PropertyReport:
    """Pass/fail outcome per structural property of a kappa table."""

    alpha: float
    truncation: int
    clauses: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.clauses.values())


# Largest weight count of any table.  The weights come from an O(count)
# Python recursion (``deriv --M 1000000`` computes 10**6 of them in 1.4 s),
# and the operators' grids share the cap.
_MAX_COUNT = 10**6

# Largest fft sample count: the default, 4 * count, at ``_MAX_COUNT``
_MAX_SAMPLES = 4 * _MAX_COUNT


def _check_alpha(alpha: float) -> None:
    if not 1.0 < alpha <= 2.0:
        raise DomainError(f"alpha={alpha} outside the valid interval (1, 2]")


def _check_count(count: int) -> None:
    if count < 2:
        raise DomainError(f"count={count} must be at least 2")
    if count > _MAX_COUNT:
        raise SizeLimitError(f"count={count} exceeds the cap of {_MAX_COUNT} weights")


def alpha_star() -> float:
    """The order-alpha threshold at which the third kappa weight (p = 2)
    changes sign: the unique root of 8a^3 - 21a^2 + 16a - 4 in (1, 2)."""
    c = (621.0 + 48.0 * math.sqrt(87.0)) ** (1.0 / 3.0)
    return 7.0 / 8.0 + (c + 57.0 / c) / 24.0


def gl_weights(alpha: float, count: int) -> CoefficientTable:
    """Grünwald-Letnikov weights: the power-series coefficients of
    ``(1 - z)**alpha``.

    Computed by the downward recursion ``w_0 = 1``,
    ``w_ell = (1 - (1 + alpha)/ell) w_{ell-1}``.
    """
    _check_alpha(alpha)
    _check_count(count)
    values = _gl_series(alpha, count)
    return CoefficientTable(Family.GL, 1, alpha, values)


def _gl_series(alpha: float, count: int) -> np.ndarray:
    ell = np.arange(1, count + 1, dtype=float)
    return np.concatenate(([1.0], np.cumprod(1.0 - (1.0 + alpha) / ell)))


def lubich_weights(p: int, alpha: float, count: int) -> CoefficientTable:
    """Lubich order-p weights: coefficients of
    ``(sum_{ell=1..p} (1 - z)**ell / ell)**alpha``."""
    if not 1 <= p <= 6:
        raise UnsupportedOrderError(f"Lubich weights require 1 <= p <= 6, got {p}")
    _check_alpha(alpha)
    _check_count(count)
    inner = np.zeros(p + 1)
    one_minus_z = np.array([1.0, -1.0])
    power = np.array([1.0])
    for ell in range(1, p + 1):
        power = np.convolve(power, one_minus_z)
        inner[: ell + 1] += power / ell
    values = series_fractional_power(inner, alpha, count)
    return CoefficientTable(Family.LUBICH, p, alpha, values)


def wsgd_weights(variant: int, alpha: float, count: int) -> CoefficientTable:
    """Weighted-shifted second-order weights built from the
    Grünwald-Letnikov family.

    Variant 1 combines indices ell and ell-1; variant 2 combines
    indices ell and ell-2.
    """
    if variant not in (1, 2):
        raise DomainError(f"wsgd variant must be 1 or 2, got {variant}")
    _check_alpha(alpha)
    _check_count(count)
    w = _gl_series(alpha, count)
    if variant == 1:
        values = (alpha / 2.0) * w
        values[1:] += ((2.0 - alpha) / 2.0) * w[:-1]
        family = Family.WSGD1
    else:
        values = ((2.0 + alpha) / 4.0) * w
        values[2:] += ((2.0 - alpha) / 4.0) * w[:-2]
        family = Family.WSGD2
    return CoefficientTable(family, 2, alpha, values)


def kappa_polynomial(p: int, alpha: float) -> np.ndarray:
    """Coefficients a0..ap of the degree-p generating polynomial whose
    alpha-th power yields the order-p kappa weights."""
    _check_alpha(alpha)
    a = alpha
    if p == 2:
        coeffs = [
            (3.0 * a - 2.0) / (2.0 * a),
            -2.0 * (a - 1.0) / a,
            (a - 2.0) / (2.0 * a),
        ]
    elif p == 3:
        a2 = a * a
        coeffs = [
            (11.0 * a2 - 12.0 * a + 3.0) / (6.0 * a2),
            (-6.0 * a2 + 10.0 * a - 3.0) / (2.0 * a2),
            (3.0 * a2 - 8.0 * a + 3.0) / (2.0 * a2),
            (-2.0 * a2 + 6.0 * a - 3.0) / (6.0 * a2),
        ]
    elif p == 4:
        a2, a3 = a * a, a * a * a
        coeffs = [
            (25.0 * a3 - 35.0 * a2 + 15.0 * a - 2.0) / (12.0 * a3),
            (-24.0 * a3 + 52.0 * a2 - 27.0 * a + 4.0) / (6.0 * a3),
            (6.0 * a3 - 19.0 * a2 + 12.0 * a - 2.0) / (2.0 * a3),
            (-8.0 * a3 + 28.0 * a2 - 21.0 * a + 4.0) / (6.0 * a3),
            (3.0 * a3 - 11.0 * a2 + 9.0 * a - 2.0) / (12.0 * a3),
        ]
    else:
        raise UnsupportedOrderError(
            f"kappa weights are only constructed for p in {{2, 3, 4}}, got p={p}"
        )
    return np.array(coeffs)


def series_fractional_power(a: np.ndarray, alpha: float, count: int) -> np.ndarray:
    """Coefficients 0..count of ``(sum a_k z**k)**alpha`` with a0 != 0.

    Uses the standard recurrence for fractional powers of a power series:
    ``c_0 = a0**alpha`` and
    ``c_ell = (1/(ell a0)) sum_{k=1..min(ell,d)} (k(alpha+1) - ell) a_k c_{ell-k}``.
    """
    a = np.asarray(a, dtype=float)
    if a[0] == 0.0:
        raise SeriesError("leading series coefficient is zero")
    d = len(a) - 1
    # Python floats round exactly as float64 scalars do, at half the cost
    # per operation; a0**alpha stays a numpy power (NaN, not complex, for
    # a0 < 0)
    c = [float(a[0] ** alpha)]
    a = a.tolist()
    weight = [k * (alpha + 1.0) for k in range(d + 1)]
    for ell in range(1, count + 1):
        s = 0.0
        for k in range(1, min(ell, d) + 1):
            s += (weight[k] - ell) * a[k] * c[ell - k]
        c.append(s / (ell * a[0]))
    return np.array(c)


def _kappa_convolution(a: np.ndarray, alpha: float, count: int) -> np.ndarray:
    """Kappa weights via the closed convolution form.

    Every kappa generating polynomial vanishes at z = 1, so it factors as
    ``a0 (1 - z) q(z)`` with ``q(0) = 1``.  The alpha-th power is then the
    Cauchy product of the Grünwald-Letnikov series of ``(1 - z)**alpha``
    with the binomial series of ``q(z)**alpha``, which is exactly the
    nested finite-sum form written out term by term.
    """
    d = len(a) - 1
    r = np.empty(d)
    r[0] = a[0]
    for k in range(1, d):
        r[k] = a[k] + r[k - 1]
    q = r / a[0]
    b = q.copy()
    b[0] = 0.0  # q(z) - 1, zero constant term
    inner = np.zeros(count + 1)
    inner[0] = 1.0
    power = np.zeros(count + 1)
    power[0] = 1.0
    binom = 1.0
    for n in range(1, count + 1):
        # term n changes only indices >= n (b[0] = 0), and a non-finite entry never
        # turns finite, so a bad inner[n - 1] fixes the table's first bad index
        if not math.isfinite(inner[n - 1]):
            break
        binom *= (alpha - n + 1.0) / n
        power = np.convolve(power, b)[: count + 1]
        if not power.any():
            break
        inner += binom * power
    gl = _gl_series(alpha, count)
    return a[0] ** alpha * np.convolve(gl, inner)[: count + 1]


# The first float alpha, per p, whose kappa weights decay.  Below it the
# generating polynomial W has a root other than z = 1 (farther than 1e-6
# from it) of modulus at most 1 + 1e-9, so the coefficients of its
# fractional powers grow geometrically, or for a root just outside the unit
# circle too slowly to matter at any admitted count.  Each value is a
# closed form offset by that 1e-9 modulus tolerance: for p = 2 the second
# root a0/a2 has modulus 1 + O(alpha - 1), so the closed form is 1; for
# p = 3 and 4 it is where W(-1) = 0, the root of 5a^2 - 9a + 3, i.e.
# (9 + sqrt(21))/10, and of (2a - 1)(2a^2 - 4a + 1), i.e. 1 + 1/sqrt(2).
# The stored floats sit 2.5e-10, 4.6e-10 and 6.4e-10 above those.
_FIRST_DECAYING_ALPHA = {2: 1.0000000002500002, 3: 1.3582575699568, 4: 1.7071067818240322}


def _decaying_polynomial(p: int, alpha: float) -> np.ndarray:
    """``kappa_polynomial(p, alpha)``, refused when its weights do not
    decay (alpha below ``_FIRST_DECAYING_ALPHA[p]``): no operator can use
    them, nor can unit-circle samples represent them."""
    a = kappa_polynomial(p, alpha)
    if alpha < _FIRST_DECAYING_ALPHA[p]:
        raise DomainError(
            f"kappa weights for p={p}, alpha={alpha} do not decay: the "
            "generating polynomial has a root other than z = 1 of modulus "
            "at most 1 + 1e-9"
        )
    return a


def _kappa_fft(
    a: np.ndarray, alpha: float, count: int, samples: int | None
) -> np.ndarray:
    """Kappa weights via inverse FFT of unit-circle samples of the
    generating function; ``a`` must come from :func:`_decaying_polynomial`.
    Aliasing decays like the coefficient tail, so the sample count must
    comfortably exceed the requested truncation.
    """
    samples = _fft_samples(count, samples)
    z = np.exp(-2j * np.pi * np.arange(samples) / samples)
    return np.fft.ifft(_circle_power(a, alpha, z)).real[: count + 1]


def _fft_samples(count: int, samples: int | None) -> int:
    """The fft method's sample count: ``samples``, by default 4 * count
    and at least 4096; refused below 2 * count or above ``_MAX_SAMPLES``."""
    if samples is None:
        samples = max(4096, 4 * count)
    if samples < 2 * count:
        raise DomainError(
            f"fft extraction needs at least 2*count={2 * count} samples, got {samples}"
        )
    if samples > _MAX_SAMPLES:
        raise SizeLimitError(f"samples={samples} exceeds the cap of {_MAX_SAMPLES}")
    return samples


def _circle_power(a: np.ndarray, alpha: float, z: np.ndarray) -> np.ndarray:
    """``W(z)**alpha`` for ``W(z) = sum a_k z**k`` at points z of the unit
    circle, on the principal branch; W has an exact root at z = 1."""
    w = np.polynomial.polynomial.polyval(z, a)
    w[z == 1.0] = 0.0  # define 0**alpha = 0
    vals = np.zeros(w.shape, dtype=complex)
    nz = w != 0.0
    vals[nz] = np.exp(alpha * np.log(w[nz]))
    return vals


def kappa_weights(
    p: int,
    alpha: float,
    count: int,
    method: str = "recursion",
    samples: int | None = None,
) -> CoefficientTable:
    """Order-p kappa weights, indices 0..count.

    ``method`` selects one of three mutually validating evaluations:
    ``recursion`` (the production default), ``convolution`` (the closed
    nested-sum form), or ``fft`` (unit-circle sampling; only available
    when the weights decay).  Growing weights are returned while finite.
    """
    _check_count(count)
    a = kappa_polynomial(p, alpha)
    # growing weights overflow to inf/NaN silently; CoefficientTable refuses them
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "recursion":
            values = series_fractional_power(a, alpha, count)
        elif method == "convolution":
            values = _kappa_convolution(a, alpha, count)
        elif method == "fft":
            values = _kappa_fft(_decaying_polynomial(p, alpha), alpha, count, samples)
        else:
            raise DomainError(
                f"unknown method {method!r}; expected recursion, convolution or fft"
            )
    return CoefficientTable(Family.KAPPA, p, alpha, values)


def expansion_coefficients(alpha: float, n: int) -> np.ndarray:
    """Consistency-error expansion coefficients gamma_1..gamma_n for the
    p = 2 kappa operator, as an array of length n.

    With W(z) the degree-2 generating polynomial, the symbol ratio
    ``phi(z) = e**z z**(-alpha) W(e**(-z))**alpha = 1 + sum gamma_ell z**ell``
    is expanded by truncated series arithmetic: substitute the exponential
    series into W, peel off the exact factor z (the constant term of
    W(e**(-z)) cancels identically), raise the remaining unit series to
    the power alpha, and multiply back by the series of e**z.
    """
    _check_alpha(alpha)
    if not 2 <= n <= 12:
        raise SeriesError(f"expansion order n={n} outside the supported range 2..12")
    m = n + 3  # series length, with headroom past z**n
    k = np.arange(m, dtype=float)
    fact = np.concatenate(([1.0], np.cumprod(k[1:])))
    eneg = (-1.0) ** np.arange(m) / fact
    epos = 1.0 / fact
    a = kappa_polynomial(2, alpha)
    s = a[1] * eneg + a[2] * np.convolve(eneg, eneg)[:m]
    s[0] = 0.0  # a0 + a1 + a2, algebraically zero
    g = s[1:]  # divide by z; g[0] = 1 algebraically
    galpha = series_fractional_power(g, alpha, n + 1)
    phi = np.convolve(epos[: n + 2], galpha)[: n + 2]
    return phi[1 : n + 1]


def verify_properties(table: CoefficientTable) -> PropertyReport:
    """Check the structural properties of a p = 2 kappa table.

    Clauses: sign of the first two weights, sign of the third weight
    relative to the threshold order ``alpha_star()``, nonnegativity of the
    tail, the algebraic decay rate ``kappa_ell ~ c ell**(-alpha-1)``
    (checked only when the table is long enough), a Grünwald-Letnikov
    comparison bound, and decay of the partial sums toward zero.
    """
    if table.family is not Family.KAPPA or table.order_p != 2:
        raise DomainError("property report is defined for kappa tables with p = 2")
    k = table.values
    alpha = table.alpha
    ell_max = table.truncation
    clauses: dict = {}
    witnesses: dict = {}

    clauses["leading_positive"] = bool(k[0] > 0.0)
    clauses["second_negative"] = bool(k[1] < 0.0)
    witnesses["kappa0"] = float(k[0])
    witnesses["kappa1"] = float(k[1])

    threshold = alpha_star()
    if alpha < threshold:
        clauses["third_sign"] = bool(k[2] < 1e-14)
    else:
        clauses["third_sign"] = bool(k[2] >= -1e-14)
    witnesses["kappa2"] = float(k[2])

    if ell_max >= 3:
        clauses["tail_nonnegative"] = bool(np.min(k[3:]) >= -1e-14)

    constant = -math.sin(math.pi * alpha) * math.gamma(alpha + 1.0) / math.pi
    if ell_max >= 10**4 and abs(constant) > 1e-12:
        ratio = float(k[ell_max] * ell_max ** (alpha + 1.0) / constant)
        witnesses["asymptotic_ratio"] = ratio
        clauses["asymptotic_constant"] = bool(abs(ratio - 1.0) <= 0.05)

    upto = min(ell_max, 1000)
    if upto >= 4:
        # comparison bound |kappa_ell| <= scale * M(ell, alpha) * gl_ell;
        # the constant M(ell, alpha) has poles at ell = 1 + alpha and
        # ell = 2 + alpha, so the bound only makes sense from ell = 4 on
        gl = _gl_series(alpha, upto)
        q = (2.0 - alpha) / (3.0 * alpha - 2.0)
        ell = np.arange(4, upto + 1, dtype=float)
        # at alpha = 2 every q-term vanishes and the denominator
        # ell - 2 - alpha hits zero at ell = 4, so shortcut the limit
        m_ell = np.ones_like(ell) if alpha == 2.0 else (
            (1.0 + q**ell)
            + alpha * (q + q ** (ell - 1.0)) * ell / (ell - 1.0 - alpha)
            + alpha
            * (3.0 * alpha - 2.0)
            / 8.0
            * q**2
            * ell
            * (ell - 1.0)
            / ((ell - 1.0 - alpha) * (ell - 2.0 - alpha))
        )
        scale = ((3.0 * alpha - 2.0) / (2.0 * alpha)) ** alpha
        margin = scale * m_ell * gl[4:] - np.abs(k[4 : upto + 1])
        clauses["bounded_by_gl"] = bool(np.min(margin) >= -1e-14)
        witnesses["bound_margin_min"] = float(np.min(margin))

    partial = np.abs(np.cumsum(k))
    start = max(3, ell_max // 2)
    clauses["partial_sum_decay"] = bool(
        partial[ell_max] <= partial[start] + 1e-15
        and (ell_max < 10**4 or partial[ell_max] <= 1e-3)
    )
    witnesses["partial_sum_final"] = float(partial[ell_max])

    return PropertyReport(alpha, ell_max, clauses, witnesses)
