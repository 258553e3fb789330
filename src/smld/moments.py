"""Raw and central moments: closed forms, recurrences, asymptotics.

Four independent routes are kept alive on purpose so each can check the
others:

* closed form via the scaled Kummer function, which for these parameters
  is an exact finite sum,
* the three-term recurrence
      (n-b)^2 mu_{r+1} = (n-b)(alpha+2r+1+nx) mu_r - r(alpha+r) mu_{r-1},
  derived from the contiguous relation of 1F1 (DLMF 13.3.1); forward
  iteration is mildly stable because the subtracted term is at most
  r/(alpha+2r+1) of the leading one,
* explicit degree-r polynomials in nx for r <= 4, whose coefficients
  follow the pattern binom(r, j) (alpha+j+1)_{r-j},
* the binomial expansion of central moments, summed exactly: the same
  recurrence runs on ``fractions.Fraction`` copies of the (binary) inputs,
  so the r-1 leading orders the expansion cancels cost no digits, and the
  exact sum is rounded once.

None of them calls the operator.  The quadrature column of the moment
tables, M applied to t^r or (t-x)^r, comes from :mod:`smld.cli`, and
checks 02c and 05b hold that route against these closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError, UnsupportedOrderError, _require_order, _require_points
from .operator import OperatorParams
from .special import kummer_scaled, pochhammer

__all__ = [
    "AsymptoticRow",
    "raw_moment_closed",
    "raw_moments_recurrence",
    "raw_moment_explicit",
    "diff_recurrence_residual",
    "central_moment_explicit",
    "central_moment_binomial",
    "asymptotic_prediction",
    "asymptotic_ratio_table",
]


def raw_moment_closed(r: int, x: float, params: OperatorParams) -> float:
    """mu_r(x) = (alpha+1)_r / (n-beta)^r * e^(-nx) 1F1(alpha+r+1; alpha+1; nx)."""
    r = _require_order(r, "moment_order")
    _require_points(x)
    front = pochhammer(params.alpha + 1.0, r) / params.rate ** r
    return front * kummer_scaled(params.alpha + r + 1.0, params.alpha + 1.0, params.n * x)


def _recurrence(r_max: int, z, al, rate) -> list:
    """mu_0 .. mu_{r_max} by forward three-term recurrence at z = nx.

    The same body serves floats and ``Fraction``s: the integer literals
    keep the float route's bits, and on rationals every step is exact.
    """
    mus = [rate**0]  # 1 in the inputs' type: 1.0 or Fraction(1)
    if r_max >= 1:
        mus.append((al + 1 + z) / rate)
    for r in range(1, r_max):
        nxt = (rate * (al + 2 * r + 1 + z) * mus[r] - r * (al + r) * mus[r - 1]) / rate**2
        mus.append(nxt)
    return mus


def raw_moments_recurrence(r_max: int, x: float, params: OperatorParams) -> list[float]:
    """All raw moments mu_0 .. mu_{r_max} by forward three-term recurrence."""
    r_max = _require_order(r_max, "moment_order")
    _require_points(x)
    return _recurrence(r_max, params.n * x, params.alpha, params.rate)


def raw_moment_explicit(r: int, x: float, params: OperatorParams) -> float:
    """Explicit polynomial-in-nx raw moments, available for r <= 4."""
    r = _require_order(r, "moment_order")
    _require_points(x)
    if r > 4:
        raise UnsupportedOrderError(f"explicit raw moments exist for r <= 4, got {r}")
    al = params.alpha
    z = params.n * x
    rate = params.rate
    if r == 0:
        return 1.0
    if r == 1:
        return (z + al + 1.0) / rate
    if r == 2:
        return (z**2 + (2.0 * al + 4.0) * z + (al + 1.0) * (al + 2.0)) / rate**2
    if r == 3:
        return (
            z**3
            + 3.0 * (al + 3.0) * z**2
            + 3.0 * (al + 2.0) * (al + 3.0) * z
            + (al + 1.0) * (al + 2.0) * (al + 3.0)
        ) / rate**3
    return (
        z**4
        + 4.0 * (al + 4.0) * z**3
        + 6.0 * (al + 3.0) * (al + 4.0) * z**2
        + 4.0 * (al + 2.0) * (al + 3.0) * (al + 4.0) * z
        + (al + 1.0) * (al + 2.0) * (al + 3.0) * (al + 4.0)
    ) / rate**4


def diff_recurrence_residual(
    r: int, x: float, params: OperatorParams, h: float
) -> float:
    """|central difference of mu_r - (n r / (n-beta)) mu_{r-1} at alpha+1|.

    The derivative of the r-th moment equals n r / (n-beta) times the
    (r-1)-th moment with alpha shifted to alpha+1; the residual of the
    second-order central difference is O(h^2).
    """
    r = _require_order(r, "moment_order", lo=1)
    _require_points(x)
    if not (math.isfinite(h) and h > 0):
        raise ParameterError("diff_step", f"requires finite h > 0, got h = {h}")
    if not x - h > 0:
        raise ParameterError("diff_step", f"requires x - h > 0, got x = {x}, h = {h}")
    left = raw_moments_recurrence(r, x - h, params)[r]
    right = raw_moments_recurrence(r, x + h, params)[r]
    shifted = OperatorParams(params.n, params.alpha + 1.0, params.beta)
    rhs = params.n * r / params.rate * raw_moments_recurrence(r - 1, x, shifted)[r - 1]
    return abs((right - left) / (2.0 * h) - rhs)


def central_moment_explicit(r: int, x: float, params: OperatorParams) -> float:
    """Explicit central moments for r <= 4."""
    r = _require_order(r, "moment_order")
    _require_points(x)
    if r > 4:
        raise UnsupportedOrderError(f"explicit central moments exist for r <= 4, got {r}")
    al = params.alpha
    b = params.beta
    n = params.n
    rate = params.rate
    if r == 0:
        return 1.0
    if r == 1:
        return (al + 1.0 + b * x) / rate
    if r == 2:
        return (
            (al + 1.0) * (al + 2.0) + 2.0 * x * (n + b * (al + 1.0)) + b**2 * x**2
        ) / rate**2
    if r == 3:
        return (
            b**3 * x**3
            + 3.0 * b * (2.0 * n + b * (al + 1.0)) * x**2
            + 3.0 * (al + 2.0) * (2.0 * n + b * (al + 1.0)) * x
            + (al + 1.0) * (al + 2.0) * (al + 3.0)
        ) / rate**3
    return (
        b**4 * x**4
        + 4.0 * b**2 * (3.0 * n + b * (al + 1.0)) * x**3
        + (12.0 * n**2 + 24.0 * (al + 2.0) * b * n + 6.0 * (al + 1.0) * (al + 2.0) * b**2)
        * x**2
        + 4.0 * (al + 2.0) * (al + 3.0) * (3.0 * n + b * (al + 1.0)) * x
        + (al + 1.0) * (al + 2.0) * (al + 3.0) * (al + 4.0)
    ) / rate**4


def central_moment_binomial(r: int, x: float, params: OperatorParams) -> float:
    """Central moment sum_j binom(r,j) (-x)^(r-j) mu_j, summed exactly.

    The raw moments come from the three-term recurrence on the exact
    rational values of n x, alpha and n - beta, so the alternating sum has
    no rounding to cancel; the result is the exact moment of the given
    float inputs, rounded once.
    """
    r = _require_order(r, "moment_order")
    _require_points(x)
    xq = Fraction(x)
    n = Fraction(params.n)
    mus = _recurrence(r, n * xq, Fraction(params.alpha), n - Fraction(params.beta))
    return float(sum(math.comb(r, j) * (-xq) ** (r - j) * mus[j] for j in range(r + 1)))


def asymptotic_prediction(r: int, x: float, params: OperatorParams) -> float:
    """Stated leading term of the r-th central moment as n grows.

    r = 1: (alpha + 1 + beta x) / n; r >= 2: r(r-1) beta^(r-2) x^(r-1) / n^(r-1)
    with the convention beta^0 = 1 even at beta = 0.  The literal leading
    term is returned even where it vanishes (beta = 0, r >= 3); the ratio
    table flags those rows instead of inventing next-order terms.
    """
    r = _require_order(r, "moment_order", lo=1)
    _require_points(x)
    if r == 1:
        return (params.alpha + 1.0 + params.beta * x) / params.n
    return r * (r - 1) * params.beta ** (r - 2) * x ** (r - 1) / params.n ** (r - 1)


@dataclass(frozen=True)
class AsymptoticRow:
    """One n of the ratio table: the exact central moment, the stated leading
    term, their ratio, and ``two_term`` (:func:`_two_term_value`)."""

    n: float
    exact: float
    predicted: float
    two_term: float
    ratio: float | None
    flagged: bool  # prediction vanished; no ratio


def _two_term_value(r: int, x: float, params: OperatorParams) -> float:
    """x^r S0 + x^(r-1) S1 / n with A = n / (n - beta), S0 = (A-1)^r and
    S1 = (alpha+1) r A (A-1)^(r-1) + r(r-1) A^2 (A-1)^(r-2): the top two
    powers of x of the exact r-th central moment, exactly, so it is the
    moment's large-x form.  It is not a large-n expansion: as n grows at
    fixed x the r = 3 ratio exact / two_term tends to 1 + (alpha+2)/(beta x)
    (check 06c's term), and for r = 4 it grows like n.
    """
    a = params.n / params.rate
    s0 = (a - 1.0) ** r
    s1 = (params.alpha + 1.0) * r * a * (a - 1.0) ** (r - 1)
    if r >= 2:
        s1 += r * (r - 1) * a**2 * (a - 1.0) ** (r - 2)
    return x**r * s0 + x ** (r - 1) * s1 / params.n


def asymptotic_ratio_table(
    r: int, x: float, alpha: float, beta: float, n_grid
) -> list[AsymptoticRow]:
    """Exact central moment vs predicted leading term along an n grid."""
    _require_points(x)
    ns = [float(n) for n in n_grid]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ParameterError("n_grid_order", "n_grid must be strictly ascending")
    rows = []
    for n in ns:
        params = OperatorParams(n, alpha, beta)
        exact = central_moment_binomial(r, x, params)
        predicted = asymptotic_prediction(r, x, params)
        two_term = _two_term_value(r, x, params)
        flagged = predicted == 0.0
        ratio = None if flagged else exact / predicted
        rows.append(AsymptoticRow(n, exact, predicted, two_term, ratio, flagged))
    return rows

