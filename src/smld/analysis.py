"""Empirical convergence lab: sup norms, weighted norms, L_p errors, Schur
quantities, and rate fitting.

Sup norms over intervals are grid maxima (``_GRID_POINTS`` = 2001 points,
declared kinks added as grid points), refined around the grid argmax by a
few rounds that each evaluate the function once on a small batch of
points.  The modulus of continuity omega(f, delta) on the same grid
compares each block of 128 grid points with the points of its delta band
only, not with the whole grid.
The Schur closed forms take arrays of x or t, so a grid is one call.
The Korovkin differences for the test set {1, t, t^2} have exact
rational/sqrt closed forms, so those norms are evaluated without any
quadrature.  None of the bound constants are assumed anywhere: the
functions return measured values, per n of the grid they are given.

The L_p-family norms of one operator share one evaluation: |M f - f| on
the fixed panel grid of [0, R] (48 panels of 12 Gauss-Legendre nodes) is
kept in a bounded LRU cache keyed by (f, params, R), and each norm
only applies its p and gamma to the cached read-only arrays.

A :class:`NormSpec` built by ``sup_compact(a)``, ``weighted_phi(x_max)``,
``lp(p, r_cut)`` or ``weighted_lp(p, gamma, r_max)`` names one error norm
of M f - f, and ``spec.error(f, params)`` measures it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateDataError, ParameterError, QuadratureError, _require, _require_points
from .operator import (
    OperatorParams,
    TestFunction,
    apply_operator_grid,
    kernel_on_x_grid,
)
from .operator.quadrature import panel_rule
from .special import _dot, reg_lower_gamma

__all__ = [
    "NormSpec",
    "SchurSecondResult",
    "modulus_of_continuity",
    "sup_abs_on_interval",
    "operator_sup_error",
    "compact_estimate_check",
    "weighted_phi_norm",
    "korovkin_weighted_check",
    "weight_hypothesis",
    "lp_error",
    "weighted_lp_error",
    "schur_E",
    "schur_lemma_applicable",
    "schur_first_integral",
    "schur_second_integral",
    "rate_slope",
]

# Each refinement round evaluates g once on _REFINE_POINTS interior points of
# the bracket; the argmax's two neighbours become the next bracket, narrower
# by (_REFINE_POINTS + 1)/2 = 16.  Seven rounds narrow the opening bracket by
# 16^-7 = 3.7e-9, below the 0.618^40 = 4.4e-9 of a 40-step golden-section
# search.
_REFINE_POINTS = 31
_REFINE_ROUNDS = 7

_GRID_POINTS = 2001  # sup-norm and modulus grids
_LP_PANELS, _LP_NODES = 48, 12  # Gauss-Legendre panel rule of the L_p norms on [0, R]
_SCHUR_PANELS, _SCHUR_NODES = 24, 10  # the same for the Schur x-integral

_PANEL_ERRORS = 8  # |M f - f| panel grids kept per process, ~14 KB each at 48 x 12 nodes


def _check_p(p: float | None) -> None:
    """The norm's exponent: finite p >= 1."""
    _require(p is not None and 1.0 <= p < math.inf, p, "norm_p", "finite p >= 1")


def _check_gamma(gamma: float | None) -> None:
    """The exponential weight e^(gamma x): finite gamma >= 0."""
    _require(gamma is not None and 0 <= gamma < math.inf, gamma, "norm_gamma", "finite gamma >= 0")


def _check_end(end: float | None, name: str) -> None:
    """The right end of the norm's interval [0, end]: finite end > 0."""
    _require(end is not None and 0.0 < end < math.inf, end, "norm_interval", f"finite {name} > 0")


@dataclass(frozen=True)
class NormSpec:
    """One error norm of M f - f: ``error(f, params)`` is ``fn(f, params, *args)``.

    Each constructor checks its own parameters and binds its norm function;
    specs built from equal arguments compare and hash equal.
    """

    fn: Callable[..., float]
    args: tuple[float, ...]

    def error(self, f: TestFunction, params: OperatorParams) -> float:
        return self.fn(f, params, *self.args)

    @classmethod
    def sup_compact(cls, a: float) -> "NormSpec":
        _check_end(a, "a")
        return cls(operator_sup_error, (a,))

    @classmethod
    def weighted_phi(cls, x_max: float) -> "NormSpec":
        _check_end(x_max, "x_max")
        return cls(_phi_error, (x_max,))

    @classmethod
    def lp(cls, p: float, r_cut: float) -> "NormSpec":
        _check_p(p)
        _check_end(r_cut, "cutoff")
        return cls(lp_error, (p, r_cut))

    @classmethod
    def weighted_lp(cls, p: float, gamma: float, r_max: float) -> "NormSpec":
        _check_p(p)
        _check_end(r_max, "cutoff")
        _check_gamma(gamma)
        return cls(_weighted_lp_value, (p, gamma, r_max))


# -- sup norms ---------------------------------------------------------------


def _grid_with_kinks(lo: float, hi: float, points: int, kinks: Sequence[float]) -> np.ndarray:
    grid = np.linspace(lo, hi, points)
    inner = [k for k in kinks if lo < k < hi]
    if inner:
        grid = np.unique(np.concatenate([grid, np.asarray(inner, dtype=float)]))
    return grid


def sup_abs_on_interval(
    g: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    kinks: Sequence[float] = (),
) -> float:
    """sup |g| on [lo, hi]: the grid max, refined around the grid argmax.

    ``g`` evaluates on arrays.  The refinement opens on the argmax's two
    grid neighbours; each round calls ``g`` once on the bracket's interior
    points and keeps the neighbours of their argmax.  The result is the
    largest value seen, never below the grid max.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ParameterError("norm_interval", f"requires finite lo <= hi, got [{lo}, {hi}]")
    grid = _grid_with_kinks(lo, hi, _GRID_POINTS, kinks)
    vals = np.abs(np.asarray(g(grid), dtype=float))
    i = int(np.argmax(vals))
    best = float(vals[i])
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    for _ in range(_REFINE_ROUNDS):
        if not b > a:
            break
        xs = np.linspace(a, b, _REFINE_POINTS + 2)
        ys = np.abs(np.asarray(g(xs[1:-1]), dtype=float))
        j = int(np.argmax(ys))
        best = max(best, float(ys[j]))
        a, b = xs[j], xs[j + 2]
    return best


def modulus_of_continuity(f, delta: float, a: float) -> float:
    """omega(f, delta) = sup { |f(t) - f(x)| : x, t in [0, a], |t - x| <= delta }.

    Grid pairs plus a local fine scan around the maximizing pair.  Only pairs
    within delta count, so each block of 128 grid rows compares the columns
    of its delta band alone: N (128 + 2 delta / h) pairs instead of N^2, with
    the same maximum and the same (first) maximizing pair as the full scan.
    """
    _check_end(a, "a")
    if not (0 < delta <= a):
        raise ParameterError("modulus_delta", f"requires 0 < delta <= a, got {delta}")
    kinks = f.kinks if isinstance(f, TestFunction) else ()
    grid = _grid_with_kinks(0.0, a, _GRID_POINTS, kinks)
    vals = np.asarray(f(grid), dtype=float)
    # rows in blocks of 128, so no grid-squared array is built; a later
    # block must be strictly larger, which keeps the first maximal pair.  A
    # block's columns are its rows' delta band, padded by one linspace step
    # so that no rounding of |t - x| <= delta falls outside it.  The first
    # band starts at column 0, so an all-zero first block still reports the
    # pair (0, 0) of the full scan
    pad = a / (_GRID_POINTS - 1)
    best, i, j = -1.0, 0, 0
    for r in range(0, len(grid), 128):
        rows = grid[r : r + 128]
        lo, hi = np.searchsorted(grid, (rows[0] - delta - pad, rows[-1] + delta + pad))
        close = np.abs(rows[:, None] - grid[None, lo:hi]) <= delta
        diffs = np.where(close, np.abs(vals[r : r + 128, None] - vals[None, lo:hi]), 0.0)
        at = int(np.argmax(diffs))
        if diffs.flat[at] > best:
            best = float(diffs.flat[at])
            i, j = divmod(at, hi - lo)
            i, j = i + r, j + lo
    # local refinement around the maximizing pair, one linspace step either
    # side (a kink just above 0 would shrink grid[1] - grid[0])
    ti = np.clip(np.linspace(grid[i] - pad, grid[i] + pad, 41), 0.0, a)
    tj = np.clip(np.linspace(grid[j] - pad, grid[j] + pad, 41), 0.0, a)
    vi = np.asarray(f(ti), dtype=float)
    vj = np.asarray(f(tj), dtype=float)
    ok = np.abs(ti[:, None] - tj[None, :]) <= delta
    local = np.where(ok, np.abs(vi[:, None] - vj[None, :]), 0.0)
    return max(best, float(np.max(local)))


def _deviation(f: TestFunction, params: OperatorParams, xs: np.ndarray) -> np.ndarray:
    """M f - f on the grid xs: the quantity every error norm measures."""
    return apply_operator_grid(f, xs, params) - np.asarray(f(xs), dtype=float)


def operator_sup_error(f: TestFunction, params: OperatorParams, a: float) -> float:
    """E_n = sup_{x in [0, a]} |M f(x) - f(x)| (grid + refinement)."""
    _check_end(a, "a")
    return sup_abs_on_interval(partial(_deviation, f, params), 0.0, a, f.kinks)


def compact_estimate_check(
    f: TestFunction,
    n_grid: Sequence[float],
    alpha: float,
    beta: float,
    a: float,
) -> tuple[list[float], list[float]]:
    """Sup errors E_n on [0, a] and the measured ratios E_n / omega(f, 1/sqrt n), per n.

    The max ratio over the grid is the measured stand-in for the
    quantitative-estimate constant; no value is assumed for it.
    """
    errors = []
    ratios = []
    for n in n_grid:
        params = OperatorParams(float(n), alpha, beta)
        e_n = operator_sup_error(f, params, a)
        omega = modulus_of_continuity(f, 1.0 / math.sqrt(n), a)
        errors.append(e_n)
        ratios.append(e_n / omega if omega > 0 else math.inf)
    return errors, ratios


def weighted_phi_norm(g: Callable, x_max: float) -> float:
    """sup over [0, x_max] of |g(x)| / (1 + x^2).

    The tail beyond x_max is the caller's responsibility: for the Korovkin
    differences the closed forms make the tail explicit, for general g the
    cutoff is reported, not certified.
    """
    _check_end(x_max, "x_max")

    def ratio(xs):
        return np.asarray(g(xs), dtype=float) / (1.0 + xs**2)

    return sup_abs_on_interval(ratio, 0.0, x_max)


def _phi_error(f: TestFunction, params: OperatorParams, x_max: float) -> float:
    """sup over [0, x_max] of |M f - f| / (1 + x^2), cutoff not certified."""
    return weighted_phi_norm(partial(_deviation, f, params), x_max)


# -- Korovkin test functions: exact weighted norms ----------------------------


def _sup_linear_ratio(b: float, c: float) -> float:
    """sup over x >= 0 of (b x + c) / (1 + x^2) for b, c >= 0."""
    if b == 0.0:
        return c
    x = (-c + math.sqrt(c * c + b * b)) / b
    return (b * x + c) / (1.0 + x * x)


def _sup_quadratic_ratio(a: float, b: float, c: float) -> float:
    """sup over x >= 0 of (a x^2 + b x + c) / (1 + x^2) for a, c >= 0 and b > 0."""
    x = ((a - c) + math.sqrt((a - c) ** 2 + b * b)) / b
    return max(a, c, (a * x * x + b * x + c) / (1.0 + x * x))


def korovkin_weighted_check(params: OperatorParams) -> tuple[float, float, float]:
    """Exact phi-weighted norms of M e_i - e_i for e_i = 1, t, t^2.

    Uses the closed moment formulas only -- no quadrature.  The e_0
    difference is identically 0; for e_1 and e_2 the suprema of rational
    functions are located by calculus.  Requires beta >= 0 (the difference
    coefficients are then single-signed, which the closed forms rely on),
    and (n - beta)^2 within the float range (``korovkin_rate``).
    """
    if params.beta < 0:
        raise ParameterError(
            "korovkin_beta_negative", "closed-form Korovkin norms require beta >= 0"
        )
    n, al, b = params.n, params.alpha, params.beta
    rate = params.rate
    _require(rate * rate < math.inf, rate, "korovkin_rate", "(n - beta)^2 finite")
    e1 = _sup_linear_ratio(b, al + 1.0) / rate
    a2 = b * (2.0 * n - b) / rate**2
    b2 = (2.0 * al + 4.0) * n / rate**2
    c2 = (al + 1.0) * (al + 2.0) / rate**2
    e2 = _sup_quadratic_ratio(a2, b2, c2)
    return 0.0, e1, e2


# -- L_p errors ----------------------------------------------------------------


def weight_hypothesis(params: OperatorParams, gamma: float, p: float) -> bool:
    """gamma <= p beta (to 1e-15): the weighted L_p and Schur hypothesis."""
    return gamma <= p * params.beta + 1e-15


def lp_error(f: TestFunction, params: OperatorParams, p: float, r_cut: float) -> float:
    """(integral_0^R |M f - f|^p dx)^(1/p): the weighted L_p error at gamma = 0."""
    return weighted_lp_error(f, params, p, 0.0, r_cut)[0]


def weighted_lp_error(
    f: TestFunction,
    params: OperatorParams,
    p: float,
    gamma: float,
    r_max: float,
) -> tuple[float, bool]:
    """(integral_0^Rmax |M f - f|^p e^(gamma x) dx)^(1/p), plus the flag
    gamma <= p beta (the weighted-convergence hypothesis; the value is
    computed either way and the flag reports applicability).

    |M f - f| on the panel grid comes from a bounded cache shared by every
    p and gamma, so the L_p norms of one (f, params, R) evaluate
    the operator once.  The panel sum runs in logs, shifted by its largest
    term, so no term dev^p e^(gamma x) underflows or overflows; a norm past
    the float range raises :class:`QuadratureError` ``norm_not_finite``.
    """
    _check_gamma(gamma)
    _check_p(p)
    _check_end(r_max, "R")
    xs, ws, dev = _panel_error(f, params, float(r_max))
    with np.errstate(divide="ignore", over="ignore"):  # ln 0 = -inf; exp(> 709.8) = inf
        t = p * np.log(dev) + gamma * xs
        top = t.max()
        log_sum = top + np.log(_dot(np.exp(t - top), ws)) if top > -np.inf else -np.inf
        value = float(np.exp(log_sum / p))
    if not math.isfinite(value):
        raise QuadratureError(
            f"the L_p norm is not a finite float: its logarithm is {log_sum / p}",
            code="norm_not_finite",
        )
    return value, weight_hypothesis(params, gamma, p)


def _weighted_lp_value(f: TestFunction, params: OperatorParams, *norm: float) -> float:
    """:func:`weighted_lp_error` without its hypothesis flag."""
    return weighted_lp_error(f, params, *norm)[0]


@lru_cache(maxsize=_PANEL_ERRORS)
def _panel_error(
    f: TestFunction, params: OperatorParams, r_max: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (xs, ws, |M f - f|) on the panel rule of [0, r_max], kinks
    of f added as panel edges."""
    edges = _grid_with_kinks(0.0, r_max, _LP_PANELS + 1, f.kinks)
    xs, ws = panel_rule(edges, _LP_NODES)
    dev = np.abs(_deviation(f, params, xs))
    for a in (xs, ws, dev):
        a.flags.writeable = False
    return xs, ws, dev


# -- Schur-test quantities ------------------------------------------------------


def schur_lemma_applicable(params: OperatorParams) -> bool:
    """Parameter range the uniform x-integral bound is stated for."""
    return -0.5 <= params.alpha <= 0.0 and params.beta >= 0.0


def schur_E(params: OperatorParams, t):
    """E_n(t) = (1/n) (n-b)^(a+1) t^a gamma(a+1, (n-b)t) / Gamma(a+1).

    Out of the guaranteed range alpha in [-1/2, 0] the value is still
    computed (see :func:`schur_lemma_applicable`).  At t = 0 the limit is
    0 for alpha > -1/2, finite for alpha = -1/2, +inf below.  t is a float
    or an array of them, each finite and >= 0; a float for a scalar t.
    """
    t = np.asarray(t, dtype=float)
    _require(np.isfinite(t), t, "schur_t_not_finite", "finite t")
    _require(t >= 0, t, "schur_t_negative", "t >= 0")
    al = params.alpha
    rate = params.rate
    n = params.n
    with np.errstate(divide="ignore", invalid="ignore"):  # t^al at t = 0, replaced below
        out = (1.0 / n) * rate ** (al + 1.0) * t**al * reg_lower_gamma(al + 1.0, rate * t)
    if al > -0.5:
        limit = 0.0
    elif al == -0.5:
        limit = (rate / n) * 2.0 / math.sqrt(math.pi)
    else:
        limit = math.inf
    out = np.where(t == 0.0, limit, out)
    return out if out.ndim else float(out)


def _check_schur_weight(params: OperatorParams, gamma: float, p: float) -> None:
    """The domain of both Schur integrals: finite p >= 1, finite gamma >= 0
    and gamma < n p."""
    _check_p(p)
    _check_gamma(gamma)
    if not gamma < params.n * p:
        raise ParameterError(
            "schur_gamma_large", f"requires gamma < n p, got gamma = {gamma}, n p = {params.n * p}"
        )


def schur_first_integral(params: OperatorParams, gamma: float, p: float, x):
    """Closed form of the conjugated kernel's t-integral at a fixed x:

        ((n-b) / (n-b+gamma/p))^(alpha+1) * exp(x (gamma/p) (gamma/p - b) / (n-b+gamma/p)).

    <= 1 for every x >= 0 exactly when gamma <= p beta.  x is a float or an
    array of them, each finite and >= 0; a float for a scalar x.
    """
    _require_points(x)
    x = np.asarray(x, dtype=float)
    _check_schur_weight(params, gamma, p)
    rate = params.rate
    gp = gamma / p
    front = (rate / (rate + gp)) ** (params.alpha + 1.0)
    out = front * np.exp(x * gp * (gp - params.beta) / (rate + gp))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class SchurSecondResult:
    bound: float
    direct: float
    hypothesis_ok: bool  # gamma <= p beta


def schur_second_integral(
    params: OperatorParams, gamma: float, p: float, t: float
) -> SchurSecondResult:
    """x-integral of the conjugated kernel at fixed t, against its stated bound.

    direct = e^(-gamma t / p) * integral_0^inf e^(gamma x / p) K_n(x, t) dx
    (by quadrature on [0, x_hi], an x cut placed by a fixed heuristic past
    the active k, not certified); bound is the stated majorant
    (1 - gamma/(np))^(-1) E_n(t (1 - gamma/(np))^(-1)).  Both are returned;
    the comparison is the caller's to draw.
    """
    if not math.isfinite(t):
        raise ParameterError("schur_t_not_finite", f"requires finite t, got {t}")
    if not t > 0:
        raise ParameterError("schur_t_nonpositive", f"requires t > 0, got {t}")
    _check_schur_weight(params, gamma, p)
    c = 1.0 / (1.0 - gamma / (params.n * p))
    bound = c * schur_E(params, t * c)
    # x cut: per-k integrands ~ x^k e^{-(n - gamma/p) x}; the active k are
    # those where the gamma density at t is alive
    u = params.rate * t
    k_top = u + 12.0 * math.sqrt(u + 1.0) + 40.0
    decay = params.n - gamma / p
    x_hi = (k_top + 12.0 * math.sqrt(k_top) + 60.0) / decay
    edges = np.linspace(0.0, x_hi, _SCHUR_PANELS + 1)
    xs, ws = panel_rule(edges, _SCHUR_NODES)
    kern = kernel_on_x_grid(xs, t, params)
    direct = math.exp(-gamma * t / p) * float(_dot(np.exp(gamma * xs / p) * kern, ws))
    return SchurSecondResult(bound, direct, weight_hypothesis(params, gamma, p))


# -- rate fitting ----------------------------------------------------------------


def rate_slope(rows: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(error) against log(n); zero errors excluded.

    Every n must be finite and > 0 and every error finite, or there is no
    log to fit (:class:`DegenerateDataError`).
    """
    bad = [(n, e) for n, e in rows if not (math.isfinite(n) and n > 0 and math.isfinite(e))]
    if bad:
        raise DegenerateDataError(f"needs finite n > 0 and finite errors, got {bad[0]}")
    usable = [(n, e) for n, e in rows if e > 0.0]
    if len(usable) < 3:
        raise DegenerateDataError(
            f"need >= 3 rows with positive error to fit a slope, got {len(usable)}"
        )
    ns = np.log([n for n, _ in usable])
    es = np.log([e for _, e in usable])
    dn = ns - ns.mean()
    return float(_dot(dn, es - es.mean()) / _dot(dn, dn))
