"""Empirical convergence lab: sup norms, weighted norms, L_p errors, Schur
quantities, and rate fitting.

Sup norms over intervals are grid maxima (default 2001 points, declared
kinks added as grid points) with one golden-section refinement around the
grid argmax.  The Korovkin differences for the test set {1, t, t^2} have
exact rational/sqrt closed forms, so those norms are evaluated without any
quadrature.  None of the bound constants are assumed anywhere: reports
carry measured values along with the n grid that produced them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateDataError, ParameterError
from .operator import (
    OperatorParams,
    TestFunction,
    TruncationPolicy,
    apply_operator,
    apply_operator_grid,
    kernel_on_x_grid,
    validate,
)
from .operator.quadrature import panel_rule
from .special import reg_lower_gamma

__all__ = [
    "NormSpec",
    "ConvergenceReport",
    "SchurSecondResult",
    "modulus_of_continuity",
    "sup_abs_on_interval",
    "operator_sup_error",
    "compact_estimate_check",
    "weighted_phi_norm",
    "korovkin_weighted_check",
    "lp_error",
    "weighted_lp_error",
    "schur_E",
    "schur_lemma_applicable",
    "schur_first_integral",
    "schur_second_integral",
    "rate_slope",
]

_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden ratio step


@dataclass(frozen=True)
class NormSpec:
    """Which error norm a convergence experiment uses.

    kinds: ``sup_compact`` (interval [0, a]), ``weighted_phi`` (sup of
    |g|/(1+x^2) on [0, x_max]), ``lp`` (L_p on [0, r_cut]), ``weighted_lp``
    (L_p with weight e^(gamma x) on [0, r_max]).
    """

    kind: str
    a: float | None = None
    x_max: float | None = None
    p: float | None = None
    r_cut: float | None = None
    gamma: float | None = None
    r_max: float | None = None
    grid_points: int = 2001

    def __post_init__(self):
        kinds = ("sup_compact", "weighted_phi", "lp", "weighted_lp")
        if self.kind not in kinds:
            raise ParameterError("norm_kind", f"kind must be one of {kinds}, got {self.kind!r}")
        if self.kind == "sup_compact" and not (self.a and self.a > 0):
            raise ParameterError("norm_interval", "sup_compact needs a > 0")
        if self.kind == "weighted_phi" and not (self.x_max and self.x_max > 0):
            raise ParameterError("norm_interval", "weighted_phi needs x_max > 0")
        if self.kind in ("lp", "weighted_lp"):
            if self.p is None or self.p < 1:
                raise ParameterError("norm_p", f"p must be >= 1, got {self.p}")
            cut = self.r_cut if self.kind == "lp" else self.r_max
            if not (cut and cut > 0):
                raise ParameterError("norm_interval", "lp norms need a positive cutoff")
            if self.kind == "weighted_lp" and (self.gamma is None or self.gamma < 0):
                raise ParameterError("norm_gamma", f"gamma must be >= 0, got {self.gamma}")

    @classmethod
    def sup_compact(cls, a: float, grid_points: int = 2001) -> "NormSpec":
        return cls("sup_compact", a=a, grid_points=grid_points)

    @classmethod
    def weighted_phi(cls, x_max: float, grid_points: int = 2001) -> "NormSpec":
        return cls("weighted_phi", x_max=x_max, grid_points=grid_points)

    @classmethod
    def lp(cls, p: float, r_cut: float) -> "NormSpec":
        return cls("lp", p=p, r_cut=r_cut)

    @classmethod
    def weighted_lp(cls, p: float, gamma: float, r_max: float) -> "NormSpec":
        return cls("weighted_lp", p=p, gamma=gamma, r_max=r_max)


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-n errors in one norm plus the fitted log-log slope."""

    f_label: str
    norm: NormSpec
    rows: tuple[tuple[float, float], ...]
    fitted_slope: float | None
    bound_constant: float | None = None
    ratios: tuple[float, ...] | None = None


# -- sup norms ---------------------------------------------------------------


def _grid_with_kinks(lo: float, hi: float, points: int, kinks: Sequence[float]) -> np.ndarray:
    grid = np.linspace(lo, hi, points)
    inner = [k for k in kinks if lo < k < hi]
    if inner:
        grid = np.unique(np.concatenate([grid, np.asarray(inner, dtype=float)]))
    return grid


def _golden_max(g: Callable[[float], float], lo: float, hi: float, iters: int = 40) -> float:
    """Golden-section maximum of g on [lo, hi] (refinement step only)."""
    a, b = lo, hi
    c = b - _PHI * (b - a)
    d = a + _PHI * (b - a)
    fc, fd = g(c), g(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _PHI * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + _PHI * (b - a)
            fd = g(d)
    return max(fc, fd)


def sup_abs_on_interval(
    g_grid: Callable[[np.ndarray], np.ndarray],
    g_point: Callable[[float], float] | None,
    lo: float,
    hi: float,
    grid_points: int = 2001,
    kinks: Sequence[float] = (),
) -> float:
    """sup |g| on [lo, hi]: grid max plus golden-section refinement.

    ``g_grid`` evaluates on arrays; ``g_point`` (if given) is used for the
    refinement around the grid argmax.
    """
    grid = _grid_with_kinks(lo, hi, grid_points, kinks)
    vals = np.abs(np.asarray(g_grid(grid), dtype=float))
    i = int(np.argmax(vals))
    best = float(vals[i])
    if g_point is not None:
        a = grid[max(i - 1, 0)]
        b = grid[min(i + 1, len(grid) - 1)]
        if b > a:
            best = max(best, _golden_max(lambda x: abs(g_point(x)), a, b))
    return best


def modulus_of_continuity(
    f, delta: float, a: float, grid_points: int = 2001
) -> float:
    """omega(f, delta) = sup { |f(t) - f(x)| : x, t in [0, a], |t - x| <= delta }.

    Grid pairs plus a local fine scan around the maximizing pair.
    """
    if not (0 < delta <= a):
        raise ParameterError("modulus_delta", f"requires 0 < delta <= a, got {delta}")
    kinks = f.kinks if isinstance(f, TestFunction) else ()
    grid = _grid_with_kinks(0.0, a, grid_points, kinks)
    vals = np.asarray(f(grid), dtype=float)
    # rows in blocks of 128, so no grid_points^2 array is built; a later
    # block must be strictly larger, which keeps the first maximal pair
    best, i, j = -1.0, 0, 0
    for r in range(0, len(grid), 128):
        close = np.abs(grid[r : r + 128, None] - grid[None, :]) <= delta
        diffs = np.where(close, np.abs(vals[r : r + 128, None] - vals[None, :]), 0.0)
        at = int(np.argmax(diffs))
        if diffs.flat[at] > best:
            best = float(diffs.flat[at])
            i, j = divmod(at, len(grid))
            i += r
    # local refinement around the maximizing pair
    h = float(grid[1] - grid[0])
    ti = np.clip(np.linspace(grid[i] - h, grid[i] + h, 41), 0.0, a)
    tj = np.clip(np.linspace(grid[j] - h, grid[j] + h, 41), 0.0, a)
    vi = np.asarray(f(ti), dtype=float)
    vj = np.asarray(f(tj), dtype=float)
    ok = np.abs(ti[:, None] - tj[None, :]) <= delta
    local = np.where(ok, np.abs(vi[:, None] - vj[None, :]), 0.0)
    return max(best, float(np.max(local)))


def operator_sup_error(
    f: TestFunction,
    params: OperatorParams,
    a: float,
    policy: TruncationPolicy | None = None,
    grid_points: int = 2001,
) -> float:
    """E_n = sup_{x in [0, a]} |M f(x) - f(x)| (grid + refinement)."""
    validate(params, f)

    def on_grid(xs):
        return apply_operator_grid(f, xs, params, policy) - np.asarray(f(xs), dtype=float)

    def at_point(x):
        return apply_operator(f, x, params, policy) - float(f(x))

    return sup_abs_on_interval(on_grid, at_point, 0.0, a, grid_points, f.kinks)


def compact_estimate_check(
    f: TestFunction,
    n_grid: Sequence[float],
    alpha: float,
    beta: float,
    a: float,
    policy: TruncationPolicy | None = None,
    grid_points: int = 2001,
) -> ConvergenceReport:
    """Sup error on [0, a] per n plus the measured ratio E_n / omega(f, 1/sqrt n).

    The max ratio over the grid is the measured stand-in for the
    quantitative-estimate constant; no value is assumed for it.
    """
    rows = []
    ratios = []
    for n in n_grid:
        params = OperatorParams(float(n), alpha, beta)
        e_n = operator_sup_error(f, params, a, policy, grid_points)
        omega = modulus_of_continuity(f, 1.0 / math.sqrt(n), a, grid_points)
        rows.append((float(n), e_n))
        ratios.append(e_n / omega if omega > 0 else math.inf)
    slope = None
    if len(rows) >= 3 and all(e > 0 for _, e in rows):
        slope = rate_slope(rows)
    return ConvergenceReport(
        f_label=f.label,
        norm=NormSpec.sup_compact(a, grid_points),
        rows=tuple(rows),
        fitted_slope=slope,
        bound_constant=max(ratios),
        ratios=tuple(ratios),
    )


def weighted_phi_norm(g: Callable, x_max: float, grid_points: int = 2001) -> float:
    """sup over [0, x_max] of |g(x)| / (1 + x^2).

    The tail beyond x_max is the caller's responsibility: for the Korovkin
    differences the closed forms make the tail explicit, for general g the
    cutoff is reported, not certified.
    """
    if not x_max > 0:
        raise ParameterError("norm_interval", f"requires x_max > 0, got {x_max}")

    def ratio_grid(xs):
        return np.asarray(g(xs), dtype=float) / (1.0 + xs**2)

    def ratio_point(x):
        val = np.asarray(g(np.asarray([x])), dtype=float).ravel()
        return float(val[0]) / (1.0 + x * x)

    return sup_abs_on_interval(ratio_grid, ratio_point, 0.0, x_max, grid_points)


# -- Korovkin test functions: exact weighted norms ----------------------------


def _sup_abs_linear_ratio(b: float, c: float) -> float:
    """sup over x >= 0 of |b x + c| / (1 + x^2), c >= 0."""
    if b == 0.0:
        return c
    ab = abs(b)
    # positive branch (b x + c for b > 0; |b| x - c beyond the root for b < 0)
    if b > 0:
        x = (-c + math.sqrt(c * c + b * b)) / b
        return (b * x + c) / (1.0 + x * x)
    x = (c + math.sqrt(c * c + ab * ab)) / ab
    return max(c, (ab * x - c) / (1.0 + x * x))


def _sup_quadratic_ratio(a: float, b: float, c: float) -> float:
    """sup over x >= 0 of (a x^2 + b x + c) / (1 + x^2) for a, b, c >= 0."""
    if b == 0.0:
        return max(a, c)
    x = ((a - c) + math.sqrt((a - c) ** 2 + b * b)) / b
    return max(a, c, (a * x * x + b * x + c) / (1.0 + x * x))


def korovkin_weighted_check(params: OperatorParams) -> tuple[float, float, float]:
    """Exact phi-weighted norms of M e_i - e_i for e_i = 1, t, t^2.

    Uses the closed moment formulas only -- no quadrature.  The e_0
    difference is identically 0; for e_1 and e_2 the suprema of rational
    functions are located by calculus.  Requires beta >= 0 (the difference
    coefficients are then single-signed, which the closed forms rely on).
    """
    validate(params)
    if params.beta < 0:
        raise ParameterError(
            "korovkin_beta_negative", "closed-form Korovkin norms require beta >= 0"
        )
    n, al, b = params.n, params.alpha, params.beta
    rate = params.rate
    e1 = _sup_abs_linear_ratio(b, al + 1.0) / rate
    a2 = b * (2.0 * n - b) / rate**2
    b2 = (2.0 * al + 4.0) * n / rate**2
    c2 = (al + 1.0) * (al + 2.0) / rate**2
    e2 = _sup_quadratic_ratio(a2, b2, c2)
    return 0.0, e1, e2


# -- L_p errors ----------------------------------------------------------------


def lp_error(
    f: TestFunction,
    params: OperatorParams,
    p: float,
    r_cut: float,
    policy: TruncationPolicy | None = None,
    panels: int = 48,
    nodes: int = 12,
) -> float:
    """(integral_0^R |M f - f|^p dx)^(1/p): the weighted L_p error at gamma = 0."""
    return weighted_lp_error(f, params, p, 0.0, r_cut, policy, panels, nodes)[0]


def weighted_lp_error(
    f: TestFunction,
    params: OperatorParams,
    p: float,
    gamma: float,
    r_max: float,
    policy: TruncationPolicy | None = None,
    panels: int = 48,
    nodes: int = 12,
) -> tuple[float, bool]:
    """(integral_0^Rmax |M f - f|^p e^(gamma x) dx)^(1/p), plus the flag
    gamma <= p beta (the weighted-convergence hypothesis; the value is
    computed either way and the flag reports applicability)."""
    if gamma < 0:
        raise ParameterError("norm_gamma", f"requires gamma >= 0, got {gamma}")
    if p < 1:
        raise ParameterError("norm_p", f"requires p >= 1, got {p}")
    if not r_max > 0:
        raise ParameterError("norm_interval", f"requires R > 0, got {r_max}")
    validate(params, f)
    edges = _grid_with_kinks(0.0, r_max, panels + 1, f.kinks)
    xs, ws = panel_rule(edges, nodes)
    diff = apply_operator_grid(f, xs, params, policy) - np.asarray(f(xs), dtype=float)
    value = float(np.dot(ws, np.abs(diff) ** p * np.exp(gamma * xs)) ** (1.0 / p))
    return value, gamma <= p * params.beta + 1e-15


# -- Schur-test quantities ------------------------------------------------------


def schur_lemma_applicable(params: OperatorParams) -> bool:
    """Parameter range the uniform x-integral bound is stated for."""
    return -0.5 <= params.alpha <= 0.0 and params.beta >= 0.0


def schur_E(params: OperatorParams, t: float) -> float:
    """E_n(t) = (1/n) (n-b)^(a+1) t^a gamma(a+1, (n-b)t) / Gamma(a+1).

    Out of the guaranteed range alpha in [-1/2, 0] the value is still
    computed (see :func:`schur_lemma_applicable`).  At t = 0 the limit is
    0 for alpha > -1/2, finite for alpha = -1/2, +inf below.
    """
    validate(params)
    if t < 0:
        raise ParameterError("schur_t_negative", f"requires t >= 0, got {t}")
    al = params.alpha
    rate = params.rate
    n = params.n
    if t == 0.0:
        if al > -0.5:
            return 0.0
        if al == -0.5:
            return (rate / n) * 2.0 / math.sqrt(math.pi)
        return math.inf
    z = rate * t
    return (1.0 / n) * rate ** (al + 1.0) * t**al * reg_lower_gamma(al + 1.0, z)


def schur_first_integral(params: OperatorParams, gamma: float, p: float, x: float) -> float:
    """Closed form of the conjugated kernel's t-integral at a fixed x:

        ((n-b) / (n-b+gamma/p))^(alpha+1) * exp(x (gamma/p) (gamma/p - b) / (n-b+gamma/p)).

    <= 1 for every x >= 0 exactly when gamma <= p beta.
    """
    validate(params)
    if x < 0:
        raise ParameterError("x_negative", f"requires x >= 0, got {x}")
    if gamma < 0:
        raise ParameterError("norm_gamma", f"requires gamma >= 0, got {gamma}")
    if not gamma < params.n * p:
        raise ParameterError(
            "schur_gamma_large", f"requires gamma < n p, got gamma = {gamma}, n p = {params.n * p}"
        )
    rate = params.rate
    gp = gamma / p
    front = (rate / (rate + gp)) ** (params.alpha + 1.0)
    return front * math.exp(x * gp * (gp - params.beta) / (rate + gp))


@dataclass(frozen=True)
class SchurSecondResult:
    bound: float
    direct: float
    hypothesis_ok: bool  # gamma <= p beta


def schur_second_integral(
    params: OperatorParams,
    gamma: float,
    p: float,
    t: float,
    policy: TruncationPolicy | None = None,
    panels: int = 24,
    nodes: int = 10,
) -> SchurSecondResult:
    """x-integral of the conjugated kernel at fixed t, against its stated bound.

    direct = e^(-gamma t / p) * integral_0^inf e^(gamma x / p) K_n(x, t) dx
    (by quadrature over a certified x range); bound is the stated majorant
    (1 - gamma/(np))^(-1) E_n(t (1 - gamma/(np))^(-1)).  Both are returned;
    the comparison is the caller's to draw.
    """
    validate(params)
    if not t > 0:
        raise ParameterError("schur_t_nonpositive", f"requires t > 0, got {t}")
    if gamma < 0:
        raise ParameterError("norm_gamma", f"requires gamma >= 0, got {gamma}")
    if not gamma < params.n * p:
        raise ParameterError(
            "schur_gamma_large", f"requires gamma < n p, got gamma = {gamma}, n p = {params.n * p}"
        )
    c = 1.0 / (1.0 - gamma / (params.n * p))
    bound = c * schur_E(params, t * c)
    # x cut: per-k integrands ~ x^k e^{-(n - gamma/p) x}; the active k are
    # those where the gamma density at t is alive
    u = params.rate * t
    k_top = u + 12.0 * math.sqrt(u + 1.0) + 40.0
    decay = params.n - gamma / p
    x_hi = (k_top + 12.0 * math.sqrt(k_top) + 60.0) / decay
    edges = np.linspace(0.0, x_hi, panels + 1)
    xs, ws = panel_rule(edges, nodes)
    kern = kernel_on_x_grid(xs, t, params, policy)
    direct = math.exp(-gamma * t / p) * float(np.dot(ws, np.exp(gamma * xs / p) * kern))
    return SchurSecondResult(bound=bound, direct=direct, hypothesis_ok=gamma <= p * params.beta + 1e-15)


# -- rate fitting ----------------------------------------------------------------


def rate_slope(rows: Sequence[tuple[float, float]] | ConvergenceReport) -> float:
    """Least-squares slope of log(error) against log(n); zero errors excluded."""
    if isinstance(rows, ConvergenceReport):
        rows = rows.rows
    usable = [(n, e) for n, e in rows if e > 0.0]
    if len(usable) < 3:
        raise DegenerateDataError(
            f"need >= 3 rows with positive error to fit a slope, got {len(usable)}"
        )
    ns = np.log([n for n, _ in usable])
    es = np.log([e for _, e in usable])
    return float(np.polyfit(ns, es, 1)[0])
