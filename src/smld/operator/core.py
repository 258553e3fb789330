"""Application of the Laguerre-weighted Durrmeyer operator and its kernel.

The operator applied to f at x is sum_k c_k(f) psi_{n,k}(x), where c_k(f)
is the mean of f under a Gamma(k + alpha + 1, n - beta) law and psi are
Poisson weights.  Every value here is one such k-sum, sum_k v_k psi_{n,k}(x),
computed by ``_poisson_sum`` on a grid of x: v_k = c_k(f) for the operator
(a single point is a grid of one), the gamma density at t for the kernel
and f(k/n) for the Szasz operator.  Its ingredients:

* ``coefficient`` -- one certified gamma-density mean (cached per
  (f, k, params, policy); the cache is write-once and safe to share),
* one certified two-sided k window per block of up to 128 x
  (``_k_window``): through the growth envelope of f, the terms below and
  above it weigh at most 1% of eps_tail each, bounded by tilted Poisson
  tails; ``k_max`` caps its width,
* log-domain Poisson weights on arrays from :mod:`smld.special`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from ..errors import ParameterError, TruncationError
from ..special import log_poisson_weights
from .functions import TestFunction
from .params import DEFAULT_TRUNCATION, OperatorParams, TruncationPolicy, validate
from .quadrature import gamma_mean

__all__ = [
    "coefficient",
    "apply_operator",
    "apply_operator_grid",
    "value_at_zero",
    "kernel",
    "kernel_on_x_grid",
    "apply_szasz",
    "growth_bound",
]


_BLOCK = 128  # grid rows per Poisson weight matrix


@lru_cache(maxsize=None)
def _coefficient_cached(
    f: TestFunction, k: int, params: OperatorParams, policy: TruncationPolicy
) -> float:
    rate = params.rate
    shape = k + params.alpha + 1.0
    tilt = f.growth_a / rate
    kinks_u = tuple(rate * t for t in f.kinks if t > 0.0)
    return gamma_mean(
        lambda u: f(u / rate),
        shape,
        policy.eps_quad,
        kinks=kinks_u,
        tilt=tilt,
        env_k=f.growth_k,
        endpoint_power=f.endpoint_power,
    )


def coefficient(
    f: TestFunction, k: int, params: OperatorParams, policy: TruncationPolicy | None = None
) -> float:
    """c_k(f): the mean of f under Gamma(k + alpha + 1, n - beta)."""
    if k < 0 or k != int(k):
        raise ParameterError("coefficient_index", f"k must be a nonnegative integer, got {k}")
    policy = policy or DEFAULT_TRUNCATION
    validate(params, f)
    return _coefficient_cached(f, int(k), params, policy)


def value_at_zero(
    f: TestFunction, params: OperatorParams, policy: TruncationPolicy | None = None
) -> float:
    """Operator value at x = 0 (the interpolation point): exactly c_0(f)."""
    policy = policy or DEFAULT_TRUNCATION
    validate(params, f)
    return _coefficient_cached(f, 0, params, policy)


def growth_bound(params: OperatorParams, f: TestFunction, x: float) -> float:
    """Exponential-class bound K (rate/(rate-A))^(alpha+1) exp(n x A / (rate-A))."""
    validate(params, f)
    rate = params.rate
    a = f.growth_a
    return (
        f.growth_k
        * (rate / (rate - a)) ** (params.alpha + 1.0)
        * math.exp(params.n * x * a / (rate - a))
    )


def _first(ok, k: int, step: int) -> int:
    """First of k, k + step, k + 2 step, ... where the monotone test ``ok``
    holds: gallop out by doubling strides, then bisect back."""
    lo, hi = -1, 0  # ok fails at k + lo * step and is tested at k + hi * step
    while not ok(k + hi * step):
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(k + mid * step) else (mid, hi)
    return k + hi * step


def _k_window(
    lam_lo: float, lam_hi: float, log_tol: float, policy: TruncationPolicy
) -> tuple[int, int]:
    """Certified k window [k_lo, k_hi] for Poisson means in [lam_lo, lam_hi].

    The Poisson(lam_lo) mass below k_lo and the Poisson(lam_hi) mass above
    k_hi are each at most 1% of e^log_tol.  A tail is bounded by its first
    neglected weight psi_j over one minus the neighbour ratio (psi_{j+1}/psi_j
    = lam/(j+1)), so each edge is one integer search on scalar log weights.
    Raises TruncationError if the window is wider than k_max.
    """
    log_target = math.log(0.01) + log_tol

    def bound_ok(lam, j, ratio):  # psi_j(lam) / (1 - ratio) <= e^log_target
        log_psi = j * math.log(lam) - lam - math.lgamma(j + 1.0)
        return log_psi - math.log1p(-ratio) <= log_target

    k_lo = k_hi = 0
    if lam_lo > 0.0:
        lower_ok = lambda k: k <= 0 or bound_ok(lam_lo, k - 1, (k - 1) / lam_lo)
        k_lo = k_hi = _first(lower_ok, math.ceil(lam_lo), -1)
    if lam_hi > 0.0:
        upper_ok = lambda k: bound_ok(lam_hi, k + 1, lam_hi / (k + 2))
        k_hi = _first(upper_ok, max(k_lo, math.floor(lam_hi)), 1)
    if k_hi - k_lo + 1 > policy.k_max:
        raise TruncationError(f"k window [{k_lo}, {k_hi}] is wider than k_max = {policy.k_max}")
    return k_lo, k_hi


def _poisson_sum(n: float, xs: np.ndarray, values: np.ndarray, k_lo: int) -> np.ndarray:
    """sum_j values[j] psi_{n, k_lo + j}(x) for each x in xs: the one k-sum."""
    kk = np.arange(k_lo, k_lo + len(values), dtype=float)
    return np.exp(log_poisson_weights(n * xs[:, None], kk)) @ values


def _windowed_sum(n: float, xs: np.ndarray, window, values) -> np.ndarray:
    """The one k-sum on a grid, in blocks of up to 128 rows.

    Each block sums over its own k window ``window(x_min, x_max)``;
    ``values(ks)`` gives v_k once, on the sorted union ks of the windows.
    """
    blocks = [xs[i : i + _BLOCK] for i in range(0, len(xs), _BLOCK)]
    windows = [window(float(b.min()), float(b.max())) for b in blocks]
    ks = np.unique(np.concatenate([np.arange(lo, hi + 1) for lo, hi in windows]))
    vals = np.asarray(values(ks), dtype=float)
    cuts = np.searchsorted(ks, np.add(windows, (0, 1)))  # each window's slice of ks
    sums = [
        _poisson_sum(n, b, vals[i:j], lo) for b, (i, j), (lo, _) in zip(blocks, cuts, windows)
    ]
    return np.concatenate(sums)


def _operator_values(
    f: TestFunction, xs, params: OperatorParams, policy: TruncationPolicy | None
) -> np.ndarray:
    policy = policy or DEFAULT_TRUNCATION
    validate(params, f)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(xs < 0):
        raise ParameterError("x_negative", f"requires x >= 0, got {xs.min()}")
    n = params.n
    rho = params.rate / (params.rate - f.growth_a)
    # |c_k| psi_k(x) <= K_f rho^(alpha+1) e^(nx(rho-1)) psi_k(nx rho): tilted
    # Poisson tails, the lower one largest at a block's smallest x and the
    # upper one (and the constant) at its largest
    log_env = math.log(policy.eps_tail / f.growth_k) - (params.alpha + 1.0) * math.log(rho)

    def window(lo, hi):
        return _k_window(n * rho * lo, n * rho * hi, log_env - n * hi * (rho - 1.0), policy)

    def coefficients(ks):
        return [_coefficient_cached(f, k, params, policy) for k in ks.tolist()]

    return _windowed_sum(n, xs, window, coefficients)


def apply_operator(
    f: TestFunction, x: float, params: OperatorParams, policy: TruncationPolicy | None = None
) -> float:
    """Apply the operator to f at a single point x >= 0: the grid path at one point."""
    return float(_operator_values(f, x, params, policy)[0])


def apply_operator_grid(
    f: TestFunction, xs, params: OperatorParams, policy: TruncationPolicy | None = None
) -> np.ndarray:
    """Operator values on a grid of x >= 0.

    One coefficient vector serves the whole grid.  Rows are summed in
    blocks of 128, each over one certified k window for the block's
    smallest and largest x; a one-point grid is :func:`apply_operator`.
    """
    return _operator_values(f, xs, params, policy)


def kernel(
    x: float, t: float, params: OperatorParams, policy: TruncationPolicy | None = None
) -> float:
    """Kernel K_n(x, t): for each x a probability density in t."""
    validate(params)
    if x < 0 or t < 0:
        raise ParameterError("kernel_domain", f"requires x, t >= 0, got x = {x}, t = {t}")
    if t == 0.0:
        # only the k = 0 term can contribute; t^alpha at t = 0
        if params.alpha > 0:
            return 0.0
        if params.alpha == 0:
            return params.rate * math.exp(-params.n * x)
        return math.inf
    return float(kernel_on_x_grid([x], t, params, policy)[0])


def kernel_on_x_grid(
    xs, t: float, params: OperatorParams, policy: TruncationPolicy | None = None
) -> np.ndarray:
    """K_n(x, t) on an x grid for fixed t > 0: the k-sum of gamma densities at t."""
    policy = policy or DEFAULT_TRUNCATION
    validate(params)
    if not t > 0:
        raise ParameterError("kernel_domain", f"grid kernel requires t > 0, got {t}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(xs < 0):
        raise ParameterError("kernel_domain", "grid must satisfy x >= 0")
    n = params.n
    rate = params.rate
    al = params.alpha
    u = rate * t

    def log_density(k):
        return math.log(rate) + (k + al) * math.log(u) - u - gammaln(k + al + 1.0)

    # gamma densities at t are bounded by rate for k + alpha >= 1 and by the
    # k = 0 density below, so plain Poisson tails certify each block's window ...
    log_tol = math.log(policy.eps_tail) - max(math.log(rate), log_density(0))
    # ... intersected with the k range where the gamma density at t is alive
    k_cut = int(max(2.0 * u, u + 12.0 * math.sqrt(u + 1.0)) + 50.0)
    while math.log(2.0) + log_density(k_cut) > math.log(policy.eps_tail):
        k_cut = int(k_cut * 1.3) + 8

    def window(lo, hi):
        k_lo, k_hi = _k_window(n * lo, n * hi, log_tol, policy)
        return k_lo, min(k_hi, k_cut)

    return _windowed_sum(n, xs, window, lambda ks: np.exp(log_density(ks)))


def apply_szasz(
    f: TestFunction, x: float, n: float, policy: TruncationPolicy | None = None
) -> float:
    """Classical Szasz operator e^(-nx) sum_k (nx)^k/k! f(k/n)."""
    policy = policy or DEFAULT_TRUNCATION
    if not n > 0:
        raise ParameterError("szasz_n", f"requires n > 0, got {n}")
    if not n > f.growth_a:
        raise ParameterError(
            "szasz_growth", f"requires n > A for growth class A = {f.growth_a}, got n = {n}"
        )
    if x < 0:
        raise ParameterError("x_negative", f"requires x >= 0, got {x}")
    # |f(k/n)| <= K_f rho^k with rho = e^(A/n): a tilted Poisson tail on each side
    rho = math.exp(f.growth_a / n)
    log_tol = math.log(policy.eps_tail / f.growth_k) - n * x * math.expm1(f.growth_a / n)
    k_lo, k_hi = _k_window(n * x * rho, n * x * rho, log_tol, policy)
    vals = np.asarray(f(np.arange(k_lo, k_hi + 1) / n), dtype=float)
    return float(_poisson_sum(n, np.array([float(x)]), vals, k_lo)[0])
