"""Application of the Laguerre-weighted Durrmeyer operator and its kernel.

The operator applied to f at x is sum_k c_k(f) psi_{n,k}(x), where c_k(f)
is the mean of f under a Gamma(k + alpha + 1, n - beta) law and psi are
Poisson weights.  Every value here is one such k-sum, sum_k v_k psi_{n,k}(x),
computed by ``_poisson_sum`` on a grid of x: v_k = c_k(f) for the operator
(a single point is a grid of one), the gamma density at t for the kernel
and f(k/n) for the Szasz operator.  Its ingredients:

* ``coefficient`` -- one certified gamma-density mean (cached per
  (f, k, params, policy); the cache is write-once and safe to share),
* a truncation level K such that the neglected tail, bounded through the
  growth envelope of f by a tilted Poisson tail, stays below eps_tail,
* log-domain Poisson weights on arrays from :mod:`smld.special`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from ..errors import ParameterError, TruncationError
from ..special import log_poisson_weights, reg_lower_gamma
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


def _panel_nodes(policy: TruncationPolicy) -> int:
    return max(8, min(64, policy.quad_nodes // 6))


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
        nodes=_panel_nodes(policy),
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


def _poisson_window(lam: float, target: float, policy: TruncationPolicy) -> int:
    """Smallest K on the growth schedule with P(K + 1, lam) <= target.

    P(K + 1, lam) is the Poisson(lam) mass above K; K starts a few standard
    deviations above the mean and grows geometrically.  Raises
    TruncationError before testing any K above k_max.
    """
    k = int(lam + 10.0 * math.sqrt(lam + 1.0) + 20.0)
    while True:
        if k > policy.k_max:
            raise TruncationError(
                f"certified truncation needs K > k_max = {policy.k_max} (Poisson mean {lam})"
            )
        if reg_lower_gamma(k + 1.0, lam) <= target:
            return k
        k = int(k * 1.3) + 8


def _truncation_k(
    params: OperatorParams, growth_a: float, growth_k: float, x: float, policy: TruncationPolicy
) -> int:
    """Smallest-ish K with the certified coefficient-weighted tail <= eps_tail.

    sum_{k>K} |c_k| psi_{n,k}(x) <= K_f rho^(alpha+1) e^(nx(rho-1)) P(K+1, nx rho)
    with rho = rate/(rate - A): the growth envelope turns the tail into a
    tilted Poisson tail, evaluated exactly via the incomplete gamma.
    """
    if x == 0.0:
        return 0
    rate = params.rate
    rho = rate / (rate - growth_a)
    lam = params.n * x * rho
    const = growth_k * rho ** (params.alpha + 1.0) * math.exp(params.n * x * (rho - 1.0))
    return _poisson_window(lam, policy.eps_tail / const, policy)


def _poisson_sum(n: float, xs: np.ndarray, values: np.ndarray, k_lo: int) -> np.ndarray:
    """sum_j values[j] psi_{n, k_lo + j}(x) for each x in xs: the one k-sum."""
    kk = np.arange(k_lo, k_lo + len(values), dtype=float)
    return np.exp(log_poisson_weights(n * xs[:, None], kk)) @ values


def _operator_values(
    f: TestFunction, xs, params: OperatorParams, policy: TruncationPolicy | None
) -> np.ndarray:
    policy = policy or DEFAULT_TRUNCATION
    validate(params, f)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(xs < 0):
        raise ParameterError("x_negative", f"requires x >= 0, got {xs.min()}")
    n = params.n
    big_k = _truncation_k(params, f.growth_a, f.growth_k, float(xs.max()), policy)
    kk = np.arange(big_k + 1.0)
    # terms whose envelope-weighted Poisson mass cannot reach eps_tail/(K+1)
    # are skipped without computing their coefficient.  psi_k(x) falls with
    # x for k < nx and rises for k > nx, so a block's smallest and largest x
    # decide the skip for every row of the block; a k between their nx
    # peaks inside the block and is kept.
    log_env = (kk + params.alpha + 1.0) * -math.log1p(-f.growth_a / params.rate)
    skip_below = math.log(policy.eps_tail) - math.log(big_k + 1.0) - math.log(max(f.growth_k, 1.0))
    blocks = [xs[lo : lo + _BLOCK] for lo in range(0, len(xs), _BLOCK)]
    windows = []
    for block in blocks:
        ends = n * np.array([block.min(), block.max()])
        alive = np.any(log_poisson_weights(ends[:, None], kk) + log_env >= skip_below, axis=0)
        alive |= (kk > ends[0]) & (kk < ends[1])
        hits = np.flatnonzero(alive)
        windows.append((hits[0], hits[-1] + 1) if hits.size else (0, 0))
    needed = np.zeros(big_k + 1, dtype=bool)
    for a, b in windows:
        needed[a:b] = True
    coeffs = np.zeros(big_k + 1)
    ks = np.flatnonzero(needed).tolist()
    coeffs[ks] = [_coefficient_cached(f, k, params, policy) for k in ks]
    return np.concatenate(
        [_poisson_sum(n, block, coeffs[a:b], a) for block, (a, b) in zip(blocks, windows)]
    )


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
    blocks of 128, each over the k window that the envelope skip keeps at
    the block's smallest and largest x; a one-point grid is
    :func:`apply_operator`.
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
    rate = params.rate
    al = params.alpha
    u = rate * t
    xmax = float(xs.max())
    # gamma densities are bounded by rate for every k >= 1, so a plain
    # Poisson tail at the largest x certifies the x-side cut ...
    big_k = _poisson_window(params.n * xmax, policy.eps_tail / rate, policy) if xmax > 0 else 0

    def log_density(k):
        return math.log(rate) + (k + al) * math.log(u) - u - gammaln(k + al + 1.0)

    # ... intersected with the k range where the gamma density at t is alive
    k_cut = int(max(2.0 * u, u + 12.0 * math.sqrt(u + 1.0)) + 50.0)
    while k_cut < big_k and math.log(2.0) + log_density(k_cut) > math.log(policy.eps_tail):
        k_cut = int(k_cut * 1.3) + 8
    kk = np.arange(min(big_k, k_cut) + 1.0)
    return _poisson_sum(params.n, xs, np.exp(log_density(kk)), 0)


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
    rho = math.exp(f.growth_a / n)
    const = f.growth_k * math.exp(n * x * (rho - 1.0))
    big_k = _poisson_window(n * x * rho, policy.eps_tail / const, policy)
    vals = np.asarray(f(np.arange(big_k + 1) / n), dtype=float)
    return float(_poisson_sum(n, np.array([float(x)]), vals, 0)[0])
