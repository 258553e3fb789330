"""Application of the Laguerre-weighted Durrmeyer operator and its kernel.

The operator applied to f at x is sum_k c_k(f) psi_{n,k}(x), where c_k(f)
is the mean of f under a Gamma(k + alpha + 1, n - beta) law and psi are
Poisson weights.  Everything here reduces to three ingredients:

* ``coefficient`` -- one certified gamma-density mean (cached per
  (f, k, params, policy); the cache is write-once and safe to share),
* a truncation level K such that the neglected tail, bounded through the
  growth envelope of f by a tilted Poisson tail, stays below eps_tail,
* stable log-domain Poisson weights from :mod:`smld.special`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from ..errors import ParameterError, TruncationError
from ..special import poisson_weight_log, reg_lower_gamma
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


def apply_operator(
    f: TestFunction, x: float, params: OperatorParams, policy: TruncationPolicy | None = None
) -> float:
    """Apply the operator to f at a single point x >= 0."""
    policy = policy or DEFAULT_TRUNCATION
    validate(params, f)
    if x < 0:
        raise ParameterError("x_negative", f"requires x >= 0, got {x}")
    if x == 0.0:
        return _coefficient_cached(f, 0, params, policy)
    big_k = _truncation_k(params, f.growth_a, f.growth_k, x, policy)
    rate = params.rate
    log_rho = -math.log1p(-f.growth_a / rate)  # ln(rate/(rate-A))
    # terms whose envelope-weighted Poisson mass cannot reach eps_tail/(K+1)
    # are skipped without computing their coefficient
    skip_below = math.log(policy.eps_tail) - math.log(big_k + 1.0) - math.log(max(f.growth_k, 1.0))
    terms = []
    for k in range(big_k + 1):
        lw = poisson_weight_log(params.n, x, k)
        if lw + (k + params.alpha + 1.0) * log_rho < skip_below:
            continue
        terms.append(_coefficient_cached(f, k, params, policy) * math.exp(lw))
    return math.fsum(terms)


def apply_operator_grid(
    f: TestFunction,
    xs,
    params: OperatorParams,
    policy: TruncationPolicy | None = None,
    chunk: int = 128,
) -> np.ndarray:
    """Vectorized operator evaluation on a grid of x values.

    Shares one coefficient array across the whole grid; the Poisson weight
    matrix is assembled per chunk in log domain.  Agrees with
    :func:`apply_operator` to well below every analysis tolerance (the grid
    path computes log-weights directly, which costs ~1e-12 relative near
    the largest nx instead of the pointwise path's ~1e-14).
    """
    policy = policy or DEFAULT_TRUNCATION
    validate(params, f)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(xs < 0):
        raise ParameterError("x_negative", "grid must satisfy x >= 0")
    out = np.empty_like(xs)
    xmax = float(xs.max())
    c0 = _coefficient_cached(f, 0, params, policy)
    if xmax == 0.0:
        out[:] = c0
        return out
    big_k = _truncation_k(params, f.growth_a, f.growth_k, xmax, policy)
    coeffs = np.array(
        [_coefficient_cached(f, k, params, policy) for k in range(big_k + 1)]
    )
    kk = np.arange(big_k + 1)
    lgk = gammaln(kk + 1.0)
    n = params.n
    for lo in range(0, len(xs), chunk):
        xc = xs[lo : lo + chunk]
        pos = xc > 0.0
        if np.any(pos):
            lam = n * xc[pos]
            logw = kk[None, :] * np.log(lam)[:, None] - lam[:, None] - lgk[None, :]
            out_pos = np.exp(logw) @ coeffs
            block = np.empty(len(xc))
            block[pos] = out_pos
            block[~pos] = c0
            out[lo : lo + chunk] = block
        else:
            out[lo : lo + chunk] = c0
    return out


def kernel(
    x: float, t: float, params: OperatorParams, policy: TruncationPolicy | None = None
) -> float:
    """Kernel K_n(x, t): for each x a probability density in t."""
    policy = policy or DEFAULT_TRUNCATION
    validate(params)
    if x < 0 or t < 0:
        raise ParameterError("kernel_domain", f"requires x, t >= 0, got x = {x}, t = {t}")
    rate = params.rate
    al = params.alpha
    if t == 0.0:
        # only the k = 0 term can contribute; t^alpha at t = 0
        if al > 0:
            return 0.0
        if al == 0:
            return rate * math.exp(-params.n * x)
        return math.inf
    u = rate * t
    if x == 0.0:
        return math.exp(math.log(rate) + al * math.log(u) - u - math.lgamma(al + 1.0))
    # gamma densities are bounded by rate for every k >= 1, so a plain
    # Poisson tail certifies the cut
    big_k = _poisson_window(params.n * x, policy.eps_tail / rate, policy)
    log_rate = math.log(rate)
    log_u = math.log(u)
    terms = []
    for k in range(big_k + 1):
        lw = poisson_weight_log(params.n, x, k)
        ld = log_rate + (k + al) * log_u - u - math.lgamma(k + al + 1.0)
        terms.append(math.exp(lw + ld))
    return math.fsum(terms)


def kernel_on_x_grid(
    xs, t: float, params: OperatorParams, policy: TruncationPolicy | None = None
) -> np.ndarray:
    """K_n(x, t) on an x grid for fixed t > 0 (vectorized over x and k)."""
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
    n = params.n
    xmax = float(xs.max())
    # x-side Poisson tail cut at the largest x ...
    big_k = _poisson_window(n * xmax, policy.eps_tail / rate, policy) if xmax > 0 else 0
    # ... intersected with the k range where the gamma density at t is alive
    k_cut = int(max(2.0 * u, u + 12.0 * math.sqrt(u + 1.0)) + 50.0)
    while True:
        log_tail = math.log(rate) + (k_cut + al) * math.log(u) - u - math.lgamma(k_cut + al + 1.0)
        if math.log(2.0) + log_tail <= math.log(policy.eps_tail):
            break
        k_cut = int(k_cut * 1.3) + 8
        if k_cut > policy.k_max:
            raise TruncationError("kernel truncation exceeded k_max")
    big_k = min(big_k, k_cut)
    kk = np.arange(big_k + 1.0)
    logdens = math.log(rate) + (kk + al) * np.log(u) - u - gammaln(kk + al + 1.0)
    out = np.empty_like(xs)
    pos = xs > 0
    if np.any(pos):
        lam = n * xs[pos]
        logw = kk[None, :] * np.log(lam)[:, None] - lam[:, None] - gammaln(kk + 1.0)[None, :]
        out[pos] = np.exp(logw + logdens[None, :]).sum(axis=1)
    out[~pos] = math.exp(logdens[0])
    return out


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
    if x == 0.0:
        return float(f(0.0))
    rho = math.exp(f.growth_a / n)
    lam = n * x * rho
    const = f.growth_k * math.exp(n * x * (rho - 1.0))
    big_k = _poisson_window(lam, policy.eps_tail / const, policy)
    kk = np.arange(big_k + 1)
    vals = np.asarray(f(kk / n), dtype=float)
    terms = [
        float(vals[k]) * math.exp(poisson_weight_log(n, x, k)) for k in range(big_k + 1)
    ]
    return math.fsum(terms)
