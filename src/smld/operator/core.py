"""Application of the Laguerre-weighted Durrmeyer operator and its kernel.

The operator applied to f at x is sum_k c_k(f) psi_{n,k}(x), where c_k(f)
is the mean of f under a Gamma(k + alpha + 1, n - beta) law and psi are
Poisson weights.  Every value here is one such k-sum, sum_k v_k psi_{n,k}(x),
computed by ``_poisson_sum`` on a grid of x: v_k = c_k(f) for the operator
(a single point is a grid of one), the gamma density at t for the kernel
and f(k/n) for the Szasz operator.  Its ingredients:

* ``coefficient`` -- one gamma-density mean, to the relative target 1e-12
  that ``gamma_mean`` holds, read out of its chunk: chunk j holds c_k for
  k in [j^2, (j+1)^2), computed by one ``gamma_mean(f, shapes, rate)``
  call and kept in a bounded LRU cache keyed by (f, j, params); chunk 0
  is {c_0}, and the read-only chunks are safe to share,
* one certified two-sided k window per block of up to 128 x
  (``_k_window``): through the growth envelope of f, the terms below and
  above it weigh at most 1% of ``_EPS_TAIL`` each, bounded by tilted
  Poisson tails; ``_K_MAX`` caps its width, and a block whose window is
  wider is split in halves,
* the one real-order psi_a(lam) of ``special``: its deviance kernel, run in
  place in row slabs, for the Poisson weights, and ``log_poisson_weights``
  for the kernel's gamma densities.

Each window end is one ``special._first`` search on ``special._log_tail``,
the tail bound the quadrature windows use too.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..errors import TruncationError, _require, _require_grid, _require_order, _require_points
from ..special import _dot, _first, _log_gamma_excess, _log_psi, _log_tail, log_poisson_weights
from .functions import TestFunction
from .params import OperatorParams, validate
from .quadrature import _SLAB_CELLS, gamma_mean

__all__ = [
    "coefficient",
    "apply_operator",
    "apply_operator_grid",
    "kernel_on_x_grid",
    "apply_szasz",
    "growth_bound",
]


_BLOCK = 128  # grid rows per Poisson weight matrix
_CHUNKS = 4096  # coefficient chunks kept per process

# The fixed tolerances: each neglected k-sum tail weighs at most 1% of
# _EPS_TAIL, and no certified k window may be wider than _K_MAX terms.
_EPS_TAIL = 1e-13
_K_MAX = 50_000


@lru_cache(maxsize=_CHUNKS)
def _coefficient_cached(f: TestFunction, j: int, params: OperatorParams) -> np.ndarray:
    """Chunk j of the coefficients: c_k for k in [j^2, (j+1)^2), one quadrature
    batch.  A chunk's rows depend only on k, so c_k is the same whichever
    call first computed it."""
    shapes = np.arange(j * j, (j + 1) ** 2) + params.alpha + 1.0
    chunk = gamma_mean(f, shapes, params.rate)
    chunk.flags.writeable = False
    return chunk


def _coefficients(f: TestFunction, ks: np.ndarray, params: OperatorParams) -> np.ndarray:
    """c_k for each k of the sorted integer array ks, read out of its chunk."""
    js = np.floor(np.sqrt(ks)).astype(np.int64)
    js -= js * js > ks  # floor(sqrt) can round up next to a perfect square
    out = np.empty(len(ks))
    starts = np.flatnonzero(np.diff(js, prepend=-1))
    for a, b in zip(starts.tolist(), [*starts[1:].tolist(), len(ks)]):
        j = int(js[a])
        out[a:b] = _coefficient_cached(f, j, params)[ks[a:b] - j * j]
    return out


def coefficient(f: TestFunction, k: int, params: OperatorParams) -> float:
    """c_k(f): the mean of f under Gamma(k + alpha + 1, n - beta)."""
    k = _require_order(k, "coefficient_index")
    validate(params, f)
    j = math.isqrt(k)
    return float(_coefficient_cached(f, j, params)[k - j * j])


def growth_bound(params: OperatorParams, f: TestFunction, x: float) -> float:
    """Exponential-class bound K (rate/(rate-A))^(alpha+1) exp(n x A / (rate-A)),
    or inf where a factor passes the float range."""
    validate(params, f)
    rate = params.rate
    a = f.growth_a
    try:
        return (
            f.growth_k
            * (rate / (rate - a)) ** (params.alpha + 1.0)
            * math.exp(params.n * x * a / (rate - a))
        )
    except OverflowError:
        return math.inf


def _k_window(lam_lo: float, lam_hi: float, log_tol: float) -> tuple[int, int]:
    """Certified k window [k_lo, k_hi] for Poisson means in [lam_lo, lam_hi].

    The Poisson(lam_lo) mass below k_lo and the Poisson(lam_hi) mass above
    k_hi are each at most 1% of e^log_tol.  A tail is bounded by its first
    neglected weight psi_j over one minus the neighbour ratio (psi_{j+1}/psi_j
    = lam/(j+1)), ``special._log_tail``, so each edge is one integer search.
    Raises TruncationError if the window is wider than ``_K_MAX``, before
    the searches where lam_hi alone proves it: with tau = 0.01 e^log_tol,
    the window holds all but 2 tau of the Poisson(lam_hi) mass and no such
    weight exceeds 1/sqrt(2 pi m), m = floor(lam_hi), so k_hi - k_lo + 1 >=
    (1 - 2 tau) sqrt(2 pi m); and for lam_hi >= 2^53, where consecutive k
    are no longer distinct floats.
    """
    log_target = math.log(0.01) + log_tol
    mass = 1.0 - 2.0 * math.exp(min(log_target, 0.0))  # 1 - 2 tau, capped for a huge tol
    if lam_hi >= 2.0**53 or mass * math.sqrt(math.tau * math.floor(lam_hi)) > _K_MAX:
        raise TruncationError(f"k window for Poisson mean {lam_hi} exceeds k_max = {_K_MAX} or 2^53")
    k_lo = k_hi = 0
    if lam_lo > 0.0:
        lower_ok = lambda k: k <= 0 or _log_tail(k - 1, lam_lo, (k - 1) / lam_lo) <= log_target
        k_lo = k_hi = _first(lower_ok, math.ceil(lam_lo), -1)
    if lam_hi > 0.0:
        upper_ok = lambda k: _log_tail(k + 1, lam_hi, lam_hi / (k + 2)) <= log_target
        k_hi = _first(upper_ok, max(k_lo, math.floor(lam_hi)), 1)
    if k_hi - k_lo + 1 > _K_MAX:
        raise TruncationError(f"k window [{k_lo}, {k_hi}] is wider than k_max = {_K_MAX}")
    return k_lo, k_hi


def _poisson_sum(n: float, xs: np.ndarray, values: np.ndarray, k_lo: int) -> np.ndarray:
    """sum_j values[j] psi_{n, k_lo + j}(x) for each x in xs: the one k-sum.

    The weights are the deviance kernel ``special._log_psi`` of
    ``log_poisson_weights``, run in place in row slabs of about
    ``_SLAB_CELLS`` entries (one row for a wider window) and summed row by
    row by ``special._dot``; an empty window sums to zero."""
    out = np.zeros(len(xs))
    if not len(values):
        return out
    kk = np.arange(k_lo, k_lo + len(values), dtype=float)
    g = _log_gamma_excess(kk)
    lam = n * xs[:, None]
    step = max(1, _SLAB_CELLS // len(kk))
    dens, work = np.empty((2, min(step, len(xs)), len(kk)))
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(0, len(xs), step):
            b = min(a + step, len(xs))
            d = _log_psi(lam[a:b], kk, g, dens[: b - a], work[: b - a])
            out[a:b] = _dot(np.exp(d, out=d), values)
    return out


def _blocks(xs: np.ndarray, window) -> list:
    """[(block, its window)] for the rows xs: one block, or, while its window
    is wider than ``_K_MAX``, the blocks of each half; a single row still raises."""
    try:
        return [(xs, window(float(xs.min()), float(xs.max())))]
    except TruncationError:
        if len(xs) == 1:
            raise
        half = len(xs) // 2
        return _blocks(xs[:half], window) + _blocks(xs[half:], window)


def _windowed_sum(n: float, xs: np.ndarray, window, values) -> np.ndarray:
    """The one k-sum on a grid, in blocks of up to 128 rows.

    Each block sums over its own k window ``window(x_min, x_max)``, and a
    block whose window is wider than ``_K_MAX`` is split in halves (``_blocks``);
    ``values(ks)`` gives v_k once, on the sorted union ks of the windows.
    """
    if not len(xs):
        return np.empty(0)
    pairs = [p for i in range(0, len(xs), _BLOCK) for p in _blocks(xs[i : i + _BLOCK], window)]
    blocks, windows = zip(*pairs)
    ks = np.unique(np.concatenate([np.arange(lo, hi + 1) for lo, hi in windows]))
    vals = np.asarray(values(ks), dtype=float)
    cuts = np.searchsorted(ks, np.add(windows, (0, 1)))  # each window's slice of ks
    sums = [
        _poisson_sum(n, b, vals[i:j], lo) for b, (i, j), (lo, _) in zip(blocks, cuts, windows)
    ]
    return np.concatenate(sums)


def _operator_values(f: TestFunction, xs, params: OperatorParams) -> np.ndarray:
    validate(params, f)
    xs = _require_grid(xs)
    _require_points(xs)
    n = params.n
    rho = params.rate / (params.rate - f.growth_a)
    # |c_k| psi_k(x) <= K_f rho^(alpha+1) e^(nx(rho-1)) psi_k(nx rho): tilted
    # Poisson tails, the lower one largest at a block's smallest x and the
    # upper one (and the constant) at its largest
    log_env = math.log(_EPS_TAIL / f.growth_k) - (params.alpha + 1.0) * math.log(rho)

    def window(lo, hi):
        return _k_window(n * rho * lo, n * rho * hi, log_env - n * hi * (rho - 1.0))

    return _windowed_sum(n, xs, window, lambda ks: _coefficients(f, ks, params))


def apply_operator(f: TestFunction, x: float, params: OperatorParams) -> float:
    """Apply the operator to f at a single point x >= 0: the grid path at one point."""
    return float(_operator_values(f, x, params)[0])


def apply_operator_grid(f: TestFunction, xs, params: OperatorParams) -> np.ndarray:
    """Operator values on a grid of x >= 0.

    One coefficient vector serves the whole grid.  Rows are summed in
    blocks of 128, each over one certified k window for the block's
    smallest and largest x; a one-point grid is :func:`apply_operator`.
    """
    return _operator_values(f, xs, params)


def kernel_on_x_grid(xs, t: float, params: OperatorParams) -> np.ndarray:
    """K_n(x, t) on an x grid for fixed t > 0: the k-sum of gamma densities at t.
    x follows the point rule; t is finite (``kernel_not_finite``), > 0 (``kernel_domain``)."""
    xs = _require_grid(xs)
    _require_points(xs)
    _require(math.isfinite(t), t, "kernel_not_finite", "finite t")
    _require(t > 0, t, "kernel_domain", "t > 0")
    n = params.n
    rate = params.rate
    al = params.alpha
    u = rate * t

    def densities(ks):
        # the Gamma(k + alpha + 1, rate) density at t is rate psi_{k+alpha}(u),
        # written as rate psi_{k+alpha+1}(u) (k+alpha+1)/u to keep the order >= 0
        a = ks + al + 1.0
        return rate * np.exp(log_poisson_weights(u, a)) * a / u

    # gamma densities at t are bounded by rate for k + alpha >= 1 and by the
    # k = 0 density below, so plain Poisson tails certify each block's window ...
    log_eps = math.log(_EPS_TAIL)
    log_tol = log_eps - math.log(rate) - max(0.0, _log_tail(al, u, 0.0))
    # ... intersected with the k range where the gamma density at t is alive
    k_cut = int(max(2.0 * u, u + 12.0 * math.sqrt(u + 1.0)) + 50.0)
    alive = lambda k: math.log(2.0 * rate) + _log_tail(k + al, u, 0.0) <= log_eps
    k_cut = _first(alive, k_cut, 1)

    def window(lo, hi):
        k_lo, k_hi = _k_window(n * lo, n * hi, log_tol)
        return k_lo, min(k_hi, k_cut)

    return _windowed_sum(n, xs, window, densities)


def apply_szasz(f: TestFunction, x: float, n: float) -> float:
    """Classical Szasz operator e^(-nx) sum_k (nx)^k/k! f(k/n)."""
    _require(0 < n < math.inf, n, "szasz_n", "finite n > 0")
    _require(n > f.growth_a, n, "szasz_growth", f"n > A for growth class A = {f.growth_a}")
    _require_points(x)
    # |f(k/n)| <= K_f rho^k with rho = e^(A/n): a tilted Poisson tail on each side
    rho = math.exp(f.growth_a / n)
    log_tol = math.log(_EPS_TAIL / f.growth_k) - n * x * math.expm1(f.growth_a / n)
    k_lo, k_hi = _k_window(n * x * rho, n * x * rho, log_tol)
    vals = np.asarray(f(np.arange(k_lo, k_hi + 1) / n), dtype=float)
    return float(_poisson_sum(n, np.array([float(x)]), vals, k_lo)[0])
