"""Certified quadrature of gamma-density means on the half line, in batches.

Every coefficient of the operator is the mean of a test function f under a
Gamma(shape, rate) law.  After the substitution u = rate * t this is

    integral f(u / rate) u^(shape-1) e^(-u) du / Gamma(shape),

and :func:`gamma_mean` computes it to relative accuracy ``_EPS`` = 1e-12
for a batch of nearby shapes at once (the operator's coefficient layer
hands it runs of consecutive k).  It reads the rest from f: the envelope
|f(t)| <= K e^(A t), K e^(tilt u) in u with tilt = A / rate, the kinks
and the endpoint power p, f(t) ~ t^p near 0.  The batch shares everything
but its densities:

* one integration window [u_lo, u_hi], from the lower edge of the smallest
  shape to the upper edge of the largest, chosen so that both neglected
  tails of every row, through f's envelope, are provably below
  ``_EPS_WIN``, 1% of the target: each gamma tail is bounded by its edge
  density over one minus a term ratio (``special._log_tail``, the same
  bound as the operator's k windows), each edge is one ``special._first``
  search, and both bounds fall (lower edge) or rise (upper edge) with the
  shape, so the two extreme rows certify the rest;
* one set of opening panels of width ~ 4 sqrt(smallest shape) (at least
  1/24 of the window, split further at every kink of f) carrying
  fixed Gauss-Legendre rules, with f evaluated once per node and round;
* each row's density prepared once per batch: the Gamma(s) density at u
  is the Poisson weight psi_{s-1}(u), so the batch computes its orders and
  their g(a) = ln Gamma(a+1) - a ln a + a (``special._log_gamma_excess``)
  up front, and each round runs only the deviance kernel
  ``special._log_psi`` -- the one ``log_poisson_weights`` runs, in log
  domain and deviance form, so nothing overflows and no digits cancel for
  shapes in the millions -- over a rows x nodes matrix, built in place in
  slabs of about ``_SLAB_CELLS`` entries, in two buffers that every slab
  reuses, and summed row by row by ``special._dot``;
* when the window starts at u = 0 and the smallest endpoint power b =
  s_min - 1 + p is fractional and below ``_GL_POWER`` = 6,
  the first panel [0, e1] takes instead the nodes of one 16-point
  Gauss-Jacobi rule of weight u^b, its weights divided by (1+x)^b.  The
  shapes lie whole numbers apart, so there every row's integrand is u^b
  times a smooth factor, and the rule integrates the fractional power
  exactly in the round's one evaluation of f and of the densities.  From
  b = 6 on Gauss-Legendre needs no help: its 16 nodes integrate u^b over
  [0, 1] to a relative error of 3.4e-5 at b = 0.5, 1.7e-9 at 2.5, 7.8e-13
  at 4.5, 3.0e-14 at 5.5 and 7.8e-16 at 6.01;
* all panels are halved until two successive rounds agree on every row of
  the batch, and the finer of the two is returned.  For the smooth catalog
  that is the second round, on panels ~ 2 sqrt(shape) wide, where
  ``_NODES`` = 16 nodes already integrate the Gaussian-like density to
  rounding; the coarse opening round only confirms it.  A batch that does
  not converge in ``_MAX_ROUNDS`` rounds (the finest panel ~ 4 sqrt(shape)
  / 2^10) raises ``QuadratureError``.  A round whose totals are not finite
  (f overflowed or returned inf or nan on the window; one such value
  reaches every row, as 0 * inf is nan) raises it at once, with code
  ``integrand_not_finite``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..errors import ParameterError, QuadratureError, _require
from ..special import _dot, _first, _log_gamma_excess, _log_psi, _log_tail

__all__ = ["gamma_mean", "panel_rule"]

_NODES = 16  # Gauss-Legendre nodes per panel, and of the Gauss-Jacobi front rule
_MAX_ROUNDS = 11
_SLAB_CELLS = 1 << 14  # density-matrix entries built at once: 128 kB of floats
_GL_POWER = 6.0  # Gauss-Legendre integrates the endpoint power u^b from b = 6 on
_EPS = 1e-12  # relative target of every mean
_EPS_WIN = 0.01 * _EPS  # bound on each neglected window tail


@lru_cache(maxsize=64)
def _gl_rule(m: int):
    x, w = np.polynomial.legendre.leggauss(m)
    return x, w


@lru_cache(maxsize=64)
def _gj_rules(m: int, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point Gauss-Jacobi rule with weight
    (1+x)^b on [-1, 1].

    The eigenvalues of the Jacobi matrix are polished by one Newton step
    on P_m^(0,b).  The weights are the Christoffel numbers 1 / sum_{k<m}
    (2k+b+1) P_k^(0,b)(x)^2, a sum of positive terms, taken at the polished
    nodes to first order in the Newton step and scaled to the exact total
    mass 2^(b+1) / (b+1).  One three-term recurrence at the eigenvalues
    gives every P_k, and each P_k' follows from P_k and P_{k-1}.
    """
    k = np.arange(1.0, m)
    s = 2.0 * k + b
    jac = np.zeros((m, m))
    i = np.arange(m)
    jac[0, 0] = b / (2.0 + b)
    jac[i[1:], i[1:]] = b * b / (s * (s + 2.0))
    off = 2.0 / s * np.sqrt(k * (k + b) / (s + 1.0))
    off[1:] *= np.sqrt(k[1:] * (k[1:] + b) / (s[1:] - 1.0))
    jac[i[1:], i[:-1]] = off
    x = np.linalg.eigvalsh(jac)
    p = _jacobi_p(m, b, x)
    # P_k' for k = 1..m: (2k+b)(1-x^2) P_k' = -k (b + (2k+b) x) P_k + 2k (k+b) P_{k-1}
    k = np.arange(1.0, m + 1)[:, None]
    s = 2.0 * k + b
    dp = k * (2.0 * (k + b) * p[:-1] - (b + s * x) * p[1:]) / (s * (1.0 - x * x))
    dx = -p[m] / dp[-1]
    # sum_k (2k+b+1) P_k^2 at x + dx, the k = 0 term being b + 1
    w = 1.0 / (((s[:-1] + 1.0) * p[1:m] * (p[1:m] + 2.0 * dx * dp[:-1])).sum(axis=0) + b + 1.0)
    w *= 2.0 ** (b + 1.0) / (b + 1.0) / w.sum()
    return x + dx, w


def _jacobi_p(top: int, b: float, x: np.ndarray) -> np.ndarray:
    """P_k^(0,b)(x) for k = 0..top (top >= 1), stacked on a new first axis,
    by the three-term recurrence (DLMF 18.9.2) 2(k+1)(k+b+1)(2k+b) P_{k+1}
    = (2k+b+1)((2k+b+2)(2k+b) x - b^2) P_k - 2k(k+b)(2k+b+2) P_{k-1}."""
    k = np.arange(1.0, top)[:, None]
    s = 2.0 * k + b
    den = 2.0 * (k + 1.0) * (k + b + 1.0) * s
    lead = (s + 1.0) * ((s + 2.0) * s * x - b * b) / den
    back = 2.0 * k * (k + b) * (s + 2.0) / den
    p = np.empty((top + 1, *x.shape))
    p[0] = 1.0
    p[1] = 0.5 * ((b + 2.0) * x - b)
    for i, (ld, bk) in enumerate(zip(lead, back), start=1):
        np.multiply(ld, p[i], out=p[i + 1])
        p[i + 1] -= bk * p[i - 1]
    return p


def _window_hi(shape: float, tilt: float, env_k: float) -> float:
    """Upper edge u_hi of a certified integration window for a Gamma(shape, 1)
    mean: env_k (1-tilt)^(-shape) Q(shape, (1-tilt) u_hi) <= _EPS_WIN, with
    Q(s, w) <= psi_{s-1}(w) / (1 - max(s-1, 0)/w) for w > s - 1 (for s < 1 the
    density ratio is at most 1, so the ratio is 0).  One search in strides of
    sqrt(shape) from shape + 10 sqrt(shape) + 30.  At a fixed edge the bound
    rises with the shape, so a batch takes the edge of its largest shape.
    """
    root = math.sqrt(shape)
    log_hi = math.log(_EPS_WIN) + shape * math.log1p(-tilt) - math.log(env_k)
    upper_ok = lambda w: _log_tail(shape - 1.0, w, max(shape - 1.0, 0.0) / w) <= log_hi
    return _first(upper_ok, shape + 10.0 * root + 30.0, root) / (1.0 - tilt)


def _window_lo(shape: float, env_k: float) -> float:
    """Lower edge u_lo of the same window: env_k P(shape, u_lo) <= _EPS_WIN
    (the growth factor is ~1 near 0), with P(s, w) <= psi_s(w) / (1 - w/(s+1))
    for w < s + 1.  One search in strides of sqrt(shape) down from
    shape - (10 sqrt(shape) + 30).  At a fixed edge the bound falls with the
    shape, so a batch takes the edge of its smallest shape.
    """
    root = math.sqrt(shape)
    log_lo = math.log(_EPS_WIN / env_k)
    lower_ok = lambda w: w <= 0.0 or _log_tail(shape, w, w / (shape + 1.0)) <= log_lo
    return max(0.0, _first(lower_ok, shape - 10.0 * root - 30.0, -root))


def panel_rule(edges: np.ndarray, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a ``nodes``-point Gauss-Legendre rule on each panel."""
    x, w = _gl_rule(nodes)
    a = edges[:-1]
    b = edges[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    u = (half[:, None] * x[None, :] + mid[:, None]).ravel()
    wt = (half[:, None] * w[None, :]).ravel()
    return u, wt


def _panel_values(f, order, g, small, u, wt):
    """Integrals of f(u) * gamma_pdf(u) by the rule (u, wt), f run once,
    for each row's prepared density: (signed values, absolute masses).  Row
    i's density is psi_{order_i}(u), times order_i / u where ``small`` (shape
    < 1, order = shape), with g = g(order) from ``special._log_gamma_excess``,
    built in reused buffers in slabs of about ``_SLAB_CELLS`` entries and
    summed row by row by ``special._dot``."""
    vals = np.asarray(f(u), dtype=float)
    signed, mass = wt * vals, wt * np.abs(vals)
    rows = len(order)
    total, absolute = np.empty(rows), np.empty(rows)
    step = max(1, _SLAB_CELLS // len(u))
    dens, work = np.empty((2, min(step, rows), len(u)))
    for a in range(0, rows, step):
        b = min(a + step, rows)
        d = _log_psi(u, order[a:b], g[a:b], dens[: b - a], work[: b - a])
        np.exp(d, out=d)
        if small[a:b].any():
            np.multiply(d, np.divide(order[a:b], u, out=work[: b - a]), out=d, where=small[a:b])
        total[a:b] = _dot(d, signed)
        absolute[a:b] = _dot(d, mass)
    return total, absolute


def _panel_edges(base: list[float], width: float) -> np.ndarray:
    """The opening panel edges, in one step: each segment [a, b] of ``base``
    cut into m = ceil((b - a) / width) panels, at a + i (b - a) / m as
    ``np.linspace`` places them, and ending where the next one starts."""
    if len(base) == 2:  # no kink inside the window
        a, b = base
        return np.linspace(a, b, max(1, int(math.ceil((b - a) / width))) + 1)
    ends = np.asarray(base)
    starts, spans = ends[:-1], np.diff(ends)
    m = np.maximum(1, np.ceil(spans / width)).astype(np.intp)
    seg = np.repeat(np.arange(m.size), m)
    i = np.arange(seg.size) - np.repeat(np.cumsum(m) - m, m)
    return np.append(i * (spans / m)[seg] + starts[seg], ends[-1])


def _halve(edges: np.ndarray) -> np.ndarray:
    mids = 0.5 * (edges[:-1] + edges[1:])
    out = np.empty(2 * len(edges) - 1)
    out[0::2] = edges
    out[1::2] = mids
    return out


def gamma_mean(f, shape, rate):
    """Mean of the test function f under Gamma(s, rate) for each s in
    ``shape``, to relative accuracy ~1e-12 for smooth f.

    ``shape`` is an array of nearby shapes and the result is an array of
    means, one per shape: the batch shares one window, one set of panels
    and one evaluation of f per node.
    The panels open about 4 sqrt(min shape) wide and are halved until two
    successive rounds agree on every row; the finer round is returned,
    which for smooth f is the second, on panels about 2 sqrt(min shape)
    wide.
    Each row's density order and its g(order) are computed once per
    batch, not per round.  A batch that takes the Gauss-Jacobi front rule
    (window from 0, b = min shape - 1 + p fractional and below 6) needs
    every shape a whole number above the smallest, as runs of consecutive
    k are; else it raises ``ParameterError("shape_spacing")``.  A rate
    that is not finite and above max(0, A), where the means exist, raises
    ``growth_incompatible``; a batch that is empty, not 1-D or holds a
    shape that is not finite and > 0 raises ``shape_domain``.
    """
    if not (math.isfinite(rate) and rate > max(0.0, f.growth_a)):
        raise ParameterError(
            "growth_incompatible", f"requires finite rate > max(0, A = {f.growth_a}), got {rate}"
        )
    shapes = np.atleast_1d(np.asarray(shape, dtype=float))
    _require(shapes.ndim == 1 and shapes.size, shapes.shape, "shape_domain", "non-empty 1-D shapes")
    s_min, s_max = float(shapes.min()), float(shapes.max())
    _require(0.0 < s_min and s_max < math.inf, shape, "shape_domain", "finite shapes > 0")
    u_lo = _window_lo(s_min, f.growth_k)
    u_hi = _window_hi(s_max, f.growth_a / rate, f.growth_k)  # tilt A / rate in u

    inner = sorted({k for k in (rate * t for t in f.kinks) if u_lo < k < u_hi})
    edges = _panel_edges([u_lo, *inner, u_hi], max(4.0 * math.sqrt(s_min), (u_hi - u_lo) / 24.0))

    # the Gauss-Jacobi front rule of weight u^b, as plain nodes and weights on [0, 1]
    front = None
    b = s_min + f.endpoint_power - 1.0
    if u_lo == 0.0 and b < _GL_POWER and abs(b - round(b)) > 1e-12:
        spacing = shapes - s_min
        if (np.abs(spacing - np.round(spacing)) > 1e-9).any():
            raise ParameterError(
                "shape_spacing",
                f"shapes {s_min}..{s_max} must lie whole numbers apart for the "
                f"Gauss-Jacobi front rule (endpoint power {b})",
            )
        x, w = _gj_rules(_NODES, b)
        front = 0.5 * (x + 1.0), 0.5 * w / (x + 1.0) ** b
        if len(edges) > 2 and edges[2] - edges[1] > 2.0 * edges[1]:
            # a kink close to u = 0 ends the Jacobi panel early: grade the
            # next panel geometrically so no panel is wider than its
            # distance to the u^(shape-1) singularity
            grade = [2.0 * edges[1]]
            while 2.0 * grade[-1] < edges[2]:
                grade.append(2.0 * grade[-1])
            edges = np.concatenate((edges[:2], grade, edges[2:]))

    # each row's density, prepared once: psi_{s-1}(u), or psi_s(u) s / u to
    # keep the order >= 0 for s < 1
    small = shapes[:, None] < 1.0
    order = np.where(small, shapes[:, None], shapes[:, None] - 1.0)
    g = _log_gamma_excess(order)

    previous = None
    for _ in range(_MAX_ROUNDS):
        u, wt = panel_rule(edges, _NODES)
        if front is not None:
            u[:_NODES] = edges[1] * front[0]
            wt[:_NODES] = edges[1] * front[1]
        # f and its products with the weights may overflow; that leaves a
        # total that is not finite, which raises below
        with np.errstate(over="ignore", invalid="ignore"):
            total, mass = _panel_values(lambda u: f(u / rate), order, g, small, u, wt)
        if not np.isfinite(total).all():
            raise QuadratureError(
                f"gamma-mean integrand is not finite on the window [{u_lo}, {u_hi}] "
                f"(shapes {s_min}..{s_max})",
                code="integrand_not_finite",
            )
        if previous is not None:
            thresh = _EPS * np.abs(total) + 64.0 * 2.220446049250313e-16 * mass + 1e-300
            if (np.abs(total - previous) <= thresh).all():
                return total
        previous = total
        edges = _halve(edges)
    raise QuadratureError(
        f"gamma-mean quadrature did not converge (shapes {s_min}..{s_max}, eps = {_EPS})"
    )
