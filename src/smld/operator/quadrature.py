"""Certified quadrature of gamma-density means on the half line, in batches.

Every coefficient of the operator is the mean of f under a Gamma(shape,
rate) law.  After the substitution u = rate * t this is

    integral f(u / rate) u^(shape-1) e^(-u) du / Gamma(shape),

and :func:`gamma_mean` computes it for a batch of nearby shapes at once
(the operator's coefficient layer hands it runs of consecutive k); a scalar
shape is a batch of one.  The batch shares everything but its densities:

* one integration window [u_lo, u_hi], from the lower edge of the smallest
  shape to the upper edge of the largest, chosen so that both neglected
  tails of every row are provably below a fraction of the target
  tolerance, through the caller's exponential growth envelope |f| <= env_k
  * exp(tilt * u): each gamma tail is bounded by its edge density over one
  minus a term ratio (``special._log_tail``, the same bound as the
  operator's k windows), each edge is one ``special._first`` search, and
  both bounds fall (lower edge) or rise (upper edge) with the shape, so the
  two extreme rows certify the rest;
* one set of opening panels of width ~ 4 sqrt(smallest shape) (at least
  1/24 of the window, split further at the declared kinks of f) carrying
  fixed Gauss-Legendre rules, with f evaluated once per node and round;
* each row's density prepared once per batch: the Gamma(s) density at u
  is the Poisson weight psi_{s-1}(u), so the batch computes its orders and
  their g(a) = ln Gamma(a+1) - a ln a + a (``special._log_gamma_excess``)
  and the Jacobi rows' ln Gamma(s) up front, and each round runs only the
  deviance kernel ``special._log_psi`` -- the one ``log_poisson_weights``
  runs, in log domain and deviance form, so nothing overflows and no
  digits cancel for shapes in the millions -- over a rows x nodes matrix,
  built in slabs of at most ``_SLAB_CELLS`` entries;
* when the window starts at u = 0, a row with a non-integer shape and
  mass on the leading panel takes that panel as a Gauss-Jacobi rule with
  weight u^(shape-1), which integrates the fractional endpoint power
  exactly instead of fighting it;
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

from ..errors import QuadratureError
from ..special import _first, _log_gamma_excess, _log_psi, _log_tail

__all__ = ["gamma_mean", "panel_rule"]

_NODES = 16  # Gauss-Legendre nodes per panel, and of the Gauss-Jacobi front rule
_MAX_ROUNDS = 11
_MAX_KINK_PANELS = 64
_SLAB_CELLS = 1 << 14  # density-matrix entries built at once: 128 kB of floats


@lru_cache(maxsize=64)
def _gl_rule(m: int):
    x, w = np.polynomial.legendre.leggauss(m)
    return x, w


@lru_cache(maxsize=64)
def _gj_rules(m: int, b: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights (one row per b) of the m-point Gauss-Jacobi rules
    with weight (1+x)^b on [-1, 1], all at once.

    The eigenvalues of each Jacobi matrix are polished by one Newton step
    on P_m^(0,b).  The weights are the Christoffel numbers 1 / sum_{k<m}
    (2k+b+1) P_k^(0,b)(x)^2, a sum of positive terms, taken at the polished
    nodes to first order in the Newton step and scaled to the exact total
    mass 2^(b+1) / (b+1).  One three-term recurrence at the eigenvalues
    gives every P_k, and each P_k' follows from P_k and P_{k-1}.
    """
    b = np.array(b)[:, None]
    k = np.arange(1.0, m)
    s = 2.0 * k + b
    jac = np.zeros((len(b), m, m))
    i = np.arange(m)
    jac[:, 0, 0] = b[:, 0] / (2.0 + b[:, 0])
    jac[:, i[1:], i[1:]] = b * b / (s * (s + 2.0))
    off = 2.0 / s * np.sqrt(k * (k + b) / (s + 1.0))
    off[:, 1:] *= np.sqrt(k[1:] * (k[1:] + b) / (s[:, 1:] - 1.0))
    jac[:, i[1:], i[:-1]] = off
    x = np.linalg.eigvalsh(jac)
    p = _jacobi_p(m, b, x)
    # P_k' for k = 1..m: (2k+b)(1-x^2) P_k' = -k (b + (2k+b) x) P_k + 2k (k+b) P_{k-1}
    k = np.arange(1.0, m + 1)[:, None, None]
    s = 2.0 * k + b
    dp = k * (2.0 * (k + b) * p[:-1] - (b + s * x) * p[1:]) / (s * (1.0 - x * x))
    dx = -p[m] / dp[-1]
    # sum_k (2k+b+1) P_k^2 at x + dx, the k = 0 term being b + 1
    w = 1.0 / (((s[:-1] + 1.0) * p[1:m] * (p[1:m] + 2.0 * dx * dp[:-1])).sum(axis=0) + b + 1.0)
    w *= 2.0 ** (b + 1.0) / (b + 1.0) / w.sum(axis=1, keepdims=True)
    return x + dx, w


def _jacobi_p(top: int, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """P_k^(0,b)(x) for k = 0..top (top >= 1), stacked on a new first axis,
    for a column of b against the rows of x, by the three-term recurrence
    (DLMF 18.9.2) 2(k+1)(k+b+1)(2k+b) P_{k+1}
    = (2k+b+1)((2k+b+2)(2k+b) x - b^2) P_k - 2k(k+b)(2k+b+2) P_{k-1}."""
    k = np.arange(1.0, top)[:, None, None]
    s = 2.0 * k + b
    den = 2.0 * (k + 1.0) * (k + b + 1.0) * s
    lead = (s + 1.0) * ((s + 2.0) * s * x - b * b) / den
    back = 2.0 * k * (k + b) * (s + 2.0) / den
    p = [np.ones(x.shape), 0.5 * ((b + 2.0) * x - b)]
    for ld, bk in zip(lead, back):
        p.append(ld * p[-1] - bk * p[-2])
    return np.array(p)


def _window(shape: float, eps_win: float, tilt: float, env_k: float) -> tuple[float, float]:
    """Certified integration window [u_lo, u_hi] for a Gamma(shape, 1) mean.

    Upper: env_k (1-tilt)^(-shape) Q(shape, (1-tilt) u_hi) <= eps_win, with
    Q(s, w) <= psi_{s-1}(w) / (1 - max(s-1, 0)/w) for w > s - 1 (for s < 1 the
    density ratio is at most 1, so the ratio is 0).  Lower: env_k P(shape,
    u_lo) <= eps_win (the growth factor is ~1 near 0), with P(s, w) <=
    psi_s(w) / (1 - w/(s+1)) for w < s + 1.  Each edge is one search in
    strides of sqrt(shape) from shape +- (10 sqrt(shape) + 30).  At a fixed
    edge the upper bound rises and the lower bound falls with the shape.
    """
    root = math.sqrt(shape)
    log_hi = math.log(eps_win) + shape * math.log1p(-tilt) - math.log(env_k)
    upper_ok = lambda w: _log_tail(shape - 1.0, w, max(shape - 1.0, 0.0) / w) <= log_hi
    u_hi = _first(upper_ok, shape + 10.0 * root + 30.0, root) / (1.0 - tilt)
    log_lo = math.log(eps_win / env_k)
    lower_ok = lambda w: w <= 0.0 or _log_tail(shape, w, w / (shape + 1.0)) <= log_lo
    return max(0.0, _first(lower_ok, shape - 10.0 * root - 30.0, -root)), u_hi


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


def _panel_values(f, order, g, small, jacobi, edges):
    """GL panel integrals of f(u) * gamma_pdf(u) for each row's prepared
    density: (signed values, absolute masses).  Row i's density is
    psi_{order_i}(u), times order_i / u where ``small`` (shape < 1, order =
    shape), with g = g(order) from ``special._log_gamma_excess``.  Rows
    flagged in ``jacobi`` leave out the first panel, which their
    Gauss-Jacobi rule covers."""
    u, wt = panel_rule(edges, _NODES)
    vals = np.asarray(f(u), dtype=float)
    signed, mass = wt * vals, wt * np.abs(vals)
    total, absolute = np.empty(len(order)), np.empty(len(order))
    step = max(1, _SLAB_CELLS // len(u))
    for i in range(0, len(order), step):
        rows = slice(i, i + step)
        dens = np.exp(_log_psi(u, order[rows], g[rows]))
        if small[rows].any():
            np.multiply(dens, order[rows] / u, out=dens, where=small[rows])
        if jacobi[rows].any():
            dens[jacobi[rows], :_NODES] = 0.0
        total[rows] = dens @ signed
        absolute[rows] = dens @ mass
    return total, absolute


def _jacobi_panel(f, shapes, log_gamma, rules, hi: float, power: float):
    """integral_0^hi f(u) u^(shape-1) e^(-u) du / Gamma(shape) for each shape,
    with the full endpoint power u^(shape-1+power) absorbed into the
    Gauss-Jacobi ``rules`` of weight (1+x)^(shape-1+power) (``power`` is the
    caller's declared behavior f(u) ~ u^power near 0; ``log_gamma`` is
    ln Gamma(shape)).  Returns (signed values, absolute masses)."""
    x, w = rules
    u = 0.5 * hi * (x + 1.0)
    front = np.exp((shapes + power) * math.log(0.5 * hi) - log_gamma)
    vals = np.asarray(f(u), dtype=float)
    if power != 0.0:
        vals = vals / u**power
    prod = vals * np.exp(-u)
    return front * np.einsum("ij,ij->i", w, prod), front * np.einsum("ij,ij->i", w, np.abs(prod))


def _halve(edges: np.ndarray) -> np.ndarray:
    mids = 0.5 * (edges[:-1] + edges[1:])
    out = np.empty(2 * len(edges) - 1)
    out[0::2] = edges
    out[1::2] = mids
    return out


def gamma_mean(
    f,
    shape,
    eps: float,
    kinks: tuple[float, ...] = (),
    tilt: float = 0.0,
    env_k: float = 1.0,
    endpoint_power: float = 0.0,
):
    """Mean of f under Gamma(s, 1) for each s in ``shape``, to relative
    accuracy ~eps for smooth f.

    ``shape`` is one shape (the result is a float) or an array of nearby
    shapes (the result is an array of means, one per shape): the batch
    shares one window, one set of panels and one evaluation of f per node.
    The panels open about 4 sqrt(min shape) wide and are halved until two
    successive rounds agree on every row; the finer round is returned,
    which for smooth f is the second, on panels about 2 sqrt(min shape)
    wide.
    Each row's density order, its g(order) and a Jacobi row's ln Gamma(s)
    are computed once per batch, not per round.  ``kinks`` are
    u-locations where f is not smooth (they become panel edges); ``tilt``
    in [0, 1) and ``env_k`` describe the caller's growth envelope |f(u)|
    <= env_k * exp(tilt * u), used to certify the neglected tails.
    """
    shapes = np.atleast_1d(np.asarray(shape, dtype=float))
    eps_win = 0.01 * eps
    s_min, s_max = float(shapes.min()), float(shapes.max())
    u_lo = _window(s_min, eps_win, tilt, env_k)[0]
    u_hi = _window(s_max, eps_win, tilt, env_k)[1]

    inner = sorted({k for k in kinks if u_lo < k < u_hi})
    if len(inner) > _MAX_KINK_PANELS:
        stride = int(math.ceil(len(inner) / _MAX_KINK_PANELS))
        inner = inner[::stride]
    base = [u_lo] + inner + [u_hi]

    width = max(4.0 * math.sqrt(s_min), (u_hi - u_lo) / 24.0)
    segments = [np.array([u_lo])]  # the segments share only their endpoints
    for a, b in zip(base[:-1], base[1:]):
        pieces = max(1, int(math.ceil((b - a) / width)))
        segments.append(np.linspace(a, b, pieces + 1)[1:])
    edges = np.concatenate(segments)

    # a row with a fractional endpoint power and mass on the first panel
    # [0, e1] (its lower tail bound at e1 is above the window's target)
    # takes that panel as a Gauss-Jacobi panel
    jacobi = np.zeros(len(shapes), dtype=bool)
    if u_lo == 0.0:
        e1, log_lo = float(edges[1]), math.log(eps_win / env_k)
        jacobi[:] = [
            (endpoint_power > 0.0 or abs(s - round(s)) > 1e-12)
            and (e1 >= s + 1.0 or _log_tail(s, e1, e1 / (s + 1.0)) > log_lo)
            for s in shapes.tolist()
        ]
    front = shapes[jacobi]  # the Jacobi rows' shapes, their ln Gamma and rules
    if len(front):
        front_log_gamma = np.array([math.lgamma(v) for v in front.tolist()])
        jx, jw = _gj_rules(_NODES, tuple((front + endpoint_power - 1.0).tolist()))
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
        # f and its products with the weights may overflow; that leaves a
        # total that is not finite, which raises below
        with np.errstate(over="ignore", invalid="ignore"):
            total, mass = _panel_values(f, order, g, small, jacobi, edges)
            if len(front):
                jt, jm = _jacobi_panel(f, front, front_log_gamma, (jx, jw), float(edges[1]),
                                       endpoint_power)
                total[jacobi] += jt
                mass[jacobi] += jm
        if not np.isfinite(total).all():
            raise QuadratureError(
                f"gamma-mean integrand is not finite on the window [{u_lo}, {u_hi}] "
                f"(shapes {s_min}..{s_max})",
                code="integrand_not_finite",
            )
        if previous is not None:
            thresh = eps * np.abs(total) + 64.0 * 2.220446049250313e-16 * mass + 1e-300
            if (np.abs(total - previous) <= thresh).all():
                return float(total[0]) if np.ndim(shape) == 0 else total
        previous = total
        edges = _halve(edges)
    raise QuadratureError(
        f"gamma-mean quadrature did not converge (shapes {s_min}..{s_max}, eps = {eps})"
    )
