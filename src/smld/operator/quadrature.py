"""Certified quadrature of gamma-density means on the half line.

Every coefficient of the operator is the mean of f under a Gamma(shape,
rate) law.  After the substitution u = rate * t this is

    integral f(u / rate) u^(shape-1) e^(-u) du / Gamma(shape),

which is what :func:`gamma_mean` computes:

* the integration window [u_lo, u_hi] is chosen so that both neglected
  tails are provably below a fraction of the target tolerance, using the
  regularized incomplete gamma and the caller's exponential growth
  envelope |f| <= env_k * exp(tilt * u);
* panels of width ~ 2 sqrt(shape) (split further at the declared kinks of
  f) carry fixed Gauss-Legendre rules with the gamma density applied in
  log domain, so nothing overflows for shapes in the thousands;
* when the window touches u = 0 and the shape is not an integer, the
  leading panel uses a Gauss-Jacobi rule with weight u^(shape-1), which
  integrates the fractional endpoint power exactly instead of fighting it;
* all panels are halved until two successive refinements agree, which for
  the smooth catalog happens immediately.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from ..errors import QuadratureError
from ..special import _log_reg_upper_gamma, reg_lower_gamma

__all__ = ["gamma_mean", "panel_rule"]

_MAX_ROUNDS = 10
_MAX_KINK_PANELS = 64


@lru_cache(maxsize=64)
def _gl_rule(m: int):
    x, w = np.polynomial.legendre.leggauss(m)
    return x, w


@lru_cache(maxsize=512)
def _gj_rule(m: int, shape: float):
    # weight (1+x)^(shape-1) on [-1, 1]
    x, w = roots_jacobi(m, 0.0, shape - 1.0)
    return x, w


def _upper_edge(shape: float, log_tau: float) -> float:
    w = shape + 10.0 * math.sqrt(shape) + 30.0
    for _ in range(300):
        if _log_reg_upper_gamma(shape, w) <= log_tau:
            return w
        w *= 1.25
    raise QuadratureError("could not certify an upper quadrature edge")


def _lower_edge(shape: float, tau: float) -> float:
    w = shape - 10.0 * math.sqrt(shape) - 30.0
    if w <= 0.0:
        return 0.0
    while reg_lower_gamma(shape, w) > tau:
        w *= 0.8
        if w < 1e-280:
            return 0.0
    return w


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


def _panel_values(f, shape: float, edges: np.ndarray, nodes: int) -> tuple[float, float]:
    """GL panel integrals of f(u) * gamma_pdf(u): (signed value, absolute mass)."""
    u, wt = panel_rule(edges, nodes)
    dens = np.exp((shape - 1.0) * np.log(u) - u - math.lgamma(shape))
    vals = np.asarray(f(u), dtype=float)
    prod = vals * dens
    return float(np.dot(wt, prod)), float(np.dot(wt, np.abs(prod)))


def _jacobi_panel(f, shape: float, hi: float, nodes: int, power: float) -> tuple[float, float]:
    """integral_0^hi f(u) u^(shape-1) e^(-u) du / Gamma(shape), with the full
    endpoint power u^(shape-1+power) absorbed into a Gauss-Jacobi weight
    (``power`` is the caller's declared behavior f(u) ~ u^power near 0).
    Returns (signed value, absolute mass)."""
    if hi <= 0.0:
        return 0.0, 0.0
    x, w = _gj_rule(nodes, shape + power)
    u = 0.5 * hi * (x + 1.0)
    front = math.exp((shape + power) * math.log(0.5 * hi) - math.lgamma(shape))
    vals = np.asarray(f(u), dtype=float)
    if power != 0.0:
        vals = vals / u**power
    prod = vals * np.exp(-u)
    return front * float(np.dot(w, prod)), front * float(np.dot(w, np.abs(prod)))


def _halve(edges: np.ndarray) -> np.ndarray:
    mids = 0.5 * (edges[:-1] + edges[1:])
    out = np.empty(2 * len(edges) - 1)
    out[0::2] = edges
    out[1::2] = mids
    return out


def gamma_mean(
    f,
    shape: float,
    eps: float,
    kinks: tuple[float, ...] = (),
    tilt: float = 0.0,
    env_k: float = 1.0,
    nodes: int = 16,
    endpoint_power: float = 0.0,
) -> float:
    """Mean of f under Gamma(shape, 1), to relative accuracy ~eps for smooth f.

    ``kinks`` are u-locations where f is not smooth (they become panel
    edges); ``tilt`` in [0, 1) and ``env_k`` describe the caller's growth
    envelope |f(u)| <= env_k * exp(tilt * u), used to certify the
    neglected tails.
    """
    eps_win = 0.01 * eps
    # Upper edge: env_k (1-tilt)^(-shape) Q(shape, (1-tilt) u_hi) <= eps_win.
    log_tau = math.log(eps_win) + shape * math.log1p(-tilt) - math.log(env_k)
    u_hi = _upper_edge(shape, log_tau) / (1.0 - tilt)
    # Lower edge: env_k P(shape, u_lo) <= eps_win (growth factor is ~1 near 0).
    u_lo = _lower_edge(shape, eps_win / env_k)

    inner = sorted({k for k in kinks if u_lo < k < u_hi})
    if len(inner) > _MAX_KINK_PANELS:
        stride = int(math.ceil(len(inner) / _MAX_KINK_PANELS))
        inner = inner[::stride]
    base = [u_lo] + inner + [u_hi]

    width = max(2.0 * math.sqrt(shape), (u_hi - u_lo) / 48.0)
    segments: list[np.ndarray] = []
    for a, b in zip(base[:-1], base[1:]):
        pieces = max(1, int(math.ceil((b - a) / width)))
        segments.append(np.linspace(a, b, pieces + 1))
    edges = np.unique(np.concatenate(segments))

    jacobi_hi = 0.0
    singular = endpoint_power > 0.0 or abs(shape - round(shape)) > 1e-12
    if u_lo == 0.0 and singular:
        jacobi_hi = float(edges[1])
        edges = edges[1:]
        if len(edges) > 1 and edges[1] - edges[0] > 2.0 * jacobi_hi:
            # a kink close to u = 0 ends the Jacobi panel early: grade the
            # next panel geometrically so no panel is wider than its
            # distance to the u^(shape-1) singularity
            grade = [2.0 * jacobi_hi]
            while 2.0 * grade[-1] < edges[1]:
                grade.append(2.0 * grade[-1])
            edges = np.concatenate(([jacobi_hi], grade, edges[1:]))

    previous = None
    prev_diff = None
    for rounds in range(_MAX_ROUNDS):
        total, mass = _panel_values(f, shape, edges, nodes) if len(edges) > 1 else (0.0, 0.0)
        if jacobi_hi > 0.0:
            jt, jm = _jacobi_panel(f, shape, jacobi_hi, nodes, endpoint_power)
            total += jt
            mass += jm
        if previous is not None:
            diff = abs(total - previous)
            thresh = eps * abs(total) + 64.0 * 2.220446049250313e-16 * mass + 1e-300
            if diff <= thresh:
                return total
            # stagnation: once refinements stop shrinking the change is
            # evaluation noise, not discretization error -- accept, but only
            # if the change is already negligible against the absolute mass
            if (
                rounds >= 2
                and prev_diff is not None
                and diff >= 0.25 * prev_diff
                and diff <= 1e-9 * max(mass, abs(total))
            ):
                return total
            prev_diff = diff
        previous = total
        edges = _halve(edges)
        if jacobi_hi > 0.0:
            edges = np.concatenate(([0.5 * jacobi_hi], edges))
            jacobi_hi *= 0.5
    raise QuadratureError(
        f"gamma-mean quadrature did not converge (shape = {shape}, eps = {eps})"
    )
