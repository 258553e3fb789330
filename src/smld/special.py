"""Numerically stable scalar kernels used by every other module.

The operators on the half line only ever need these primitives on a
restricted parameter range (second Kummer parameter > 0, gamma shape > 0,
argument >= 0), and the implementations target exactly that range:

* ``pochhammer`` -- rising factorial,
* ``reg_lower_gamma`` -- regularized lower incomplete gamma P(s, z) on
  scalars or arrays, scipy's ``gammainc`` behind a domain check of every
  element; scipy is imported on the first call (``_scipy_special``), so
  ``import smld`` and the operator never load it,
* ``kummer_scaled`` -- e^(-z) 1F1(a; b; z) for a - b a nonnegative integer,
  the only case the closed-form raw moments need, as an exact finite sum,
* ``log_poisson_weights`` -- ln psi_a(lam) = a ln(lam) - lam - ln Gamma(a + 1)
  for real a >= 0 on arrays, in deviance form: every Poisson weight of the
  k-sums, every gamma density of the kernel, and the negative-binomial
  anchors of the spectral matrix,
* ``poisson_weight_log`` -- the same routine at one point.

``log_poisson_weights`` is a domain check, the order-only part g(a) =
ln Gamma(a + 1) - a ln a + a (``_log_gamma_excess``) and the one copy of
the deviance formula, ``_log_psi(lam, a, g)``.  The quadrature's batches
have fixed orders over several rounds of nodes, so they compute g once
per batch and call ``_log_psi`` on each round's nodes directly; they and
the operator's k-sum run it in place, slab by slab, in reused buffers.
Every weight-matrix product of the package, there and in the spectral and
analysis modules, is one ``_dot``, which sums each row on its own.

Every truncation edge in the package -- both ends of a Poisson k window
and both ends of a gamma-mean quadrature window -- is one ``_first``
search on one tail bound, ``_log_tail``: by the Poisson-gamma duality a
Poisson tail in k and a gamma tail in u are both tails of the terms
psi_j(lam) = lam^j e^(-lam) / Gamma(j + 1), and a tail whose terms shrink
by at most ``ratio`` per step weighs at most its first term / (1 - ratio).
The bound runs in scalar ``math`` inside the searches, with the short
three-logarithm form of psi: a truncation edge needs no more digits.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import ParameterError, _require

__all__ = [
    "pochhammer",
    "reg_lower_gamma",
    "kummer_scaled",
    "poisson_weight_log",
    "log_poisson_weights",
]

def _first(ok, k, step):
    """First of k, k + step, k + 2 step, ... where the monotone test ``ok``
    holds: gallop out by doubling strides, then bisect back."""
    lo, hi = -1, 0  # ok fails at k + lo * step and is tested at k + hi * step
    while not ok(k + hi * step):
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(k + mid * step) else (mid, hi)
    return k + hi * step


def _log_tail(j: float, lam: float, ratio: float) -> float:
    """ln[psi_j(lam) / (1 - ratio)], psi_j(lam) = lam^j e^(-lam) / Gamma(j + 1), real j.

    A bound on the tail that starts at the term psi_j(lam) when each further
    term is at most ``ratio`` < 1 times the one before it.
    """
    return j * math.log(lam) - lam - math.lgamma(j + 1.0) - math.log1p(-ratio)


@cache
def _scipy_special():
    """``scipy.special``, imported once per process on first use.

    Only the incomplete gamma and beta functions come from scipy; importing
    it costs several times the arithmetic of a one-shot ``smld apply``.
    """
    import scipy.special

    return scipy.special


def pochhammer(a: float, r: int) -> float:
    """Rising factorial (a)_r = a (a+1) ... (a+r-1), with (a)_0 = 1."""
    if r < 0 or r != int(r):
        raise ParameterError("pochhammer_order", f"r must be a nonnegative integer, got {r}")
    out = 1.0
    for i in range(int(r)):
        out *= a + i
    return out


def reg_lower_gamma(s, z):
    """Regularized lower incomplete gamma P(s, z) = gamma(s, z) / Gamma(s).

    Monotone nondecreasing in z with values in [0, 1] (scipy's ``gammainc``).
    s and z broadcast; every element needs s > 0 and z >= 0, and a NaN
    fails its check.  A float for scalar arguments, else an array.
    """
    s = np.asarray(s, dtype=float)
    z = np.asarray(z, dtype=float)
    _require(s > 0, s, "reg_gamma_shape", "s > 0")
    _require(z >= 0, z, "reg_gamma_argument", "z >= 0")
    out = _scipy_special().gammainc(s, z)
    return out if out.ndim else float(out)


def kummer_scaled(a: float, b: float, z: float) -> float:
    """Exponentially scaled confluent hypergeometric e^(-z) 1F1(a; b; z).

    Defined here only for a - b a nonnegative integer m, where the function
    is e^z times a degree-m polynomial (Kummer transformation, DLMF
    13.2.39): e^(-z) 1F1(b + m; b; z) = sum_{j=0}^{m} C(m, j) z^j / (b)_j,
    an exact finite sum of positive terms.  Every raw moment has this form
    (a = alpha + r + 1, b = alpha + 1); other shifts raise ParameterError.
    """
    if not b > 0:
        raise ParameterError("kummer_b_domain", f"requires b > 0, got {b}")
    if z < 0:
        raise ParameterError("kummer_z_domain", f"requires z >= 0, got {z}")
    if z == 0.0:
        return 1.0
    diff = a - b
    m = round(diff)
    if m < 0 or abs(diff - m) >= 1e-9:
        raise ParameterError(
            "kummer_shift_domain", f"requires a - b to be a nonnegative integer, got {diff}"
        )
    term = 1.0
    total = 1.0
    for j in range(1, m + 1):
        term *= (m - j + 1) * z / (j * (b + j - 1))
        total += term
    return total


# g(a) = ln Gamma(a+1) - a ln a + a - 0.5 ln(2 pi a), the Stirling series for a >= 16
_S0 = 1.0 / 12.0
_S1 = 1.0 / 360.0
_S2 = 1.0 / 1260.0
_S3 = 1.0 / 1680.0
_S4 = 1.0 / 1188.0


def _stirling(a):
    aa = a * a
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / aa) / aa) / aa) / aa) / a


def poisson_weight_log(n: float, x: float, k: int) -> float:
    """ln psi_{n,k}(x) = k ln(nx) - nx - ln k!: ``log_poisson_weights`` at one point.

    Returns -inf for x = 0, k >= 1 (and exactly 0 for x = 0, k = 0) so the
    k = 0 term survives at the interpolation point.
    """
    if not n > 0:
        raise ParameterError("poisson_n", f"requires n > 0, got {n}")
    if x < 0:
        raise ParameterError("poisson_x", f"requires x >= 0, got {x}")
    if k < 0 or k != int(k):
        raise ParameterError("poisson_k", f"k must be a nonnegative integer, got {k}")
    return float(log_poisson_weights(n * x, k))


def _log_gamma_excess(a: np.ndarray) -> np.ndarray:
    """g(a) = ln Gamma(a + 1) - a ln a + a for an array of orders a >= 0, with
    g(0) = 0: the order-only part of ``_log_psi``, which a caller with fixed
    orders computes once.  The Stirling series serves a >= 16; the few
    orders below take ``math.lgamma`` one at a time."""
    a = np.asarray(a, dtype=float)
    small = a < 16
    g = np.empty(a.shape)
    big = a[~small]
    g[~small] = _stirling(big) + 0.5 * np.log(2.0 * math.pi * big)
    g[small] = [math.lgamma(v + 1.0) - (v * math.log(v) if v else 0.0) + v
                for v in a[small].tolist()]
    return g


def _log_psi(lam, a, g, out=None, work=None):
    """The deviance kernel: ln psi_a(lam) = (a - lam) - a log1p((a - lam)/lam) - g
    for an array of orders a and g = g(a), broadcast, with no checks.

    Near the mean its error is a few eps |a - lam|, not the eps lam ln(lam)
    of three large logarithms.  An order a = 0 stays out of log1p(-1); lam
    = 0 gives -inf for a > 0 and -g for a = 0, and needs the caller's
    ``np.errstate``.  A caller that runs it slab by slab passes two buffers
    of the broadcast shape, ``out`` (which it returns) and ``work``, and the
    kernel fills them in place with the same operations in the same order.
    """
    dev = np.subtract(a, lam, out=out)
    alog = np.divide(dev, lam, out=work)
    if a.all():
        alog = np.log1p(alog, out=work)
    else:
        positive = a > 0
        if work is None:
            work = np.zeros(np.shape(alog))
        else:
            np.copyto(work, 0.0, where=~positive)
        alog = np.log1p(alog, out=work, where=positive)
    alog *= a
    dev -= alog
    dev -= g
    return dev


def _dot(m, v):
    """sum_j m[..., j] v[j], a scalar for 1-D m: each output sums its own row
    in numpy's einsum order, with no BLAS call, so its bits depend neither on
    the BLAS kernel or its thread count nor on the neighbouring rows or the
    slab size."""
    return np.einsum("...j,j->...", m, v)


def log_poisson_weights(lam, a) -> np.ndarray:
    """ln psi_a(lam) = a ln(lam) - lam - ln Gamma(a + 1), broadcast, for lam >= 0 and real a >= 0.

    The deviance kernel ``_log_psi`` behind a domain check.  At lam = 0 it
    is 0 for a = 0 and -inf above.
    """
    lam = np.asarray(lam, dtype=float)
    a = np.asarray(a, dtype=float)
    if (lam < 0).any() or (a < 0).any():
        raise ParameterError("poisson_domain", "requires lam >= 0 and a >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        return _log_psi(lam, a, _log_gamma_excess(a))
