"""Numerically stable scalar kernels used by every other module.

The operators on the half line only ever need these primitives on a
restricted parameter range (second Kummer parameter > 0, gamma shape > 0,
argument >= 0), and the implementations target exactly that range:

* ``log_gamma`` -- thin wrapper with a domain check,
* ``pochhammer`` -- rising factorial,
* ``reg_lower_gamma`` -- regularized lower incomplete gamma P(s, z),
  series below z = s + 1 and a Lentz continued fraction for the upper
  tail above it (the classical stable split),
* ``kummer_scaled`` -- e^(-z) 1F1(a; b; z) for a - b a nonnegative integer,
  the only case the closed-form raw moments need, as an exact finite sum,
* ``poisson_weight_log`` / ``poisson_tail`` -- log-domain Poisson weights
  and certified tail masses for truncating the operator's k-sums,
* ``log_poisson_weights`` -- the same log weights on arrays, for the one
  k-sum that every operator value goes through.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import NonConvergenceError, ParameterError

__all__ = [
    "log_gamma",
    "pochhammer",
    "reg_lower_gamma",
    "kummer_scaled",
    "poisson_weight_log",
    "log_poisson_weights",
    "poisson_tail",
]

_NEG_INF = float("-inf")


def log_gamma(s: float) -> float:
    """ln Gamma(s) for s > 0."""
    if not s > 0:
        raise ParameterError("log_gamma_domain", f"log_gamma requires s > 0, got {s}")
    return math.lgamma(s)


def pochhammer(a: float, r: int) -> float:
    """Rising factorial (a)_r = a (a+1) ... (a+r-1), with (a)_0 = 1."""
    if r < 0 or r != int(r):
        raise ParameterError("pochhammer_order", f"r must be a nonnegative integer, got {r}")
    out = 1.0
    for i in range(int(r)):
        out *= a + i
    return out


def reg_lower_gamma(s: float, z: float) -> float:
    """Regularized lower incomplete gamma P(s, z) = gamma(s, z) / Gamma(s).

    Monotone nondecreasing in z with values in [0, 1].  Uses the power
    series for z < s + 1 and the Lentz continued fraction for the upper
    function Q(s, z) otherwise.
    """
    if not s > 0:
        raise ParameterError("reg_gamma_shape", f"requires s > 0, got {s}")
    if z < 0:
        raise ParameterError("reg_gamma_argument", f"requires z >= 0, got {z}")
    if z == 0.0:
        return 0.0
    log_front = -z + s * math.log(z) - math.lgamma(s)
    if z < s + 1.0:
        ap = s
        term = 1.0 / s
        total = term
        for _ in range(100_000):
            ap += 1.0
            term *= z / ap
            total += term
            if abs(term) < abs(total) * 1e-17:
                return min(1.0, total * math.exp(log_front))
        raise NonConvergenceError("lower gamma series did not converge")
    q = math.exp(log_front) * _upper_gamma_fraction(s, z)
    return max(0.0, min(1.0, 1.0 - q))


def _upper_gamma_fraction(s: float, z: float) -> float:
    """Lentz's method for the continued fraction of Q(s, z) e^z z^(-s) Gamma(s)."""
    tiny = 1e-300
    b = z + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, 100_000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            return h
    raise NonConvergenceError("upper gamma continued fraction did not converge")


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


def _log_reg_upper_gamma(s: float, z: float) -> float:
    """ln Q(s, z) for z > s + 1, usable far below the underflow threshold.

    Internal: the quadrature window search needs tail masses down to
    ~1e-320 in log form, where 1 - P(s, z) would round to zero.
    """
    if z <= s + 1.0:
        p = reg_lower_gamma(s, z)
        if p >= 1.0:
            return -745.0  # tail below double resolution in this regime
        return math.log1p(-p)
    return -z + s * math.log(z) - math.lgamma(s) + math.log(_upper_gamma_fraction(s, z))


# stirlerr(k) = lgamma(k+1) - [k ln k - k + 0.5 ln(2 pi k)]; series for k >= 16
_S0 = 1.0 / 12.0
_S1 = 1.0 / 360.0
_S2 = 1.0 / 1260.0
_S3 = 1.0 / 1680.0
_S4 = 1.0 / 1188.0
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirlerr(k: float) -> float:
    if k < 16:
        return math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _LN_SQRT_2PI
    kk = k * k
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / kk) / kk) / kk) / kk) / k


def _bd0(x: float, lam: float) -> float:
    # x ln(x/lam) + lam - x, computed without cancellation when x ~ lam
    # (Loader's deviance term).
    if abs(x - lam) < 0.1 * (x + lam):
        v = (x - lam) / (x + lam)
        s = (x - lam) * v
        ej = 2.0 * x * v
        v2 = v * v
        for j in range(1, 1000):
            ej *= v2
            s1 = s + ej / (2 * j + 1)
            if s1 == s:
                return s1
            s = s1
    return x * math.log(x / lam) + lam - x


def poisson_weight_log(n: float, x: float, k: int) -> float:
    """ln psi_{n,k}(x) = k ln(nx) - nx - ln k!.

    Returns -inf for x = 0, k >= 1 (and exactly 0 for x = 0, k = 0) so the
    k = 0 term survives at the interpolation point.  Large (k, nx) pairs go
    through the saddle-point form -bd0(k, nx) - stirlerr(k) - 0.5 ln(2 pi k),
    which avoids the cancellation of three large logarithms.
    """
    if not n > 0:
        raise ParameterError("poisson_n", f"requires n > 0, got {n}")
    if x < 0:
        raise ParameterError("poisson_x", f"requires x >= 0, got {x}")
    if k < 0 or k != int(k):
        raise ParameterError("poisson_k", f"k must be a nonnegative integer, got {k}")
    if x == 0.0:
        return 0.0 if k == 0 else _NEG_INF
    lam = n * x
    if k == 0:
        return -lam
    if k <= 15:
        return k * math.log(lam) - lam - math.lgamma(k + 1.0)
    return -_stirlerr(float(k)) - _bd0(float(k), lam) - 0.5 * math.log(2.0 * math.pi * k)


def log_poisson_weights(lam, k) -> np.ndarray:
    """ln psi_k(lam) = k ln(lam) - lam - ln k! on broadcast arrays lam >= 0, integer k >= 0.

    Computed as (k - lam) - k log1p((k - lam)/lam) - g(k) with g(k) = ln k! -
    k ln k + k (the Stirling series above k = 15): near the mean its error is
    a few eps |k - lam|, not the eps lam ln(lam) of three large logarithms.
    At lam = 0 it is 0 for k = 0 and -inf above.
    """
    lam = np.asarray(lam, dtype=float)
    k = np.asarray(k, dtype=float)
    if (lam < 0).any() or (k < 0).any() or (k != np.floor(k)).any():
        raise ParameterError("poisson_domain", "requires lam >= 0 and integer k >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = k - lam
        ratio = dev / lam
        kk = k * k
        series = (_S0 - (_S1 - (_S2 - (_S3 - _S4 / kk) / kk) / kk) / kk) / k
        g = np.where(k < 16, gammaln(k + 1.0) - xlogy(k, k) + k,
                     series + 0.5 * np.log(2.0 * math.pi * k))
    klog = np.zeros(ratio.shape)  # k = 0 stays out of log1p(-1)
    np.log1p(ratio, out=klog, where=k > 0)
    klog *= k
    dev -= klog
    dev -= g
    return dev


def poisson_tail(n: float, x: float, K: int) -> float:
    """Tail mass sum_{k > K} psi_{n,k}(x), clamped to [0, 1].

    Equal to P(K + 1, nx) by the standard Poisson/gamma duality, which is
    how it is computed -- no cancellation against 1.
    """
    if not n > 0:
        raise ParameterError("poisson_n", f"requires n > 0, got {n}")
    if x < 0:
        raise ParameterError("poisson_x", f"requires x >= 0, got {x}")
    if K < 0 or K != int(K):
        raise ParameterError("poisson_k", f"K must be a nonnegative integer, got {K}")
    return reg_lower_gamma(K + 1.0, n * x)
