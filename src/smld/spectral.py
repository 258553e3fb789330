"""Truncated coefficient matrix P and verification of its two eigenpairs.

The operator maps a Poisson-basis coefficient vector v to P v, where

    P[k, j] = q1^(k+alpha+1) * q2^j * (k+alpha+1)_j / j!,
    q1 = (n-beta)/(2n-beta),  q2 = n/(2n-beta).

Each row is a negative-binomial distribution over j, so rows sum to one
and a finite truncation leaves a computable tail ("row deficit").  Two
eigenpairs are known in closed form: the constant vector with eigenvalue
1 and the geometric vector (1 - beta/n)^j with eigenvalue
(1 - beta/n)^(alpha+1), whose lift through the Poisson basis is e^(-beta x).
Nothing here searches for further spectrum; only these two pairs are
verified, at matrix level and at operator level.

P is truncated to the columns 0..K and never stored: a ``TruncatedP``
holds, per row, its mode, its value there and its band, and rebuilds each
row on demand in O(K) memory.  Each row is anchored at its mode by
``special.log_poisson_weights`` (a negative-binomial pmf is a ratio of
real-order Poisson weights) and filled outward by its term recurrence over
its band, whose two edges are each one ``special._first`` search on a
term-ratio tail bound: the mass left out on either side is at most
``_BAND_TOL``.  Products with P stream the rows and sum each band with
``special._dot``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (
    ParameterError,
    TruncationError,
    _require,
    _require_grid,
    _require_order,
    _require_points,
)
from .operator import OperatorParams, TestFunction, apply_operator_grid
from .operator.core import _poisson_sum
from .special import _dot, _first, _scipy_special, log_poisson_weights

__all__ = [
    "TruncatedP",
    "EigenCheck",
    "IterateDecayReport",
    "build_P",
    "adaptive_K",
    "build_P_adaptive",
    "row_deficit_tail",
    "upper_row_check",
    "eigen_vector_check",
    "eigen_operator_check",
    "iterate_decay",
    "lambda2",
]

_WHICH = ("constant", "exponential")

# adaptive_K: the upper-row deficit it targets and the first K it tries; the
# largest K that it tries and that build_P accepts
_DEFICIT_TOL = 1e-12
_K_START = 512
_K_CAP = 40_000

# the row mass a band may leave out on each side of the mode: four orders
# below the rounding of a row sum near 1
_BAND_TOL = 1e-20


@dataclass(frozen=True)
class TruncatedP:
    """P on the columns 0..K, row k stored as its mode, its value there
    (``anchors``) and its band ``lo[k]``..``hi[k]``, outside which the row
    holds at most ``_BAND_TOL`` of mass on each side.  Rows are rebuilt on
    demand; no block of P is stored."""

    K: int
    params: OperatorParams
    modes: np.ndarray
    anchors: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def _rows(self, start: int, stop: int) -> Iterator[tuple[int, np.ndarray]]:
        """(lo[k], row k on its band) for start <= k < stop; the band is a
        view of one buffer, valid until the next row."""
        n, al, b = self.params.n, self.params.alpha, self.params.beta
        q2 = n / (2.0 * n - b)
        # q2 (s + j) of row k = start + i at column j, s = k + alpha + 1, is num[i + j]
        num = q2 * (np.arange(start, stop + self.K, dtype=float) + al + 1.0)
        den = np.arange(1.0, self.K + 2.0)
        buf = np.empty(self.K + 1)
        rows = zip(self.anchors[start:stop].tolist(), self.modes[start:stop].tolist(),
                   self.lo[start:stop].tolist(), self.hi[start:stop].tolist())
        for i, (anchor, mode, lo, hi) in enumerate(rows):
            _nb_row(buf, anchor, mode, lo, hi, num[i:], den)
            yield lo, buf[lo : hi + 1]

    def row(self, k: int) -> np.ndarray:
        """Row k, 0 <= k <= K, on the columns 0..K; zero outside its band."""
        k = _require_order(k, "matrix_row")
        _require(k <= self.K, k, "matrix_row", f"k <= K = {self.K}")
        out = np.zeros(self.K + 1)
        for lo, band in self._rows(k, k + 1):
            out[lo : lo + band.size] = band
        return out

    def times(self, vs) -> np.ndarray:
        """P v on every row, for one vector v of length K + 1 or for each row
        of a 2-D stack of them (``matrix_vector``)."""
        vs = np.asarray(vs, dtype=float)
        _require(vs.ndim in (1, 2) and vs.shape[-1] == self.K + 1, vs.shape, "matrix_vector",
                 f"one or a 2-D stack of vectors of length K + 1 = {self.K + 1}")
        return self._times(vs, self.K + 1)

    def _times(self, vs: np.ndarray, stop: int) -> np.ndarray:
        """(P v)_k for k < stop, streamed row by row: each band is summed by
        ``special._dot``, so each entry sums its own row."""
        pv = [_dot(vs[..., lo : lo + band.size], band) for lo, band in self._rows(0, stop)]
        return np.array(pv).T


@dataclass(frozen=True)
class EigenCheck:
    which: str
    lam: float
    vector_residual: float | None = None
    operator_residual: float | None = None


@dataclass(frozen=True)
class IterateDecayReport:
    steps: int
    lam: float
    max_deviations: tuple[float, ...]  # per step, vs lam^m e^(-beta x)
    amplitude_ratios: tuple[float, ...]  # sup-amplitude ratio per step


def lambda2(params: OperatorParams) -> float:
    """(1 - beta/n)^(alpha+1), the eigenvalue on e^(-beta x)."""
    return (1.0 - params.beta / params.n) ** (params.alpha + 1.0)


def _log_nb_pmf(s, q1: float, q2: float, j):
    """ln of the row pmf q1^s q2^j (s)_j / j! (on broadcast arrays), stable for large (s, j).

    With N = s + j and q1 + q2 = 1 it is ln(s/N) + ln psi_s(N q1) +
    ln psi_j(N q2) - ln psi_N(N), three real-order Poisson weights in
    deviance form, so it is accurate to a few ulps near the row mode even
    where three large lgamma values would cancel to O(1).
    """
    nn = s + j
    return (
        np.log(s / nn)
        + log_poisson_weights(nn * q1, s)
        + log_poisson_weights(nn * q2, j)
        - log_poisson_weights(nn, nn)
    )


def _nb_row(out: np.ndarray, anchor: float, mode: int, lo: int, hi: int, num, den) -> None:
    """Row pmf on the columns lo..hi into ``out[lo : hi + 1]``: its value
    ``anchor`` at the mode, then the two-sided term recurrence outward (so
    no entry inherits a large-log error).  ``num[j]`` is q2 (s + j) and
    ``den[j]`` is j + 1: column j + 1 is column j times their ratio."""
    right = out[mode + 1 : hi + 1]
    np.divide(num[mode:hi], den[mode:hi], out=right)
    np.multiply.accumulate(right, out=right)
    left = out[lo:mode]
    np.divide(den[lo:mode], num[lo:mode], out=left)
    left = left[::-1]
    np.multiply.accumulate(left, out=left)
    out[mode] = 1.0
    out[lo : hi + 1] *= anchor


def _band_edges(s: np.ndarray, q1: float, q2: float, modes: np.ndarray, K: int):
    """Each row's band [lo, hi] within the columns 0..K: one ``_first``
    search per edge on a term-ratio tail bound, started from the previous
    row's edge shifted by the least step q2/q1 of the mean.

    Beyond column h the row mass is at most t_(h+1) / (1 - rho), rho =
    max(t_(h+2)/t_(h+1), q2): the ratio q2 (s + j)/(j + 1) tends to q2 and
    moves monotonically in j, and it is below 1 from the mode on.  Below
    column l the mass is at most t_(l-1) / (1 - rho), rho = t_(l-2)/t_(l-1):
    for s >= 1 the largest ratio of that tail, and for s < 1 above 1 from
    l = 2 on, so that row's left edge is column 0 or 1.  The terms come from
    three lgamma values: an edge needs no more digits.
    """
    log_q1, log_q2, log_tol = math.log(q1), math.log(q2), math.log(_BAND_TOL)
    shift = math.floor(q2 / q1)
    lo = np.empty(K + 1, dtype=np.intp)
    hi = np.empty(K + 1, dtype=np.intp)
    sk = lg_s = 0.0  # the row's s and ln Gamma(s), which the tests below read

    def bounded(j: int, rho: float) -> bool:
        # t_j / (1 - rho) <= _BAND_TOL, in logs
        log_t = sk * log_q1 + j * log_q2 + math.lgamma(sk + j) - lg_s - math.lgamma(j + 1.0)
        return rho < 1.0 and log_t - math.log1p(-rho) <= log_tol

    def right_ok(h: int) -> bool:
        return h >= K or bounded(h + 1, max(q2 * (sk + h + 1) / (h + 2), q2))

    def left_ok(l: int) -> bool:
        return l <= 0 or bounded(l - 1, (l - 1) / (q2 * (sk + l - 2)) if l > 1 else 0.0)

    left = right = 0
    for k, (sk, mode) in enumerate(zip(s.tolist(), modes.tolist())):
        lg_s = math.lgamma(sk)
        right = _first(right_ok, min(max(right + shift, mode), K), 1)
        left = _first(left_ok, max(min(left + shift + 1, mode), 0), -1)
        lo[k], hi[k] = left, right
    return lo, hi


def build_P(params: OperatorParams, K: int) -> TruncatedP:
    """P on the columns 0..K: each row's mode, value there and band."""
    K = _require_order(K, "matrix_order", lo=1)
    if K > _K_CAP:
        raise ParameterError("matrix_order", f"requires K <= {_K_CAP}, got {K}")
    n, al, b = params.n, params.alpha, params.beta
    denom = 2.0 * n - b
    q1 = (n - b) / denom
    q2 = n / denom
    s = np.arange(K + 1) + al + 1.0
    modes = np.clip(np.floor(s * q2 / q1), 0, K).astype(np.intp)
    anchors = np.exp(_log_nb_pmf(s, q1, q2, modes))
    return TruncatedP(K, params, modes, anchors, *_band_edges(s, q1, q2, modes, K))


def row_deficit_tail(params: OperatorParams, k: int, K: int) -> float:
    """Row-k deficit computed independently of the matrix: the
    negative-binomial mass beyond column K, I_{q2}(K + 1, k + alpha + 1)
    as a regularized incomplete beta function (scipy's ``betainc``, which
    the first call imports).
    """
    q2 = params.n / (2.0 * params.n - params.beta)
    return float(_scipy_special().betainc(K + 1.0, k + params.alpha + 1.0, q2))


def adaptive_K(params: OperatorParams) -> int:
    """Smallest tried K whose worst upper row (k = K//2) has deficit <= 1e-12.

    Deficits grow with the row index, so checking the last row of the
    upper half suffices.  Uses the analytic tail, no matrix build.
    """
    K = _K_START
    while True:
        if row_deficit_tail(params, K // 2, K) <= _DEFICIT_TOL:
            return K
        K = int(K * 1.4) + 16
        if K > _K_CAP:
            raise TruncationError(f"adaptive K exceeded cap = {_K_CAP}")


def build_P_adaptive(params: OperatorParams) -> TruncatedP:
    return build_P(params, adaptive_K(params))


def _eigen_pair(params: OperatorParams, which: str) -> tuple[TestFunction, float, float]:
    """(phi, z, lam) of a known eigenpair: phi = 1 or e^(-beta x), whose
    coefficient vector is z^j (z = 1 or 1 - beta/n), with eigenvalue lam."""
    if which == "constant":
        return TestFunction.monomial(0), 1.0, 1.0
    if which == "exponential":
        if params.beta < 0:
            raise ParameterError(
                "exponential_eigen_beta",
                f"exponential eigenpair needs 0 <= beta < n, got beta = {params.beta}",
            )
        return TestFunction.exp_scaled(-params.beta), 1.0 - params.beta / params.n, lambda2(params)
    raise ParameterError("eigen_which", f"which must be one of {_WHICH}, got {which!r}")


def upper_row_check(
    p_mat: TruncatedP, whichs: tuple[str, ...] = _WHICH
) -> tuple[float, tuple[EigenCheck, ...]]:
    """One streamed pass over the upper rows k <= K/2: their worst deficit
    1 - sum_j P[k, j] (floored at 0: a true deficit is a mass) and, for
    each eigenvector named in ``whichs``, its max row residual
    |(P v)_k - lam v_k|.

    Only upper rows are measured: truncation error concentrates in the
    high rows, while the identity is exact for the infinite matrix.
    """
    pairs = [_eigen_pair(p_mat.params, which) for which in whichs]
    cols = np.arange(p_mat.K + 1.0)
    vs = np.stack([np.ones(p_mat.K + 1)] + [z**cols for _, z, _ in pairs])
    upper = p_mat.K // 2 + 1
    pv = p_mat._times(vs, upper)
    deficit = float(np.max(np.maximum(1.0 - pv[0], 0.0)))
    checks = tuple(
        EigenCheck(which, lam, vector_residual=float(np.max(np.abs(pvi - lam * v[:upper]))))
        for which, (_, _, lam), pvi, v in zip(whichs, pairs, pv[1:], vs[1:])
    )
    return deficit, checks


def eigen_vector_check(p_mat: TruncatedP, which: str) -> EigenCheck:
    """Max row residual |(P v)_k - lam v_k| over the upper rows k <= K/2."""
    return upper_row_check(p_mat, (which,))[1][0]


def eigen_operator_check(params: OperatorParams, which: str, x_grid) -> EigenCheck:
    """Max |M[phi](x) - lam phi(x)| over a non-empty grid, phi = 1 or e^(-beta x)."""
    phi, _, lam = _eigen_pair(params, which)
    xs = _require_grid(x_grid, nonempty=True)
    residual = float(np.max(np.abs(apply_operator_grid(phi, xs, params) - lam * phi(xs))))
    return EigenCheck(which, lam, operator_residual=residual)


def iterate_decay(params: OperatorParams, r: int, x_grid) -> IterateDecayReport:
    """Push the geometric eigenvector through P r times and lift each iterate.

    The m-th lift must track lam^m e^(-beta x); successive sup-amplitudes
    over the grid must contract by exactly lam.  P is the adaptive
    truncation, whose upper rows k <= K/2 lose at most 1e-12 of their mass.
    r is a whole number >= 0 and the grid a non-empty 1-D array of finite x >= 0.
    """
    if params.beta <= 0:
        raise ParameterError(
            "iterate_beta_range", f"requires 0 < beta < n, got beta = {params.beta}"
        )
    r = _require_order(r, "iterate_steps")
    xs = _require_grid(x_grid, nonempty=True)
    _require_points(xs)
    p_mat = build_P_adaptive(params)
    _, z, lam = _eigen_pair(params, "exponential")
    v = z ** np.arange(p_mat.K + 1.0)
    deviations = []
    amplitudes = []
    for m in range(r + 1):
        lifted = _poisson_sum(params.n, xs, v, 0)
        target = lam**m * np.exp(-params.beta * xs)
        deviations.append(float(np.max(np.abs(lifted - target))))
        amplitudes.append(float(np.max(np.abs(lifted))))
        if m < r:
            v = p_mat.times(v)
    ratios = tuple(
        amplitudes[m + 1] / amplitudes[m] for m in range(r) if amplitudes[m] != 0.0
    )
    return IterateDecayReport(r, lam, tuple(deviations), ratios)
