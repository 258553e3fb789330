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
verified, at matrix level and at operator level.  Each row is anchored at
its mode by ``special.log_poisson_weights`` (a negative-binomial pmf is a
ratio of real-order Poisson weights) and filled by its term recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, TruncationError, _require_order, _require_points
from .operator import OperatorParams, TestFunction, apply_operator_grid
from .operator.core import _poisson_sum
from .special import _dot, _scipy_special, log_poisson_weights

__all__ = [
    "TruncatedP",
    "EigenCheck",
    "IterateDecayReport",
    "build_P",
    "adaptive_K",
    "build_P_adaptive",
    "row_deficit_tail",
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


@dataclass(frozen=True)
class TruncatedP:
    """(K+1) x (K+1) leading block of P with per-row truncation deficits."""

    K: int
    entries: np.ndarray
    params: OperatorParams
    row_deficits: np.ndarray


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


def _nb_row(s: float, q2: float, K: int, mode: int, anchor: float) -> np.ndarray:
    """Columns 0..K of the row pmf, anchored at its value ``anchor`` at the
    mode and filled by the two-sided term recurrence (so no entry inherits a
    large-log error)."""
    row = np.empty(K + 1)
    row[mode] = anchor
    if mode < K:
        jj = np.arange(mode, K, dtype=float)
        row[mode + 1 :] = anchor * np.cumprod(q2 * (s + jj) / (jj + 1.0))
    if mode > 0:
        jj = np.arange(mode, 0, -1, dtype=float)
        row[mode - 1 :: -1] = anchor * np.cumprod(jj / (q2 * (s + jj - 1.0)))
    return row


def build_P(params: OperatorParams, K: int) -> TruncatedP:
    """Leading (K+1) x (K+1) block of P with per-row truncation deficits."""
    K = _require_order(K, "matrix_order", lo=1)
    if K > _K_CAP:
        raise ParameterError("matrix_order", f"requires K <= {_K_CAP}, got {K}")
    n, al, b = params.n, params.alpha, params.beta
    denom = 2.0 * n - b
    q1 = (n - b) / denom
    q2 = n / denom
    s = np.arange(K + 1) + al + 1.0
    modes = np.clip(np.floor(s * q2 / q1), 0, K)
    anchors = np.exp(_log_nb_pmf(s, q1, q2, modes))
    entries = np.empty((K + 1, K + 1))
    for k in range(K + 1):
        entries[k] = _nb_row(s[k], q2, K, int(modes[k]), anchors[k])
    # pairwise summation keeps the measurement noise ~1e-15; true deficits
    # are masses, so the measured values are floored at zero
    deficits = np.maximum(1.0 - entries.sum(axis=1), 0.0)
    return TruncatedP(K, entries, params, deficits)


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


def eigen_vector_check(p_mat: TruncatedP, which: str) -> EigenCheck:
    """Max row residual |(P v)_k - lam v_k| over the upper rows k <= K/2.

    Only upper rows are measured: truncation error concentrates in the
    high rows, while the identity is exact for the infinite matrix.
    """
    _, z, lam = _eigen_pair(p_mat.params, which)
    v = z ** np.arange(p_mat.K + 1.0)
    pv = _dot(p_mat.entries, v)
    upper = slice(0, p_mat.K // 2 + 1)
    residual = float(np.max(np.abs(pv[upper] - lam * v[upper])))
    return EigenCheck(which, lam, vector_residual=residual)


def eigen_operator_check(params: OperatorParams, which: str, x_grid) -> EigenCheck:
    """Max |M[phi](x) - lam phi(x)| over the grid, phi = 1 or e^(-beta x)."""
    phi, _, lam = _eigen_pair(params, which)
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    residual = float(np.max(np.abs(apply_operator_grid(phi, xs, params) - lam * phi(xs))))
    return EigenCheck(which, lam, operator_residual=residual)


def iterate_decay(params: OperatorParams, r: int, x_grid) -> IterateDecayReport:
    """Push the geometric eigenvector through P r times and lift each iterate.

    The m-th lift must track lam^m e^(-beta x); successive sup-amplitudes
    over the grid must contract by exactly lam.  P is the adaptive
    truncation, whose upper rows k <= K/2 lose at most 1e-12 of their mass.
    r is a whole number >= 0 and the grid holds finite points x >= 0.
    """
    if params.beta <= 0:
        raise ParameterError(
            "iterate_beta_range", f"requires 0 < beta < n, got beta = {params.beta}"
        )
    r = _require_order(r, "iterate_steps")
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
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
            v = _dot(p_mat.entries, v)
    ratios = tuple(
        amplitudes[m + 1] / amplitudes[m] for m in range(r) if amplitudes[m] != 0.0
    )
    return IterateDecayReport(r, lam, tuple(deviations), ratios)
