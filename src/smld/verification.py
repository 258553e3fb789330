"""The full verification battery, one named check per acceptance clause.

Each check returns a :class:`CheckResult` with the measured worst value
and the tolerance it was held to; ``run_all`` executes the fixed sequence
the CLI's ``verify-all`` command reports.  Checks measure, they never
assume: where a stated bound is not actually attained by the exact
formulas (see the failing checks' details), the measured value is
reported and the check honestly fails.

Default parameter grid: n in {5, 10, 50, 200}, alpha in {-0.5, -0.25, 0,
0.5, 1}, beta in {0, 0.5, 1, 2} (with n > beta), x in {0, 0.1, 1, 2, 5}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .analysis import (
    compact_estimate_check,
    korovkin_weighted_check,
    lp_error,
    schur_E,
    schur_first_integral,
    schur_second_integral,
)
from .moments import (
    central_moment_binomial,
    central_moment_explicit,
    diff_recurrence_residual,
    raw_moment_closed,
    raw_moment_explicit,
    raw_moments_recurrence,
)
from .operator import OperatorParams, TestFunction, apply_operator
from .special import reg_lower_gamma
from .spectral import (
    build_P_adaptive,
    eigen_operator_check,
    iterate_decay,
    lambda2,
    upper_row_check,
)

__all__ = ["CheckResult", "run_all", "ALL_CHECKS", "G_N", "G_ALPHA", "G_BETA", "G_X"]

G_N = (5.0, 10.0, 50.0, 200.0)
G_ALPHA = (-0.5, -0.25, 0.0, 0.5, 1.0)
G_BETA = (0.0, 0.5, 1.0, 2.0)
G_X = (0.0, 0.1, 1.0, 2.0, 5.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def _grid_params(ns=G_N, alphas=G_ALPHA, betas=G_BETA) -> Iterable[OperatorParams]:
    for n in ns:
        for al in alphas:
            for b in betas:
                if n > b:
                    yield OperatorParams(n, al, b)


def _result(name: str, measured: float, tolerance: float, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(measured <= tolerance), measured, tolerance, detail)


# -- 1: normalization ----------------------------------------------------------


def check_01_normalization() -> list[CheckResult]:
    one = TestFunction.monomial(0)
    worst = 0.0
    for params in _grid_params():
        for x in G_X:
            worst = max(worst, abs(apply_operator(one, x, params) - 1.0))
    return [_result("01_normalization", worst, 1e-12, "max |M[1](x) - 1| over grid")]


# -- 2, 3: raw-moment routes -----------------------------------------------------


def check_02_moment_cross_agreement() -> list[CheckResult]:
    worst_rec = 0.0
    worst_exp = 0.0
    worst_quad = 0.0
    for params in _grid_params():
        for x in G_X:
            rec = raw_moments_recurrence(8, x, params)
            for r in range(9):
                closed = raw_moment_closed(r, x, params)
                denom = max(abs(closed), 1.0)
                worst_rec = max(worst_rec, abs(closed - rec[r]) / denom)
                explicit = raw_moment_explicit(r, x, params)
                worst_exp = max(worst_exp, abs(closed - explicit) / denom)
                if 1 <= r <= 4:
                    quad = apply_operator(TestFunction.monomial(r), x, params)
                    worst_quad = max(worst_quad, abs(closed - quad) / denom)
    return [
        _result("02a_closed_vs_recurrence", worst_rec, 1e-11, "r <= 8"),
        _result("02b_closed_vs_explicit", worst_exp, 1e-12, "r <= 8"),
        _result("02c_closed_vs_quadrature", worst_quad, 1e-7, "r <= 4"),
    ]


def check_03_three_term_residual() -> list[CheckResult]:
    worst = 0.0
    for params in _grid_params():
        rate = params.rate
        for x in G_X:
            z = params.n * x
            closed = [raw_moment_closed(r, x, params) for r in range(9)]
            for r in range(1, 8):
                lhs = rate**2 * closed[r + 1]
                rhs = rate * (params.alpha + 2 * r + 1 + z) * closed[r] - r * (
                    params.alpha + r
                ) * closed[r - 1]
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    return [
        _result("03_three_term_residual", worst, 1e-10, "closed-form values in the recurrence")
    ]


# -- 4: differential recurrence ---------------------------------------------------


def check_04_diff_recurrence() -> list[CheckResult]:
    subset = list(_grid_params(ns=(10.0, 50.0), alphas=(-0.5, 0.0, 1.0), betas=(0.0, 1.0)))
    worst_resid = 0.0
    worst_ratio_dev = 0.0
    floor = 1e-10
    note = ""
    for params in subset:
        for r in (2, 3):
            r_h = diff_recurrence_residual(r, 1.0, params, 1e-3)
            r_h2 = diff_recurrence_residual(r, 1.0, params, 5e-4)
            worst_resid = max(worst_resid, r_h)
            if r_h <= floor and r_h2 <= floor:
                # moment of order r is a degree-r polynomial in x; for r = 2 the
                # central difference is exact, so both residuals sit at the
                # rounding floor and the factor-4 law is vacuous
                note = "r=2 residuals at rounding floor; order ratio measured on r=3"
                continue
            worst_ratio_dev = max(worst_ratio_dev, abs(r_h / r_h2 - 4.0))
    return [
        _result("04a_diff_recurrence_residual", worst_resid, 1e-5, "r in {2,3}, x=1, h=1e-3"),
        _result("04b_diff_recurrence_order", worst_ratio_dev, 0.5, note),
    ]


# -- 5: central moments -----------------------------------------------------------


def check_05_central_moments() -> list[CheckResult]:
    worst_dd = 0.0
    worst_quad = 0.0
    for params in _grid_params():
        for x in G_X:
            for r in range(1, 5):
                explicit = central_moment_explicit(r, x, params)
                binom = central_moment_binomial(r, x, params)
                worst_dd = max(worst_dd, abs(explicit - binom) / max(abs(explicit), 1e-300))
                quad = apply_operator(TestFunction.centered_power(x, r), x, params)
                worst_quad = max(worst_quad, abs(explicit - quad) / max(abs(explicit), 1.0))
    return [
        _result("05a_central_explicit_vs_binomial", worst_dd, 1e-10, "relative, r <= 4"),
        _result("05b_central_explicit_vs_quadrature", worst_quad, 1e-6, "r <= 4"),
    ]


# -- 6: asymptotics ----------------------------------------------------------------


def check_06_asymptotics() -> list[CheckResult]:
    worst_r1 = 0.0
    for params in _grid_params(ns=(50.0, 200.0)):
        for x in G_X:
            c1 = central_moment_explicit(1, x, params)
            lead = params.alpha + 1.0 + params.beta * x
            allowed = 5.0 * lead / params.n
            worst_r1 = max(worst_r1, abs(params.n * c1 - lead) / allowed)
    worst_r2 = 0.0
    for al in G_ALPHA:
        for b in G_BETA:
            params = OperatorParams(1e4, al, b)
            c2 = central_moment_explicit(2, 1.0, params)
            worst_r2 = max(worst_r2, abs(params.n * c2 / 2.0 - 1.0))
    worst_r3 = 0.0
    for al in G_ALPHA:
        for b in (1.0, 2.0):
            params = OperatorParams(1e5, al, b)
            exact = central_moment_binomial(3, 1.0, params)
            predicted = 6.0 * b / params.n**2
            worst_r3 = max(worst_r3, abs(exact / predicted - 1.0))
    return [
        _result("06a_asymptotic_r1", worst_r1, 1.0, "|n c_1 - lead| / (5 lead / n), n >= 50"),
        _result("06b_asymptotic_r2", worst_r2, 0.01, "n = 1e4, x = 1"),
        _result(
            "06c_asymptotic_r3",
            worst_r3,
            0.05,
            "exact third central moment carries the same-order term "
            "6(alpha+2)x/n^2 that the stated leading term omits; the ratio "
            "tends to 1 + (alpha+2)/(beta x), not 1",
        ),
    ]


# -- 7: eigenpairs -----------------------------------------------------------------


def _eigen_operator_rows() -> list[CheckResult]:
    """Rows 07a, 07d and 07e: the two eigenfunctions through the operator's
    coefficient path, on the whole parameter grid."""
    xs = np.linspace(0.0, 5.0, 11)
    worst_op = 0.0
    worst_lam = 0.0
    worst_flat = 0.0
    for params in _grid_params():
        for which in ("constant", "exponential"):
            chk = eigen_operator_check(params, which, xs)
            worst_op = max(worst_op, chk.operator_residual)
        lam = lambda2(params)
        phi = TestFunction.exp_scaled(-params.beta)
        ratios = [
            apply_operator(phi, float(x), params) * math.exp(params.beta * float(x)) for x in xs
        ]
        worst_lam = max(worst_lam, abs(ratios[0] - lam))  # xs[0] = 0
        worst_flat = max(worst_flat, max(abs(r - lam) for r in ratios))
    return [
        _result("07a_eigen_operator_residual", worst_op, 1e-8, "phi_1, phi_2 on x in [0,5]"),
        _result("07d_lambda2_vs_operator_ratio", worst_lam, 1e-12, "at x = 0"),
        _result("07e_ratio_x_independent", worst_flat, 1e-8, "M[e^-bt](x) e^(bx) flat in x"),
    ]


def check_07_eigenpairs() -> list[CheckResult]:
    op_residual, lam_ratio, flat_ratio = _eigen_operator_rows()
    worst_deficit = 0.0
    worst_vec = 0.0
    for params in _grid_params():
        deficit, checks = upper_row_check(build_P_adaptive(params))
        worst_deficit = max(worst_deficit, deficit)
        worst_vec = max(worst_vec, *(chk.vector_residual for chk in checks))
    return [
        op_residual,
        _result("07b_row_deficits", worst_deficit, 1e-12, "upper rows at adaptive K"),
        _result("07c_eigen_vector_residual", worst_vec, 1e-10, "upper rows"),
        lam_ratio,
        flat_ratio,
    ]


# -- 8: iterate decay ----------------------------------------------------------------


def check_08_iterate_decay() -> list[CheckResult]:
    xs = np.linspace(0.0, 5.0, 11)
    worst = 0.0
    for al in (0.0, 1.0):
        params = OperatorParams(10.0, al, 2.0)
        report = iterate_decay(params, 4, xs)
        for ratio in report.amplitude_ratios:
            worst = max(worst, abs(ratio - report.lam))
    return [_result("08_iterate_decay", worst, 1e-6, "n=10, beta=2, alpha in {0,1}, r <= 4")]


# -- 9: compact estimate ---------------------------------------------------------------


def check_09_compact_estimate() -> list[CheckResult]:
    f = TestFunction.abs_shift(1.0)
    _errors, ratios = compact_estimate_check(f, (25.0, 100.0, 400.0, 1600.0), 0.0, 0.0, 2.0)
    spread = max(ratios) / min(ratios)
    detail = "ratios E_n/omega(f, n^-1/2): " + ", ".join(f"{r:.4f}" for r in ratios)
    return [_result("09_compact_estimate", spread, 3.0, detail)]


# -- 10: Korovkin weighted ---------------------------------------------------------------


def check_10_korovkin() -> list[CheckResult]:
    worst_e0 = 0.0
    worst_e1 = 0.0
    worst_e2 = 0.0
    for params in _grid_params():
        doubled = OperatorParams(2.0 * params.n - params.beta, params.alpha, params.beta)
        e0_a, e1_a, e2_a = korovkin_weighted_check(params)
        e0_b, e1_b, e2_b = korovkin_weighted_check(doubled)
        worst_e0 = max(worst_e0, abs(e0_a), abs(e0_b))
        worst_e1 = max(worst_e1, abs(e1_a / e1_b / 2.0 - 1.0))
        worst_e2 = max(worst_e2, abs(e2_a / e2_b / 2.0 - 1.0))
    return [
        _result("10a_korovkin_e0", worst_e0, 0.0, "exactly zero"),
        _result("10b_korovkin_e1_halving", worst_e1, 0.05, "value(n)/value(2n-beta) vs 2"),
        _result(
            "10c_korovkin_e2_halving",
            worst_e2,
            0.05,
            "the e_2 difference scales as n/(n-beta)^2, not (n-beta)^-1, so "
            "the halving ratio is 4n/(2n-beta) + O(1/n); off by >5% for n <= 10",
        ),
    ]


# -- 11: local L_p ------------------------------------------------------------------------


def check_11_local_lp() -> list[CheckResult]:
    f = TestFunction.abs_shift(1.0)
    ns = (10.0, 40.0, 160.0, 640.0)
    worst_ratio = 0.0
    decreasing = True
    details = []
    for p in (1.0, 2.0):
        errors = [lp_error(f, OperatorParams(n, 0.0, 0.0), p, 2.0) for n in ns]
        decreasing &= all(b < a for a, b in zip(errors, errors[1:]))
        worst_ratio = max(worst_ratio, errors[-1] / errors[0])
        details.append(f"p={p:g}: " + ", ".join(f"{e:.5f}" for e in errors))
    measured = worst_ratio if decreasing else math.inf
    return [_result("11_local_lp_decrease", measured, 0.25, "; ".join(details))]


# -- 12: Schur quantities -------------------------------------------------------------------


def check_12_schur() -> list[CheckResult]:
    xs = np.linspace(0.0, 20.0, 81)
    worst_first = 0.0
    for params in _grid_params():
        for p in (1.0, 2.0):
            for gamma in (0.0, params.beta, p * params.beta):
                top = float(schur_first_integral(params, gamma, p, xs).max())
                worst_first = max(worst_first, top - 1.0)
    # E_n sup over t in [0, 10]: computed at beta = 0, where the grid sup is
    # constant in n (for beta > 0 the prefactor 1 - beta/n makes it grow)
    ts = np.linspace(0.0, 10.0, 2001)
    worst_growth = 0.0
    worst_a0 = 0.0
    for al in (-0.5, -0.25, 0.0):
        sups = []
        for n in G_N:
            params = OperatorParams(n, al, 0.0)
            sups.append(float(schur_E(params, ts).max()))
        for a, b in zip(sups, sups[1:]):
            worst_growth = max(worst_growth, b / a - 1.0)
    for params in _grid_params(alphas=(0.0,)):
        sup = float(schur_E(params, ts[::40]).max())
        worst_a0 = max(worst_a0, sup - 1.0)
    worst_second = -math.inf
    for n in (5.0, 10.0, 50.0):
        for al in (-0.5, -0.25, 0.0):
            for b in (1.0, 2.0):
                params = OperatorParams(n, al, b)
                # the integral reads gamma and p only through gamma/p, so 12c
                # covers the two cases gamma/p = beta and gamma/p = beta/2
                for p, gamma in ((1.0, b), (2.0, b)):
                    res = schur_second_integral(params, gamma, p, 1.0)
                    worst_second = max(worst_second, res.direct - res.bound)
                    res = schur_second_integral(params, gamma, p, 4.0)
                    worst_second = max(worst_second, res.direct - res.bound)
    return [
        _result("12a_schur_first_integral", worst_first, 1e-13, "gamma <= p beta, x in [0,20]"),
        _result("12b_schur_E_sup_monotone", worst_growth, 1e-9, "beta=0; sup constant in n"),
        _result("12b2_schur_E_alpha0_bounded", worst_a0, 1e-13, "E_n <= 1 for alpha = 0"),
        _result(
            "12c_schur_second_bound",
            worst_second,
            0.0,
            "the stated majorant uses the incomplete-gamma factor with "
            "parameter alpha+1 where the exact series identity carries "
            "parameter alpha; the exact x-integral exceeds it (e.g. equality "
            "defect (1-beta/n) vs (1-beta/n)(1-e^(-(n-beta)ct)) at alpha=0)",
        ),
    ]


# -- 13: Mazhar-Totik specialization -----------------------------------------------------------


def _mazhar_totik_reference(c0: Callable[[float, float], float], x: float, n: float) -> float:
    """Independent direct summation of the alpha = beta = 0 operator.

    Its coefficients are check 14's closed forms ``c0(s, r)`` of
    :func:`_c0_catalog` at s = k + 1, r = n, summed against a plain Poisson
    weight recurrence; shares no code with the operator path.
    """
    if x == 0.0:
        weights = [1.0]
    else:
        lam = n * x
        big_k = int(lam + 12.0 * math.sqrt(lam) + 60.0)
        weights = [math.exp(-lam)]
        for k in range(big_k):
            weights.append(weights[-1] * lam / (k + 1.0))
    total = 0.0
    for k, w in enumerate(weights):
        total += w * c0(k + 1.0, n)
    return total


def check_13_mazhar_totik() -> list[CheckResult]:
    catalog = _c0_catalog()[:4]  # 1, t, t^2 and e^(-t)
    worst = 0.0
    for n in (5.0, 20.0):
        params = OperatorParams(n, 0.0, 0.0)
        for f, c0 in catalog:
            for x in (0.0, 1.0, 2.0):
                ours = apply_operator(f, x, params)
                worst = max(worst, abs(ours - _mazhar_totik_reference(c0, x, n)))
    return [_result("13_mazhar_totik_regression", worst, 1e-9, "alpha = beta = 0")]


# -- 14: interpolation at zero ------------------------------------------------------------------


def _abs_shift_c0(s: float, r: float) -> float:
    """E|T - 1| = E(T - 1) + 2 E(1 - T)^+, with E[T; T <= 1] = (s/r) P(s + 1, r)."""
    return s / r - 1.0 + 2.0 * (reg_lower_gamma(s, r) - s / r * reg_lower_gamma(s + 1.0, r))


def _c0_catalog() -> list[tuple[TestFunction, Callable[[float, float], float]]]:
    """The catalog of check 14, each f with its closed-form c_0 = E f(T) for
    T ~ Gamma(s, r), s = alpha + 1, r = n - beta."""
    return [
        (TestFunction.monomial(0), lambda s, r: 1.0),
        (TestFunction.monomial(1), lambda s, r: s / r),
        (TestFunction.monomial(2), lambda s, r: s * (s + 1.0) / r**2),
        (TestFunction.exp_scaled(-1.0), lambda s, r: (r / (r + 1.0)) ** s),
        (TestFunction.abs_shift(1.0), _abs_shift_c0),
        (TestFunction.sqrt(),
         lambda s, r: math.exp(math.lgamma(s + 0.5) - math.lgamma(s)) / math.sqrt(r)),
        # E sin T = Im E e^(iT) = Im (1 - i/r)^(-s)
        (TestFunction.sin_scaled(1.0), lambda s, r: ((1.0 - 1j / r) ** (-s)).imag),
    ]


def check_14_interpolation_at_zero() -> list[CheckResult]:
    # at x = 0 only the k = 0 term survives: M f(0) = c_0, measured against
    # its closed form, not against the quadrature chunk that computes it
    worst = 0.0
    for params in _grid_params():
        s, r = params.alpha + 1.0, params.rate
        for f, c0 in _c0_catalog():
            worst = max(worst, abs(apply_operator(f, 0.0, params) - c0(s, r)))
    detail = "builtin catalog vs closed-form c_0"
    return [_result("14_interpolation_at_zero", worst, 1e-10, detail)]


ALL_CHECKS: tuple[Callable[[], list[CheckResult]], ...] = (
    check_01_normalization,
    check_02_moment_cross_agreement,
    check_03_three_term_residual,
    check_04_diff_recurrence,
    check_05_central_moments,
    check_06_asymptotics,
    check_07_eigenpairs,
    check_08_iterate_decay,
    check_09_compact_estimate,
    check_10_korovkin,
    check_11_local_lp,
    check_12_schur,
    check_13_mazhar_totik,
    check_14_interpolation_at_zero,
)


def run_all() -> list[CheckResult]:
    results: list[CheckResult] = []
    for check in ALL_CHECKS:
        results.extend(check())
    return results
