import math
import warnings

import numpy as np
import pytest

from smld import analysis, verification
from smld.analysis import (
    _PANEL_ERRORS,
    _REFINE_POINTS,
    NormSpec,
    _grid_with_kinks,
    compact_estimate_check,
    korovkin_weighted_check,
    lp_error,
    modulus_of_continuity,
    operator_sup_error,
    rate_slope,
    schur_E,
    schur_first_integral,
    schur_lemma_applicable,
    schur_second_integral,
    sup_abs_on_interval,
    weighted_lp_error,
    weighted_phi_norm,
)
from smld.errors import DegenerateDataError, ParameterError, QuadratureError
from smld.special import reg_lower_gamma
from smld.operator import (
    OperatorParams,
    TestFunction,
    apply_operator_grid,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_sup(g, lo, hi, grid_points=2001, kinks=()):
    """Oracle: the grid max plus a 40-step golden-section search on one-point
    arrays around the grid argmax, the refinement the batched one replaced."""
    grid = _grid_with_kinks(lo, hi, grid_points, kinks)
    vals = np.abs(np.asarray(g(grid), dtype=float))
    i = int(np.argmax(vals))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    if not b > a:
        return float(vals[i])

    def h(x):
        return abs(float(g(np.array([x]))[0]))

    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = h(c), h(d)
    for _ in range(40):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = h(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = h(d)
    return max(float(vals[i]), fc, fd)


def _operator_diff(f, params):
    def diff(xs):
        return apply_operator_grid(f, xs, params) - np.asarray(f(xs), dtype=float)

    return diff


class TestSupRefinement:
    # golden section's final bracket, 0.618^40, of the opening bracket
    TARGET = 4.3e-9

    def test_calls_stay_batched(self):
        calls = []

        def g(xs):
            calls.append(len(xs))
            return np.sin(3.0 * xs)

        sup_abs_on_interval(g, 0.0, 2.0)
        rounds = math.ceil(math.log(1.0 / self.TARGET) / math.log((_REFINE_POINTS + 1) / 2))
        assert len(calls) <= 1 + rounds
        assert calls[0] == 2001

    def test_bracket_reaches_golden_width(self):
        # the final bracket spans two of the last round's point spacings;
        # the opening bracket is two grid steps, 0.002
        seen = []

        def g(xs):
            seen.append(np.array(xs))
            return 1.0 - (xs - 0.7071234) ** 2

        sup_abs_on_interval(g, 0.0, 2.0)
        last = seen[-1]
        assert 2.0 * (last[1] - last[0]) <= self.TARGET * 0.002

    def test_off_grid_smooth_maximum(self):
        def g(xs):
            return np.exp(-((xs - 0.7071234) ** 2) / 0.01)

        value = sup_abs_on_interval(g, 0.0, 2.0)
        assert abs(value - 1.0) <= 4 * np.finfo(float).eps

    def test_monotone_maximum_at_endpoint(self):
        value = sup_abs_on_interval(np.exp, 0.0, 2.0)
        assert value == float(np.exp(np.array([2.0]))[0])

    def test_declared_kink_maximum(self):
        def g(xs):
            return 1.0 - np.abs(xs - 0.3137)

        assert sup_abs_on_interval(g, 0.0, 1.0, kinks=(0.3137,)) == 1.0

    def test_one_point_interval(self):
        assert sup_abs_on_interval(lambda xs: xs + 1.0, 0.5, 0.5) == 1.5


class TestGridPoints:
    # the sup-norm grid is the module constant _GRID_POINTS = 2001: no
    # function or NormSpec takes a grid_points keyword, whatever its value
    @pytest.mark.parametrize("points", [0, 1, -5, 2.5, 2001.0, True])
    def test_sup_abs_on_interval(self, points):
        with pytest.raises(TypeError):
            sup_abs_on_interval(lambda xs: xs, 0.0, 1.0, grid_points=points)

    @pytest.mark.parametrize("points", [0, 1])
    def test_operator_sup_error(self, points):
        with pytest.raises(TypeError):
            operator_sup_error(TestFunction.sin_scaled(2.0), OperatorParams(10.0), 2.0,
                               grid_points=points)

    def test_modulus_of_continuity(self):
        with pytest.raises(TypeError):
            modulus_of_continuity(TestFunction.sin_scaled(2.0), 0.1, 2.0, grid_points=1)

    @pytest.mark.parametrize("make", [NormSpec.sup_compact, NormSpec.weighted_phi])
    def test_norm_spec(self, make):
        with pytest.raises(TypeError):
            make(2.0, grid_points=-5)

    # an infinite end used to warn in linspace
    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan),
                                        (1.0, 0.0)])
    def test_sup_abs_interval(self, lo, hi):
        with pytest.raises(ParameterError) as exc:
            sup_abs_on_interval(lambda xs: xs, lo, hi)
        assert exc.value.code == "norm_interval"

    @pytest.mark.parametrize("a", [math.inf, math.nan, 0.0, -1.0])
    def test_modulus_interval(self, a):
        with pytest.raises(ParameterError) as exc:
            modulus_of_continuity(TestFunction.sin_scaled(2.0), 0.1, a)
        assert exc.value.code == "norm_interval"

    def test_two_points_are_the_ends(self):
        assert modulus_of_continuity(TestFunction.monomial(1), 2.0, 2.0) == 2.0


class TestSupGoldenParity:
    @pytest.mark.parametrize(
        "f, params",
        [
            (TestFunction.abs_shift(1.0), OperatorParams(40.0, 0.0, 0.0)),
            (TestFunction.sin_scaled(2.0), OperatorParams(80.0, 0.5, 1.0)),
            (TestFunction.sqrt(), OperatorParams(20.0, -0.5, 0.25)),
        ],
    )
    def test_operator_sup_error(self, f, params):
        value = operator_sup_error(f, params, 2.0)
        oracle = _golden_sup(_operator_diff(f, params), 0.0, 2.0, 2001, f.kinks)
        assert value == pytest.approx(oracle, rel=1e-11)

    @pytest.mark.parametrize("n", [10.0, 40.0])
    def test_weighted_phi_norm(self, n):
        f = TestFunction.sin_scaled(2.0)
        diff = _operator_diff(f, OperatorParams(n, 0.0, 0.0))
        value = weighted_phi_norm(diff, 5.0)
        oracle = _golden_sup(lambda xs: diff(xs) / (1.0 + xs**2), 0.0, 5.0)
        assert value == pytest.approx(oracle, rel=1e-11)


class TestModulus:
    def test_constant(self):
        assert modulus_of_continuity(TestFunction.monomial(0), 0.5, 2.0) == 0.0

    def test_lipschitz_exact(self):
        assert modulus_of_continuity(TestFunction.monomial(1), 0.5, 2.0) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_kink_function(self):
        assert modulus_of_continuity(TestFunction.abs_shift(1.0), 0.3, 2.0) == pytest.approx(
            0.3, abs=1e-9
        )

    def test_nondecreasing_in_delta(self):
        f = TestFunction.sin_scaled(3.0)
        deltas = [0.1, 0.2, 0.4, 0.8]
        vals = [modulus_of_continuity(f, d, 2.0) for d in deltas]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_subadditive(self):
        f = TestFunction.sqrt()
        w1 = modulus_of_continuity(f, 0.25, 3.0)
        w2 = modulus_of_continuity(f, 0.5, 3.0)
        assert w2 <= 2.0 * w1 + 1e-9

    def test_delta_domain(self):
        with pytest.raises(ParameterError):
            modulus_of_continuity(TestFunction.sqrt(), 0.0, 1.0)


def _full_scan_modulus(f, delta, a):
    """Oracle: omega(f, delta) by comparing every grid pair, blocks of 128 rows
    against all N columns, then the same 41 x 41 refinement."""
    grid = _grid_with_kinks(0.0, a, 2001, f.kinks)
    vals = np.asarray(f(grid), dtype=float)
    best, i, j = -1.0, 0, 0
    for r in range(0, len(grid), 128):
        close = np.abs(grid[r : r + 128, None] - grid[None, :]) <= delta
        diffs = np.where(close, np.abs(vals[r : r + 128, None] - vals[None, :]), 0.0)
        at = int(np.argmax(diffs))
        if diffs.flat[at] > best:
            best = float(diffs.flat[at])
            i, j = divmod(at, len(grid))
            i += r
    h = a / 2000.0  # one linspace step
    ti = np.clip(np.linspace(grid[i] - h, grid[i] + h, 41), 0.0, a)
    tj = np.clip(np.linspace(grid[j] - h, grid[j] + h, 41), 0.0, a)
    vi = np.asarray(f(ti), dtype=float)
    vj = np.asarray(f(tj), dtype=float)
    ok = np.abs(ti[:, None] - tj[None, :]) <= delta
    local = np.where(ok, np.abs(vi[:, None] - vj[None, :]), 0.0)
    return max(best, float(np.max(local)))


_SAMPLED_T = np.linspace(0.0, 6.0, 37)


class TestModulusBand:
    # the banded scan compares only the columns within delta of each row
    # block; it must reproduce the full scan bit for bit, maximizing pair
    # included (the refinement reads it)
    @pytest.mark.parametrize(
        "f",
        [
            TestFunction.abs_shift(1.0),
            TestFunction.abs_shift(0.7377),  # kink off the grid
            TestFunction.sqrt(),
            TestFunction.sin_scaled(3.0),
            TestFunction.sampled(_SAMPLED_T, np.sin(7.0 * _SAMPLED_T) * np.exp(-_SAMPLED_T)),
            TestFunction.monomial(0),
            TestFunction.exp_scaled(-2.0),
            TestFunction.polynomial((0.5, -3.0, 0.0, 1.0)),
        ],
        ids=["abs1", "abs_off_grid", "sqrt", "sin3", "sampled", "const", "exp-2", "cubic"],
    )
    @pytest.mark.parametrize("a", [1.0, 2.0, 5.0])
    def test_equals_full_scan(self, f, a):
        h = a / 2000.0
        for delta in (h / 2.0, h, 1.0 / 40.0, 1.0 / 5.0, a / 2.0, a):
            assert modulus_of_continuity(f, delta, a) == _full_scan_modulus(f, delta, a), delta

    def test_knot_next_to_zero_keeps_the_refinement(self):
        # a knot at 1e-9 makes the first grid step tiny; the refinement still
        # reaches one linspace step either side of the maximizing pair, so the
        # tent reads as it does without the knot (the slope is 1: omega = delta)
        knotted = TestFunction.sampled([0.0, 1e-9, 1.0, 2.0], [0.0, 1e-9, 1.0, 0.0])
        tent = TestFunction.sampled([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        for delta in (0.12345, 0.0507):
            omega = modulus_of_continuity(knotted, delta, 2.0)
            assert omega == modulus_of_continuity(tent, delta, 2.0), delta
            assert omega == pytest.approx(delta, abs=1e-4), delta


class TestWeightedPhiNorm:
    def test_phi_itself(self):
        assert weighted_phi_norm(lambda x: 1.0 + np.asarray(x) ** 2, 20.0) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_linear(self):
        # max x/(1+x^2) = 1/2 at x = 1
        assert weighted_phi_norm(lambda x: np.asarray(x, dtype=float), 50.0) == pytest.approx(
            0.5, abs=1e-10
        )

    def test_zero(self):
        assert weighted_phi_norm(lambda x: np.zeros_like(np.asarray(x, float)), 5.0) == 0.0

    @pytest.mark.parametrize("x_max", [math.inf, math.nan, 0.0])
    def test_interval_domain(self, x_max):
        with pytest.raises(ParameterError) as err:
            weighted_phi_norm(lambda x: np.asarray(x, dtype=float), x_max)
        assert err.value.code == "norm_interval"

    def test_kinks_are_grid_points(self):
        # a cusp at 0.12345, which lies between two points of the grid of [0, 1]
        g = lambda x: np.exp(-50.0 * np.abs(np.asarray(x, dtype=float) - 0.12345))
        assert weighted_phi_norm(g, 1.0, (0.12345,)) == 1.0 / (1.0 + 0.12345**2)

    def test_phi_error_sees_the_kink(self):
        # M f - f peaks at the kink of |t - 1.37|, which is no point of the
        # 2001-point grid of [0, 30]: without it the norm read 0.1805421
        f = TestFunction.abs_shift(1.37)
        params = OperatorParams(10.0, 0.5, 1.0)
        at_kink = abs(analysis._deviation(f, params, np.array([1.37]))[0]) / (1.0 + 1.37**2)
        value = NormSpec.weighted_phi(30.0).error(f, params)
        assert value >= at_kink
        assert value == pytest.approx(0.1807498, abs=1e-7)


class TestKorovkin:
    def test_e0_zero(self):
        e0, _, _ = korovkin_weighted_check(OperatorParams(10.0, 0.0, 0.0))
        assert e0 == 0.0

    def test_e1_value(self):
        _, e1, _ = korovkin_weighted_check(OperatorParams(10.0, 0.0, 0.0))
        assert e1 == pytest.approx(0.1, rel=1e-14)

    def test_e1_scaling(self):
        # value(n)/value(2n) = (2n - beta)/(n - beta) exactly
        params = OperatorParams(10.0, 0.5, 1.0)
        doubled = OperatorParams(20.0, 0.5, 1.0)
        _, a, _ = korovkin_weighted_check(params)
        _, b, _ = korovkin_weighted_check(doubled)
        assert a / b == pytest.approx(19.0 / 9.0, rel=1e-13)

    @pytest.mark.parametrize("params", [OperatorParams(10.0, 0.0, 0.0),
                                        OperatorParams(5.0, 1.0, 2.0),
                                        OperatorParams(50.0, -0.5, 0.5)])
    def test_closed_forms_match_grid_sup(self, params):
        # independent dense-grid + refinement evaluation of the same norms
        _, e1, e2 = korovkin_weighted_check(params)
        n, al, b = params.n, params.alpha, params.beta
        rate = params.rate

        def d1(x):
            x = np.asarray(x, dtype=float)
            return (b * x + al + 1.0) / rate

        def d2(x):
            x = np.asarray(x, dtype=float)
            return (
                x**2 * (n**2 / rate**2 - 1.0)
                + (2 * al + 4.0) * n * x / rate**2
                + (al + 1.0) * (al + 2.0) / rate**2
            )

        assert e1 == pytest.approx(weighted_phi_norm(d1, 100.0), rel=1e-8)
        assert e2 == pytest.approx(weighted_phi_norm(d2, 100.0), rel=1e-8)

    def test_beta_negative_rejected(self):
        with pytest.raises(ParameterError):
            korovkin_weighted_check(OperatorParams(10.0, 0.0, -1.0))


class TestCompactEstimate:
    @pytest.mark.parametrize("a", [math.inf, math.nan, 0.0, -1.0])
    def test_interval_domain(self, a):
        with pytest.raises(ParameterError) as err:
            operator_sup_error(TestFunction.sin_scaled(2.0), OperatorParams(10.0, 0.0, 0.0), a)
        assert err.value.code == "norm_interval"

    def test_constant_error_zero(self):
        err = operator_sup_error(TestFunction.monomial(0), OperatorParams(10.0, 0.0, 1.0), 2.0)
        assert err <= 1e-12

    def test_linear_exact_error(self):
        # M t - t = (alpha + 1 + beta x)/(n - beta); beta = 0 -> constant 1/n
        err = operator_sup_error(TestFunction.monomial(1), OperatorParams(100.0, 0.0, 0.0), 2.0)
        assert err == pytest.approx(0.01, rel=1e-9)

    def test_ratio_bounded(self):
        ns = (25.0, 100.0, 400.0)
        errors, ratios = compact_estimate_check(TestFunction.abs_shift(1.0), ns, 0.0, 0.0, 2.0)
        assert max(ratios) / min(ratios) <= 3.0
        assert rate_slope(list(zip(ns, errors))) == pytest.approx(-0.5, abs=0.1)


class TestLpErrors:
    def test_constant_zero(self):
        val = lp_error(TestFunction.monomial(0), OperatorParams(10.0, 0.0, 0.0), 1.0, 1.0)
        assert val <= 1e-12

    def test_zero_deviation_is_zero(self, monkeypatch):
        # every dev = 0: the log-domain panel sum has no largest term to shift by
        zeros = np.zeros(5)
        monkeypatch.setattr(analysis, "_panel_error",
                            lambda f, params, r: (np.linspace(0.0, r, 5), np.full(5, 0.4), zeros))
        f = TestFunction.sin_scaled(2.0)
        assert weighted_lp_error(f, OperatorParams(10.0), 3.0, 1.0, 2.0)[0] == 0.0

    def test_linear_exact(self):
        val = lp_error(TestFunction.monomial(1), OperatorParams(10.0, 0.0, 0.0), 1.0, 1.0)
        assert val == pytest.approx(0.1, rel=1e-10)

    def test_kink_decreasing(self):
        f = TestFunction.abs_shift(1.0)
        errs = [
            lp_error(f, OperatorParams(n, 0.0, 0.0), 2.0, 2.0) for n in (10.0, 40.0, 160.0)
        ]
        assert errs[2] < errs[1] < errs[0]

    def test_weighted_reduces_to_plain(self):
        f = TestFunction.abs_shift(1.0)
        params = OperatorParams(10.0, 0.0, 1.0)
        plain = lp_error(f, params, 2.0, 3.0)
        weighted, ok = weighted_lp_error(f, params, 2.0, 0.0, 3.0)
        assert weighted == pytest.approx(plain, rel=1e-13)
        assert ok  # gamma = 0 <= p beta always

    @pytest.mark.parametrize("r_max", [0.0, -1.0])
    def test_weighted_interval(self, r_max):
        f = TestFunction.monomial(0)
        with pytest.raises(ParameterError) as err:
            weighted_lp_error(f, OperatorParams(10.0, 0.0, 0.0), 1.0, 0.0, r_max)
        assert err.value.code == "norm_interval"

    @pytest.mark.parametrize(
        "p, gamma, r_max, code",
        [
            (math.inf, 0.0, 2.0, "norm_p"),
            (math.nan, 0.0, 2.0, "norm_p"),
            (1.0, math.nan, 2.0, "norm_gamma"),
            (1.0, math.inf, 2.0, "norm_gamma"),
            (1.0, 0.0, math.inf, "norm_interval"),
            (1.0, 0.0, math.nan, "norm_interval"),
        ],
    )
    def test_weighted_non_finite(self, p, gamma, r_max, code):
        f = TestFunction.sin_scaled(2.0)
        with pytest.raises(ParameterError) as err:
            weighted_lp_error(f, OperatorParams(10.0, 0.0, 0.0), p, gamma, r_max)
        assert err.value.code == code

    def test_norm_past_float_range(self):
        # e^(gamma x) reaches e^4000 on [0, 2]; the norm used to be inf
        f = TestFunction.sin_scaled(2.0)
        with pytest.raises(QuadratureError) as err:
            weighted_lp_error(f, OperatorParams(10.0), 1.0, 2000.0, 2.0)
        assert err.value.code == "norm_not_finite"

    @pytest.mark.parametrize("p, r_cut", [(math.inf, 2.0), (1.0, math.inf)])
    def test_plain_non_finite(self, p, r_cut):
        with pytest.raises(ParameterError):
            lp_error(TestFunction.sin_scaled(2.0), OperatorParams(10.0, 0.0, 0.0), p, r_cut)

    def test_hypothesis_flag(self):
        f = TestFunction.monomial(0)
        _, ok = weighted_lp_error(f, OperatorParams(10.0, 0.0, 0.0), 1.0, 0.5, 2.0)
        assert not ok  # beta = 0 forces gamma = 0
        _, ok = weighted_lp_error(f, OperatorParams(10.0, 0.0, 1.0), 2.0, 2.0, 2.0)
        assert ok


@pytest.fixture
def grid_calls(monkeypatch):
    """Counts the operator grid evaluations made through analysis, cache cold."""
    calls = []

    def counted(f, xs, params):
        calls.append(len(xs))
        return apply_operator_grid(f, xs, params)

    analysis._panel_error.cache_clear()
    monkeypatch.setattr(analysis, "apply_operator_grid", counted)
    yield calls
    analysis._panel_error.cache_clear()


class TestSharedPanelError:
    def test_lp_family_evaluates_once(self, grid_calls):
        f = TestFunction.abs_shift(1.0)
        params = OperatorParams(20.0, 0.5, 1.0)
        lp_error(f, params, 1.0, 2.0)
        lp_error(f, params, 2.0, 2.0)
        weighted_lp_error(f, params, 1.0, params.beta, 2.0)
        assert len(grid_calls) == 1

    def test_check_11_evaluates_each_n_once(self, grid_calls):
        verification.check_11_local_lp()
        assert len(grid_calls) == 4

    def test_cached_values_match_cold(self):
        f = TestFunction.sin_scaled(2.0)
        params = OperatorParams(15.0, -0.5, 2.0)
        norms = [(1.0, 0.0), (2.0, 0.0), (1.0, 2.0), (3.5, 1.0)]
        analysis._panel_error.cache_clear()
        warm = [weighted_lp_error(f, params, p, g, 2.5)[0] for p, g in norms]
        cold = []
        for p, g in norms:
            analysis._panel_error.cache_clear()
            cold.append(weighted_lp_error(f, params, p, g, 2.5)[0])
        assert warm == cold

    def test_arrays_read_only(self):
        f = TestFunction.sqrt()
        params = OperatorParams(10.0)
        lp_error(f, params, 1.0, 2.0)
        for a in analysis._panel_error(f, params, 2.0):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_int_r_max_shares_entry(self, grid_calls):
        f = TestFunction.sin_scaled(2.0)
        params = OperatorParams(10.0)
        first = lp_error(f, params, 1.0, 2.0)
        assert lp_error(f, params, 1.0, 2) == first
        info = analysis._panel_error.cache_info()
        assert (info.currsize, info.hits, len(grid_calls)) == (1, 1, 1)

    def test_size_bounded(self, grid_calls):
        f = TestFunction.monomial(1)
        params = OperatorParams(10.0)
        for i in range(_PANEL_ERRORS + 3):
            lp_error(f, params, 1.0, 1.0 + i)
        assert analysis._panel_error.cache_info().currsize == _PANEL_ERRORS
        assert len(grid_calls) == _PANEL_ERRORS + 3


class TestSchur:
    def test_alpha_zero_closed_form(self):
        params = OperatorParams(10.0, 0.0, 2.0)
        for t in (0.1, 1.0, 7.0):
            expect = 0.8 * (1.0 - math.exp(-8.0 * t))
            assert schur_E(params, t) == pytest.approx(expect, rel=1e-12)
            assert schur_E(params, t) <= 1.0

    def test_decays_for_negative_alpha(self):
        # tail behavior ((n - beta) t)^alpha -> 0
        params = OperatorParams(10.0, -0.25, 0.0)
        assert schur_E(params, 100.0) < schur_E(params, 1.0)
        assert schur_E(params, 1e6) == pytest.approx((1e7) ** -0.25, rel=1e-6)

    def test_limit_at_zero(self):
        params = OperatorParams(10.0, -0.5, 2.0)
        assert schur_E(params, 0.0) == pytest.approx(0.8 * 2.0 / math.sqrt(math.pi), rel=1e-13)
        assert schur_E(OperatorParams(10.0, -0.25, 2.0), 0.0) == 0.0

    def test_lemma_flag(self):
        assert schur_lemma_applicable(OperatorParams(10.0, -0.25, 1.0))
        assert not schur_lemma_applicable(OperatorParams(10.0, 0.5, 1.0))

    def test_domain(self):
        with pytest.raises(ParameterError):
            schur_E(OperatorParams(10.0, 0.0, 1.0), -1.0)

    def test_first_integral_gamma_zero(self):
        assert schur_first_integral(OperatorParams(10.0, 0.5, 1.0), 0.0, 1.0, 3.0) == 1.0

    def test_first_integral_boundary(self):
        # gamma = p beta: exponent vanishes, value ((n-b)/n)^(a+1) <= 1
        params = OperatorParams(10.0, 0.0, 2.0)
        assert schur_first_integral(params, 2.0, 1.0, 5.0) == pytest.approx(0.8, rel=1e-14)

    def test_first_integral_sharpness(self):
        # gamma > p beta: exceeds 1 for large x
        params = OperatorParams(10.0, 0.0, 1.0)
        assert schur_first_integral(params, 3.0, 1.0, 50.0) > 1.0

    def test_first_integral_precondition(self):
        with pytest.raises(ParameterError):
            schur_first_integral(OperatorParams(10.0, 0.0, 1.0), 25.0, 2.0, 1.0)

    def test_first_integral_negative_x(self):
        with pytest.raises(ParameterError) as exc:
            schur_first_integral(OperatorParams(10.0, 0.0, 2.0), 1.0, 1.0, -1.0)
        assert exc.value.code == "x_negative"

    def test_second_integral_exact_value(self):
        # for alpha = 0, gamma = p beta the conjugated x-integral is exactly
        # c^(1-alpha) (1 - beta/n) = c here; the direct quadrature must hit it
        params = OperatorParams(10.0, 0.0, 2.0)
        res = schur_second_integral(params, 2.0, 1.0, 1.0)
        assert res.direct == pytest.approx(1.0, rel=1e-8)
        assert res.hypothesis_ok
        # and the stated majorant is what the formula says
        c = 1.0 / (1.0 - 2.0 / 10.0)
        assert res.bound == pytest.approx(c * schur_E(params, c * 1.0), rel=1e-14)

    @staticmethod
    def _second_integral_exact(params, gamma, p, t):
        """The conjugated x-integral in closed form.  Term by term,
        int_0^inf e^(cx) psi_{n,k}(x) dx = q^(k+1) / n with c = gamma/p and
        q = n/(n - c), and the k-sum is the identity of the README's 12c note,
        P(alpha, lam) = P(alpha+1, lam) + lam^alpha e^(-lam) / Gamma(alpha+1)
        at lam = (n - beta) t q."""
        n, al, b = params.n, params.alpha, params.beta
        c = gamma / p
        q = n / (n - c)
        lam = (n - b) * t * q
        tail = math.exp(al * math.log(lam) - lam - math.lgamma(al + 1.0))
        front = (n - b) / n * q ** (1.0 - al) * math.exp(t * c * (c - b) / (n - c))
        return front * (reg_lower_gamma(al + 1.0, lam) + tail)

    def test_second_integral_matches_closed_form_on_check_12c(self):
        # the x cut of the panel quadrature is a heuristic; on every one of
        # 12c's 72 evaluations it must agree with the closed form, and the
        # closed form must reproduce 12c's measured defect
        worst = -math.inf
        for n in (5.0, 10.0, 50.0):
            for al in (-0.5, -0.25, 0.0):
                for b in (1.0, 2.0):
                    params = OperatorParams(n, al, b)
                    for p, gamma in ((1.0, b), (2.0, b)):
                        for t in (1.0, 4.0):
                            res = schur_second_integral(params, gamma, p, t)
                            exact = self._second_integral_exact(params, gamma, p, t)
                            assert res.direct == pytest.approx(exact, rel=1e-11)
                            worst = max(worst, exact - res.bound)
        assert worst == pytest.approx(1.0673876510504483, rel=1e-11)

    @pytest.mark.parametrize("n", [5.0, 10.0, 50.0])
    @pytest.mark.parametrize("al", [-0.9, -0.5, 0.0, 0.7, 3.0])
    def test_second_integral_matches_closed_form_sweep(self, n, al):
        # the integral reads gamma and p only through gamma/p, so p = 1
        for b in (-1.0, 0.0, 0.5, 2.0):
            params = OperatorParams(n, al, b)
            for c in sorted({0.0, abs(b) / 2, abs(b)}):
                for t in (0.05, 1.0, 7.0):
                    res = schur_second_integral(params, c, 1.0, t)
                    exact = self._second_integral_exact(params, c, 1.0, t)
                    assert res.direct == pytest.approx(exact, rel=1e-11)

    def test_second_integral_t_domain(self):
        with pytest.raises(ParameterError):
            schur_second_integral(OperatorParams(10.0, 0.0, 1.0), 1.0, 1.0, 0.0)

    @staticmethod
    def _raises(code, fn, *args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError) as err:
                fn(*args)
        assert err.value.code == code

    @pytest.mark.parametrize("p", [math.inf, 0.5, math.nan])
    def test_p_domain(self, p):
        params = OperatorParams(10.0, 0.5, 1.0)
        self._raises("norm_p", schur_first_integral, params, 0.0, p, 1.0)
        self._raises("norm_p", schur_second_integral, params, 0.0, p, 1.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_gamma_not_finite(self, gamma):
        # a NaN gamma used to pass gamma < 0 and be reported as schur_gamma_large
        params = OperatorParams(10.0, 0.5, 1.0)
        self._raises("norm_gamma", schur_first_integral, params, gamma, 1.0, 1.0)
        self._raises("norm_gamma", schur_second_integral, params, gamma, 1.0, 1.0)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_t_not_finite(self, t):
        params = OperatorParams(10.0, 0.5)
        self._raises("schur_t_not_finite", schur_E, params, t)
        self._raises("schur_t_not_finite", schur_second_integral, params, 0.0, 1.0, t)

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_first_integral_x_not_finite(self, x):
        self._raises("x_not_finite", schur_first_integral, OperatorParams(10.0, 0.5, 1.0), 0.5, 1.0, x)


def _check_12_grids():
    """(function, params, gamma, p or None, grid) of every array call check 12 makes."""
    xs = np.linspace(0.0, 20.0, 81)
    ts = np.linspace(0.0, 10.0, 2001)
    for params in verification._grid_params():
        for p in (1.0, 2.0):
            for gamma in (0.0, params.beta, p * params.beta):
                yield schur_first_integral, (params, gamma, p), xs
    for al in (-0.5, -0.25, 0.0):
        for n in verification.G_N:
            yield schur_E, (OperatorParams(n, al, 0.0),), ts
    for params in verification._grid_params(alphas=(0.0,)):
        yield schur_E, (params,), ts[::40]


class TestSchurArrays:
    def test_equal_to_scalar_calls(self):
        for fn, args, grid in _check_12_grids():
            values = fn(*args, grid)
            assert values.shape == grid.shape
            assert values.tolist() == [fn(*args, float(v)) for v in grid], (fn, args)

    def test_scalar_returns_float(self):
        params = OperatorParams(10.0, 0.0, 1.0)
        assert type(schur_E(params, 1.0)) is float
        assert type(schur_first_integral(params, 1.0, 1.0, 2.0)) is float
        assert type(reg_lower_gamma(1.0, 2.0)) is float

    @pytest.mark.parametrize(
        "code, bad",
        [("x_not_finite", math.nan), ("x_not_finite", math.inf), ("x_negative", -1.0)],
    )
    def test_first_integral_bad_element(self, code, bad):
        xs = np.array([0.0, 1.0, bad, 3.0])
        TestSchur._raises(code, schur_first_integral, OperatorParams(10.0, 0.5, 1.0), 0.5, 1.0, xs)

    @pytest.mark.parametrize(
        "code, bad",
        [("schur_t_not_finite", math.nan), ("schur_t_not_finite", -math.inf),
         ("schur_t_negative", -1e-300)],
    )
    def test_E_bad_element(self, code, bad):
        TestSchur._raises(code, schur_E, OperatorParams(10.0, -0.25), np.array([0.0, 1.0, bad]))

    @pytest.mark.parametrize(
        "code, s, z",
        [("reg_gamma_shape", [1.0, 0.0], 1.0), ("reg_gamma_shape", [1.0, math.nan], 1.0),
         ("reg_gamma_argument", 1.5, [2.0, -0.5]), ("reg_gamma_argument", 1.5, [2.0, math.nan])],
    )
    def test_reg_lower_gamma_bad_element(self, code, s, z):
        TestSchur._raises(code, reg_lower_gamma, np.array(s), np.array(z))

    @pytest.mark.parametrize(
        "alpha, limit",
        [(0.5, 0.0), (0.0, 0.0), (-0.25, 0.0),
         (-0.5, (9.0 / 10.0) * 2.0 / math.sqrt(math.pi)),  # (rate / n) 2 / sqrt(pi)
         (-0.75, math.inf)],
    )
    def test_limits_at_zero(self, alpha, limit):
        params = OperatorParams(10.0, alpha, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = schur_E(params, np.array([0.0, 0.5, 0.0, 2.0]))
        assert values[0] == values[2] == limit == schur_E(params, 0.0)
        assert values[1] == schur_E(params, 0.5) and values[3] == schur_E(params, 2.0)
        assert np.isfinite(values[[1, 3]]).all()


class TestRateSlope:
    def test_exact_one_over_n(self):
        rows = [(n, 3.0 / n) for n in (10.0, 20.0, 40.0, 80.0)]
        assert rate_slope(rows) == pytest.approx(-1.0, abs=1e-6)

    def test_exact_inverse_sqrt(self):
        rows = [(n, 2.0 / math.sqrt(n)) for n in (10.0, 40.0, 160.0)]
        assert rate_slope(rows) == pytest.approx(-0.5, abs=1e-6)

    def test_degenerate(self):
        with pytest.raises(DegenerateDataError):
            rate_slope([(10.0, 0.0), (20.0, 0.0), (40.0, 1e-3)])

    # these used to warn in log and then raise LinAlgError
    @pytest.mark.parametrize("n", [0.0, -10.0, math.inf, math.nan])
    def test_bad_n(self, n):
        with pytest.raises(DegenerateDataError):
            rate_slope([(n, 1.0), (20.0, 0.5), (40.0, 0.25)])

    def test_non_finite_error(self):
        with pytest.raises(DegenerateDataError):
            rate_slope([(10.0, math.inf), (20.0, 0.5), (40.0, 0.25)])


class TestNormSpec:
    def test_valid_kinds(self):
        # each constructor binds its norm function and the arguments after (f, params)
        assert NormSpec.sup_compact(2.0) == NormSpec(operator_sup_error, (2.0,))
        assert NormSpec.weighted_phi(30.0).args == (30.0,)
        assert NormSpec.lp(2.0, 1.5) == NormSpec(lp_error, (2.0, 1.5))
        assert NormSpec.weighted_lp(1.0, 0.5, 10.0).args == (1.0, 0.5, 10.0)

    @pytest.mark.parametrize(
        "kwargs, code",
        [
            (dict(kind="sup_compact", a=math.inf), "norm_interval"),
            (dict(kind="sup_compact", a=math.nan), "norm_interval"),
            (dict(kind="weighted_phi", x_max=math.inf), "norm_interval"),
            (dict(kind="lp", p=math.inf, r_cut=2.0), "norm_p"),
            (dict(kind="lp", p=math.nan, r_cut=2.0), "norm_p"),
            (dict(kind="lp", p=1.0, r_cut=math.inf), "norm_interval"),
            (dict(kind="weighted_lp", p=1.0, gamma=math.nan, r_max=2.0), "norm_gamma"),
            (dict(kind="weighted_lp", p=1.0, gamma=math.inf, r_max=2.0), "norm_gamma"),
            (dict(kind="weighted_lp", p=1.0, gamma=0.0, r_max=math.nan), "norm_interval"),
        ],
    )
    def test_non_finite(self, kwargs, code):
        # kind names the constructor, the other keys are its arguments
        make = getattr(NormSpec, kwargs["kind"])
        with pytest.raises(ParameterError) as exc:
            make(**{k: v for k, v in kwargs.items() if k != "kind"})
        assert exc.value.code == code

    def test_invalid(self):
        with pytest.raises(ParameterError):
            NormSpec.sup_compact(-1.0)
        with pytest.raises(ParameterError):
            NormSpec.lp(0.5, 1.0)
        with pytest.raises(ParameterError):
            NormSpec.weighted_lp(1.0, -0.5, 2.0)

    _F, _P = TestFunction.abs_shift(1.0), OperatorParams(20.0, 0.5, 1.0)

    @pytest.mark.parametrize(
        "norm, direct",
        [
            (NormSpec.sup_compact(2.0), lambda f, p: operator_sup_error(f, p, 2.0)),
            (NormSpec.weighted_phi(5.0), lambda f, p: weighted_phi_norm(
                lambda xs: apply_operator_grid(f, xs, p) - np.asarray(f(xs), dtype=float), 5.0)),
            (NormSpec.lp(2.0, 2.0), lambda f, p: lp_error(f, p, 2.0, 2.0)),
            (NormSpec.weighted_lp(1.0, 0.5, 3.0), lambda f, p: weighted_lp_error(
                f, p, 1.0, 0.5, 3.0)[0]),
        ],
        ids=["sup_compact", "weighted_phi", "lp", "weighted_lp"],
    )
    def test_error_is_the_norm_function(self, norm, direct):
        # bit for bit: error(f, params) calls the analysis function, no copy of it
        analysis._panel_error.cache_clear()
        assert norm.error(self._F, self._P) == direct(self._F, self._P)

    def test_equal_arguments_compare_and_hash_equal(self):
        for make, args in ((NormSpec.sup_compact, (2.0,)), (NormSpec.weighted_phi, (5.0,)),
                           (NormSpec.lp, (2.0, 2.0)), (NormSpec.weighted_lp, (1.0, 0.5, 3.0))):
            a, b = make(*args), make(*args)
            assert a == b and hash(a) == hash(b)
        assert NormSpec.lp(2.0, 2.0) != NormSpec.weighted_lp(2.0, 0.0, 2.0)


class TestMazharTotikReference:
    # check 13's reference sums check 14's closed forms c_0(s, r) at s = k + 1, r = n
    def test_row_13_keeps_its_value(self):
        (row,) = verification.check_13_mazhar_totik()
        assert row.measured == 9.769962616701378e-15

    def test_reference_sums_the_catalog(self):
        # M t(x) = x + 1/n at alpha = beta = 0
        c0 = verification._c0_catalog()[1][1]
        assert verification._mazhar_totik_reference(c0, 2.0, 5.0) == pytest.approx(2.2, rel=1e-14)


class TestWeightHypothesis:
    # gamma <= p beta up to 1e-15: the flag of weighted_lp_error, of the
    # Schur x-integral and of the CLI's first-integral rows
    @pytest.mark.parametrize("p, beta", [(1.0, 0.5), (2.0, 1.0), (3.0, 0.0)])
    def test_boundary(self, p, beta):
        params = OperatorParams(10.0, 0.0, beta)
        assert analysis.weight_hypothesis(params, p * beta, p)
        assert not analysis.weight_hypothesis(params, p * beta + 1e-14, p)

    def test_flags_read_it(self):
        params, f = OperatorParams(10.0, 0.0, 1.0), TestFunction.sin_scaled(2.0)
        for gamma, ok in ((2.0, True), (2.0 + 1e-14, False)):
            assert weighted_lp_error(f, params, 2.0, gamma, 2.0)[1] is ok
            assert schur_second_integral(params, gamma, 2.0, 1.0).hypothesis_ok is ok


_SIN, _P10 = TestFunction.sin_scaled(2.0), OperatorParams(10.0, 0.0, 1.0)


@pytest.mark.parametrize(
    "fn, args, keyword",
    [
        (NormSpec, (operator_sup_error, (2.0,)), "grid_points"),
        (compact_estimate_check, (_SIN, (10.0,), 0.0, 1.0, 2.0), "grid_points"),
        (weighted_phi_norm, (np.abs, 2.0), "grid_points"),
        (lp_error, (_SIN, _P10, 1.0, 2.0), "panels"),
        (lp_error, (_SIN, _P10, 1.0, 2.0), "nodes"),
        (weighted_lp_error, (_SIN, _P10, 1.0, 0.0, 2.0), "panels"),
        (weighted_lp_error, (_SIN, _P10, 1.0, 0.0, 2.0), "nodes"),
        (schur_second_integral, (_P10, 1.0, 1.0, 1.0), "panels"),
        (schur_second_integral, (_P10, 1.0, 1.0, 1.0), "nodes"),
    ],
)
def test_fixed_discretisation_takes_no_keyword(fn, args, keyword):
    # the grids and panel rules are module constants, not options
    with pytest.raises(TypeError):
        fn(*args, **{keyword: 2})
