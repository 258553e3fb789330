import math

import pytest

from smld.cli import main
from smld.errors import ParameterError, UnsupportedOrderError
from smld.moments import (
    asymptotic_prediction,
    asymptotic_ratio_table,
    central_moment_binomial,
    central_moment_explicit,
    diff_recurrence_residual,
    raw_moment_closed,
    raw_moment_explicit,
    raw_moments_recurrence,
)
from smld.operator import OperatorParams, TestFunction, apply_operator

from oracle_utils import mp_central_moment, mp_raw_moment

P_DEFAULT = OperatorParams(10.0, 0.0, 0.0)


class TestRawMoments:
    def test_zeroth(self):
        assert raw_moment_closed(0, 1.0, P_DEFAULT) == 1.0
        assert raw_moments_recurrence(0, 1.0, P_DEFAULT)[0] == 1.0

    def test_first(self):
        # (alpha + 1 + nx) / (n - beta)
        assert raw_moment_closed(1, 1.0, P_DEFAULT) == pytest.approx(1.1, rel=1e-14)

    def test_second(self):
        assert raw_moment_closed(2, 1.0, P_DEFAULT) == pytest.approx(1.42, rel=1e-14)
        assert raw_moments_recurrence(2, 1.0, P_DEFAULT)[2] == pytest.approx(1.42, rel=1e-14)
        assert raw_moment_explicit(2, 1.0, P_DEFAULT) == pytest.approx(1.42, rel=1e-14)

    def test_third_and_fourth_explicit(self):
        # values from the independent Poisson-sum oracle (the third differs
        # in the z-coefficient from a common misprint 3(3a+5): the correct
        # coefficient is 3(a+2)(a+3))
        assert raw_moment_explicit(3, 1.0, P_DEFAULT) == pytest.approx(2.086, rel=1e-14)
        assert raw_moment_explicit(4, 1.0, P_DEFAULT) == pytest.approx(3.4184, rel=1e-14)
        assert mp_raw_moment(3, 10, 0.0, 0.0, 1.0) == pytest.approx(2.086, rel=1e-12)
        assert mp_raw_moment(4, 10, 0.0, 0.0, 1.0) == pytest.approx(3.4184, rel=1e-12)

    def test_explicit_at_origin(self):
        params = OperatorParams(10.0, 0.5, 2.0)
        assert raw_moment_explicit(1, 0.0, params) == pytest.approx(1.5 / 8.0, rel=1e-14)

    @pytest.mark.parametrize("params", [OperatorParams(10.0, 2.0, 0.5),
                                        OperatorParams(7.0, -0.5, 1.0),
                                        OperatorParams(50.0, 0.25, -1.0)])
    @pytest.mark.parametrize("x", [0.0, 0.3, 2.0])
    def test_routes_agree_with_oracle(self, params, x):
        rec = raw_moments_recurrence(6, x, params)
        for r in range(7):
            oracle = mp_raw_moment(r, params.n, params.alpha, params.beta, x)
            assert raw_moment_closed(r, x, params) == pytest.approx(oracle, rel=1e-12)
            assert rec[r] == pytest.approx(oracle, rel=1e-11)
            if r <= 4:
                assert raw_moment_explicit(r, x, params) == pytest.approx(oracle, rel=1e-12)

    def test_recurrence_matches_closed_deep(self):
        params = OperatorParams(10.0, 2.0, 0.5)
        rec = raw_moments_recurrence(8, 1.0, params)
        for r in range(9):
            closed = raw_moment_closed(r, 1.0, params)
            assert abs(closed - rec[r]) / max(abs(closed), 1.0) <= 1e-11

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrderError):
            raw_moment_explicit(5, 1.0, P_DEFAULT)

    def test_invalid_order(self):
        with pytest.raises(ParameterError):
            raw_moment_closed(-1, 1.0, P_DEFAULT)


@pytest.mark.parametrize("x, code", [(-1.0, "x_negative"), (math.nan, "x_not_finite"),
                                     (math.inf, "x_not_finite")])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: raw_moment_closed(2, x, P_DEFAULT),
        lambda x: raw_moments_recurrence(2, x, P_DEFAULT),
        lambda x: raw_moment_explicit(2, x, P_DEFAULT),
        lambda x: diff_recurrence_residual(2, x, P_DEFAULT, 1e-3),
        lambda x: central_moment_explicit(2, x, P_DEFAULT),
        lambda x: central_moment_binomial(2, x, P_DEFAULT),
        lambda x: asymptotic_prediction(2, x, P_DEFAULT),
        lambda x: asymptotic_ratio_table(2, x, 0.0, 0.0, [10.0, 20.0]),
    ],
    ids=["closed", "recurrence", "explicit", "diff_recurrence", "central_explicit",
         "central_binomial", "asymptotic_prediction", "asymptotic_table"],
)
def test_x_outside_domain(call, x, code):
    # x = -1 used to give a negative first moment of a positive operator
    # ([1.0, -0.9, 0.62] by the recurrence), and x = nan a nan moment
    with pytest.raises(ParameterError) as err:
        call(x)
    assert err.value.code == code


class TestDiffRecurrence:
    def test_linear_case_exact(self):
        # d/dx mu_1 = n / (n - beta) exactly, so the residual is pure rounding
        assert diff_recurrence_residual(1, 1.0, P_DEFAULT, 1e-4) <= 1e-10

    def test_second_order_magnitude(self):
        params = OperatorParams(10.0, 0.0, 1.0)
        assert diff_recurrence_residual(2, 1.0, params, 1e-3) <= 1e-5

    def test_central_difference_order(self):
        params = OperatorParams(10.0, 0.5, 1.0)
        r_h = diff_recurrence_residual(3, 1.0, params, 1e-3)
        r_h2 = diff_recurrence_residual(3, 1.0, params, 5e-4)
        assert r_h / r_h2 == pytest.approx(4.0, abs=0.5)

    def test_step_precondition(self):
        with pytest.raises(ParameterError):
            diff_recurrence_residual(2, 1e-5, P_DEFAULT, 1e-3)

    @pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf])
    def test_step_domain(self, h):
        # h = 0 used to raise a bare ZeroDivisionError
        with pytest.raises(ParameterError) as err:
            diff_recurrence_residual(2, 1.0, P_DEFAULT, h)
        assert err.value.code == "diff_step"


class TestCentralMoments:
    def test_first(self):
        assert central_moment_explicit(1, 1.0, P_DEFAULT) == pytest.approx(0.1, rel=1e-14)

    def test_second(self):
        assert central_moment_explicit(2, 1.0, P_DEFAULT) == pytest.approx(0.22, rel=1e-14)

    def test_first_x_free_at_beta_zero(self):
        params = OperatorParams(10.0, 0.5, 0.0)
        vals = {central_moment_explicit(1, x, params) for x in (0.0, 1.0, 3.7)}
        assert len(vals) == 1
        assert vals.pop() == pytest.approx(1.5 / 10.0, rel=1e-14)

    def test_second_strictly_positive(self):
        for params in (P_DEFAULT, OperatorParams(200.0, -0.5, 2.0)):
            for x in (0.0, 0.5, 5.0):
                assert central_moment_explicit(2, x, params) > 0.0

    @pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
    def test_binomial_matches_explicit(self, r):
        params = OperatorParams(50.0, 0.5, 1.0)
        a = central_moment_explicit(r, 2.0, params)
        b = central_moment_binomial(r, 2.0, params)
        assert b == pytest.approx(a, rel=1e-13)

    @pytest.mark.parametrize("alpha, beta", [(0.3, 1.0), (-0.5, 0.0), (1.0, 2.0)])
    @pytest.mark.parametrize("n", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("x", [0.1, 1.0, 2.5])
    def test_binomial_against_mpmath(self, alpha, beta, n, x):
        # the exact sum rounded once: within one ulp of the 80-digit value,
        # although up to 31 leading digits cancel at n = 1e6, r = 12
        params = OperatorParams(n, alpha, beta)
        for r in range(13):
            exact = mp_central_moment(r, n, alpha, beta, x)
            got = central_moment_binomial(r, x, params)
            assert abs(got - float(exact)) <= 2.0**-52 * abs(float(exact)), (r, got, exact)

    def test_even_orders_positive(self):
        # n = 1e6, x = 1, alpha = 0.3, beta = 1, r = 12 is 6.654e-31
        for n in (1e2, 1e4, 1e5, 1e6):
            for x in (0.1, 1.0, 2.5):
                params = OperatorParams(n, 0.3, 1.0)
                for r in range(2, 13, 2):
                    assert central_moment_binomial(r, x, params) > 0.0, (n, x, r)

    @pytest.mark.parametrize("x", [float("inf"), float("nan")])
    def test_binomial_non_finite_x(self, x):
        with pytest.raises(ParameterError) as err:
            central_moment_binomial(2, x, P_DEFAULT)
        assert err.value.code == "x_not_finite"

    def test_order_six_vs_quadrature(self):
        params = OperatorParams(50.0, 0.5, 1.0)
        x = 2.0
        binom = central_moment_binomial(6, x, params)
        f = TestFunction.from_callable(
            lambda t: (t - x) ** 6, growth_a=1.0, growth_k=2.0**6 * (47.0 + x**6),
            label="(t-2)^6",
        )
        quad = apply_operator(f, x, params)
        assert binom == pytest.approx(quad, rel=1e-4)

    def test_explicit_unsupported(self):
        with pytest.raises(UnsupportedOrderError):
            central_moment_explicit(5, 1.0, P_DEFAULT)


class TestAsymptotics:
    def test_prediction_r2_universal(self):
        # leading coefficient r(r-1) beta^(r-2) x^(r-1) with beta^0 = 1
        for beta in (0.0, 1.0, 2.0):
            params = OperatorParams(100.0, 0.3, beta)
            assert asymptotic_prediction(2, 1.0, params) == pytest.approx(0.02, rel=1e-14)

    def test_prediction_r1(self):
        assert asymptotic_prediction(1, 1.0, OperatorParams(10.0, 0.0, 2.0)) == pytest.approx(
            0.3, rel=1e-14
        )

    def test_prediction_vanishes(self):
        assert asymptotic_prediction(3, 1.0, OperatorParams(10.0, 0.0, 0.0)) == 0.0

    def test_ratio_r1_approaches_one(self):
        rows = asymptotic_ratio_table(1, 1.0, 0.5, 1.0, (10.0, 100.0, 1000.0))
        devs = [abs(row.ratio - 1.0) for row in rows]
        assert all(b < a for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 2e-3

    def test_ratio_r2_near_one(self):
        rows = asymptotic_ratio_table(2, 1.0, 0.0, 1.0, (100.0, 10_000.0))
        assert abs(rows[-1].ratio - 1.0) <= 0.01

    def test_r2_limit_identity(self):
        # n * c_2 - 2x -> 0 as n grows
        vals = [
            abs(n * central_moment_explicit(2, 1.0, OperatorParams(n, 0.5, 1.0)) - 2.0)
            for n in (100.0, 1000.0, 10000.0)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_flagged_rows(self):
        rows = asymptotic_ratio_table(3, 1.0, 0.0, 0.0, (10.0, 100.0))
        assert all(row.flagged and row.ratio is None for row in rows)

    def test_grid_must_ascend(self):
        with pytest.raises(ParameterError):
            asymptotic_ratio_table(2, 1.0, 0.0, 0.0, (100.0, 10.0))


class TestSecondMomentEnvelope:
    def test_constant_fitted_once_covers_larger_n(self):
        # C1 := sup_{x in [0,a]} n0 c_2(x) at n0 stays an upper envelope
        # n c_2(x) <= C1 for every larger n on the grid
        import numpy as np

        a, n0 = 2.0, 25.0
        xs = np.linspace(0.0, a, 101)
        for alpha, beta in ((0.0, 0.0), (0.5, 1.0), (-0.5, 2.0)):
            c1 = max(
                n0 * central_moment_explicit(2, float(x), OperatorParams(n0, alpha, beta))
                for x in xs
            )
            for n in (50.0, 100.0, 400.0, 1600.0):
                params = OperatorParams(n, alpha, beta)
                worst = max(central_moment_explicit(2, float(x), params) for x in xs)
                assert worst <= c1 / n * (1 + 1e-12)


class TestMomentReport:
    # the ``smld moments`` table: every route per r and their worst disagreement
    @staticmethod
    def _rows(x, capsys):
        argv = ["moments", "--n", "10", "--alpha", "0.5", "--beta", "1", "--x", x,
                "--max-r", "6"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]

    def test_cross_residual_small(self, capsys):
        row = self._rows("1", capsys)[3]
        assert row["explicit"] != ""
        assert float(row["max_residual"]) <= 1e-11

    def test_no_explicit_above_four(self, capsys):
        rows = self._rows("0.5", capsys)
        for row in rows[5:]:
            assert row["explicit"] == ""
            assert float(row["max_residual"]) <= 1e-9
