import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from smld.errors import FileFormatError, ParameterError, QuadratureError, TruncationError
from smld.operator import (
    OperatorParams,
    TestFunction,
    apply_operator,
    apply_operator_grid,
    apply_szasz,
    coefficient,
    growth_bound,
    kernel_on_x_grid,
    load_sampled,
    validate,
)

from smld.moments import raw_moment_closed
from smld.special import _dot, log_poisson_weights
from smld.operator.core import _coefficient_cached, _k_window, _poisson_sum
from smld.operator import quadrature
from smld.operator.quadrature import _gj_rules, _window_hi, _window_lo, gamma_mean

from oracle_utils import mp_gamma_mean, mp_operator_apply, mp_sampled_mean, mp_szasz

import mpmath as mp


class TestValidate:
    # the triple checks run when an OperatorParams is built; validate(params, f)
    # checks f's growth envelope against a triple that is valid already
    def test_ok(self):
        validate(OperatorParams(10.0, 0.0, 2.0), TestFunction.sin_scaled(1.0))

    def test_n_le_beta(self):
        with pytest.raises(ParameterError) as err:
            OperatorParams(2.0, 0.0, 3.0)
        assert err.value.code == "n_le_beta"

    def test_replace_checks_the_triple(self):
        with pytest.raises(ParameterError) as err:
            dataclasses.replace(OperatorParams(10.0), beta=10.0)
        assert err.value.code == "n_le_beta"

    # n <= 0 with beta < n used to pass: n = 0, beta = -1 gave M f = 0.5 for sin
    @pytest.mark.parametrize("n, beta", [(0.0, -1.0), (-1.0, -3.0), (0.0, 0.0), (-0.0, -2.0)])
    def test_n_nonpositive(self, n, beta):
        with pytest.raises(ParameterError) as err:
            OperatorParams(n, 0.0, beta)
        assert err.value.code == "n_nonpositive"

    def test_alpha_low(self):
        with pytest.raises(ParameterError) as err:
            OperatorParams(5.0, -1.0, 0.0)
        assert err.value.code == "alpha_le_minus_one"

    def test_growth_incompatible(self):
        f = TestFunction.exp_scaled(4.5)  # growth class A = 4.5
        with pytest.raises(ParameterError) as err:
            validate(OperatorParams(5.0, 0.0, 1.0), f)
        assert err.value.code == "growth_incompatible"

    def test_negative_beta_accepted(self):
        validate(OperatorParams(5.0, 0.0, -3.0), TestFunction.sin_scaled(1.0))

    def test_function_is_required(self):
        # the triple alone is checked by its constructor
        with pytest.raises(TypeError):
            validate(OperatorParams(10.0))

    @pytest.mark.parametrize(
        "params",
        [(math.inf, 0.0, 0.0), (math.nan, 0.0, 0.0), (10.0, math.inf, 0.0), (10.0, 0.0, -math.inf)],
    )
    def test_non_finite_params(self, params):
        with pytest.raises(ParameterError) as err:
            OperatorParams(*params)
        assert err.value.code == "params_not_finite"

    # the envelope is checked when f is built: each f is a constructor and its
    # arguments, called in the test
    @pytest.mark.parametrize(
        "f",
        [
            (TestFunction.polynomial, (1e308, 1e308)),
            (TestFunction.from_callable, np.exp, math.inf, 1.0),
            (TestFunction.from_callable, np.exp, 1.0, math.nan),
            (TestFunction.from_callable, np.exp, 1.0, math.inf),
            (TestFunction.from_callable, np.exp, math.nan, 1.0),
        ],
    )
    def test_non_finite_growth(self, f):
        # the callables used to build and then fail in gamma_mean with a bare
        # ValueError (math domain error) or OverflowError
        make, *args = f
        with pytest.raises(ParameterError) as err:
            make(*args)
        assert err.value.code == "growth_not_finite"

    def test_replace_checks_the_envelope(self):
        with pytest.raises(ParameterError) as err:
            dataclasses.replace(TestFunction.exp_scaled(1.0), growth_k=math.inf)
        assert err.value.code == "growth_not_finite"

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TestFunction.monomial(172),
            lambda: TestFunction.polynomial([1.0] * 173),
            lambda: TestFunction.centered_power(1.0, 200),
        ],
        ids=["monomial", "polynomial", "centered_power"],
    )
    def test_overflowing_envelope(self, make):
        # (r/e)^r overflows a float: the envelope constant is inf, which the
        # constructor reports instead of an OverflowError
        with pytest.raises(ParameterError) as err:
            make()
        assert err.value.code == "growth_not_finite"

    @pytest.mark.parametrize("k", [-1.0, 0.0, -0.0])
    def test_nonpositive_envelope_constant(self, k):
        # the quadrature window takes log K: K < 0 used to fail there with a
        # bare ValueError and K = 0 with a ZeroDivisionError
        with pytest.raises(ParameterError) as err:
            TestFunction.from_callable(np.exp, 1.0, k)
        assert err.value.code == "growth_k_nonpositive"
        with pytest.raises(ParameterError) as err:
            dataclasses.replace(TestFunction.exp_scaled(1.0), growth_k=k)
        assert err.value.code == "growth_k_nonpositive"

    def test_zero_sampled_keeps_building(self):
        # its envelope constant is floored at 1e-300, not 0
        f = TestFunction.sampled((0.0, 1.0), (0.0, 0.0))
        assert f.growth_k == 1e-300
        assert apply_operator(f, 1.0, OperatorParams(10.0)) == 0.0

    @pytest.mark.parametrize(
        "x, r, code",
        [(math.nan, 2, "function_not_finite"), (math.inf, 1, "function_not_finite"),
         (1.0, math.nan, "function_not_finite"), (1.0, 2.5, "centered_power_order"),
         (1.0, -1, "centered_power_order")],
    )
    def test_centered_power_arguments(self, x, r, code):
        # (nan, 2) used to be growth_not_finite and (1, 2.5) integrand_not_finite
        with pytest.raises(ParameterError) as err:
            TestFunction.centered_power(x, r)
        assert err.value.code == code

    def test_centered_power_left_of_zero(self):
        # x = -2 used to give K < 0 and a bare ValueError from log K
        params = OperatorParams(10.0)
        got = apply_operator(TestFunction.centered_power(-2.0, 1), 1.0, params)
        assert got == pytest.approx(raw_moment_closed(1, 1.0, params) + 2.0, abs=1e-12)

    @pytest.mark.parametrize("x, r", [(-1.0, 3), (-5.0, 2), (-0.5, 7), (3.0, 4)])
    def test_centered_power_envelope(self, x, r):
        # |t - x|^r <= K e^t in logs on a dense grid; (-1, 3) used to have
        # K = 2.754 against |t + 1|^3 = 64 > 55.3 = K e^3 at t = 3
        f = TestFunction.centered_power(x, r)
        t = np.linspace(0.0, 60.0, 60001)
        with np.errstate(divide="ignore"):
            lhs = r * np.log(np.abs(t - x))
        assert np.all(lhs <= math.log(f.growth_k) + t + 1e-12)

    @pytest.mark.parametrize("coeffs", [[1.0] + [0.0] * 172, [0.0, 0.0]], ids=["one", "zero"])
    def test_zero_coefficients_add_no_growth(self, coeffs):
        # 0 * inf would make the envelope of the constant 1 NaN, and a zero
        # envelope would divide the tail tolerance by zero
        f = TestFunction.polynomial(coeffs)
        assert f.growth_k == 1.0
        assert apply_operator(f, 1.0, OperatorParams(10.0)) == pytest.approx(coeffs[0], abs=1e-12)


class TestTestFunction:
    @pytest.mark.parametrize(
        "f",
        [
            TestFunction.monomial(0),
            TestFunction.monomial(3),
            TestFunction.polynomial((1.0, -2.0, 0.5)),
            TestFunction.exp_scaled(0.5),
            TestFunction.exp_scaled(-2.0),
            TestFunction.abs_shift(1.0),
            TestFunction.sqrt(),
            TestFunction.sin_scaled(3.0),
            TestFunction.sampled((0.0, 1.0, 2.0), (0.0, 1.0, 0.5)),
        ],
    )
    def test_growth_bound_holds(self, f):
        t = np.linspace(0.0, 100.0, 2001)
        assert np.all(np.abs(f(t)) <= f.growth_k * np.exp(f.growth_a * t) * (1 + 1e-12))

    @pytest.mark.parametrize(
        "make, kinks, power, expected",
        [
            (lambda: TestFunction.monomial(0), (), 0.0, np.ones_like),
            (lambda: TestFunction.monomial(3), (), 0.0, lambda t: t**3),
            (lambda: TestFunction.polynomial((1.0, -2.0, 0.5)), (), 0.0,
             lambda t: np.polynomial.polynomial.polyval(t, np.asarray((1.0, -2.0, 0.5)))),
            (lambda: TestFunction.exp_scaled(-2.0), (), 0.0, lambda t: np.exp(-2.0 * t)),
            (lambda: TestFunction.abs_shift(1.5), (1.5,), 0.0, lambda t: np.abs(t - 1.5)),
            (lambda: TestFunction.sqrt(), (), 0.5, np.sqrt),
            (lambda: TestFunction.sin_scaled(3.0), (), 0.0, lambda t: np.sin(3.0 * t)),
            (lambda: TestFunction.sampled((0.0, 1.0, 2.0), (0.0, 1.0, 0.5)), (0.0, 1.0, 2.0), 0.0,
             lambda t: np.interp(t, np.asarray((0.0, 1.0, 2.0)), np.asarray((0.0, 1.0, 0.5)))),
            (lambda: TestFunction.centered_power(1.0, 3), (), 0.0, lambda t: (t - 1.0) ** 3),
        ],
        ids=["one", "monomial", "polynomial", "exp", "abs", "sqrt", "sin", "sampled",
             "centered_power"],
    )
    def test_catalog_by_value(self, make, kinks, power, expected):
        # built twice, a function is one cache key; its kinks, endpoint power
        # and values are those of the kind it states
        f, g = make(), make()
        assert f == g and hash(f) == hash(g)
        assert f.kinks == kinks and f.endpoint_power == power
        t = np.linspace(0.0, 7.0, 513)
        assert np.array_equal(f(t), expected(t))
        assert f(2.5) == float(expected(np.float64(2.5)))

    def test_centered_power_hits_the_chunk_cache(self):
        # it used to wrap a fresh lambda, so no two instances were equal
        params = OperatorParams(10.0, 0.25, 0.5)
        apply_operator(TestFunction.centered_power(1.0, 3), 1.0, params)
        misses = _coefficient_cached.cache_info().misses
        apply_operator(TestFunction.centered_power(1.0, 3), 1.0, params)
        assert _coefficient_cached.cache_info().misses == misses

    def test_sampled_interp_and_extrapolation(self):
        f = TestFunction.sampled((0.0, 1.0, 2.0), (0.0, 1.0, 0.5))
        assert f(0.5) == 0.5
        assert f(1.5) == 0.75
        assert f(10.0) == 0.5  # constant extrapolation

    def test_sampled_validation(self):
        with pytest.raises(ParameterError):
            TestFunction.sampled((0.5, 1.0), (1.0, 2.0))  # must start at 0
        with pytest.raises(ParameterError):
            TestFunction.sampled((0.0, 1.0, 1.0), (0.0, 1.0, 2.0))  # not increasing

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TestFunction.monomial(math.inf),
            lambda: TestFunction.polynomial((1.0, math.nan)),
            lambda: TestFunction.exp_scaled(math.inf),
            lambda: TestFunction.abs_shift(math.nan),
            lambda: TestFunction.sin_scaled(-math.inf),
            lambda: TestFunction.sampled((0.0, 1.0), (1.0, math.inf)),
            lambda: TestFunction.sampled((0.0, math.nan), (1.0, 1.0)),
        ],
    )
    def test_non_finite_parameters(self, make):
        with pytest.raises(ParameterError) as err:
            make()
        assert err.value.code == "function_not_finite"

    def test_load_sampled(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("# t  f\n0 0.0\n0.5 0.25\n\n1 1.0\n")
        f = load_sampled(path)
        assert f(0.25) == 0.125

    def test_load_sampled_errors(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.5 1.0\n1.0 2.0\n")
        with pytest.raises(ParameterError) as err:
            load_sampled(bad)
        assert err.value.code == "sampled_origin"
        bad.write_text("0 1 2\n")
        with pytest.raises(FileFormatError):
            load_sampled(bad)
        bad.write_text("0 1\n1 one\n")
        with pytest.raises(FileFormatError, match=":2: non-numeric field"):
            load_sampled(bad)

    @pytest.mark.parametrize(
        "text, code",
        [
            ("0 1\n", "sampled_shape"),
            ("0.5 1\n1 2\n", "sampled_origin"),
            ("0 1\n1 2\n1 3\n", "sampled_monotone"),
        ],
        ids=["shape", "origin", "monotone"],
    )
    def test_load_sampled_grid_rules(self, tmp_path, text, code):
        # the file reader checks only the format; each grid rule is raised
        # once, by TestFunction.sampled, under its own code
        path = tmp_path / "f.txt"
        path.write_text(text)
        with pytest.raises(ParameterError) as err:
            load_sampled(path)
        assert err.value.code == code


class TestCoefficient:
    def test_constant_any_k(self):
        params = OperatorParams(7.0, 0.25, 1.5)
        for k in (0, 3, 17):
            assert coefficient(TestFunction.monomial(0), k, params) == pytest.approx(
                1.0, abs=1e-13
            )

    def test_gamma_mean(self):
        # mean of Gamma(k + alpha + 1, n - beta)
        assert coefficient(
            TestFunction.monomial(1), 0, OperatorParams(10.0, 0.0, 0.0)
        ) == pytest.approx(0.1, rel=1e-12)

    def test_gamma_mgf(self):
        # E[e^(-beta T)] = ((n - beta)/n)^(k + alpha + 1)
        val = coefficient(TestFunction.exp_scaled(-2.0), 1, OperatorParams(10.0, 0.0, 2.0))
        assert val == pytest.approx(0.64, rel=1e-12)

    def test_sqrt_endpoint_singularity(self):
        val = coefficient(TestFunction.sqrt(), 0, OperatorParams(10.0, -0.5, 0.0))
        # Gamma(1)/Gamma(0.5)/sqrt(10), frozen from the arbitrary-precision oracle
        assert val == pytest.approx(0.17841241161527704, rel=1e-12)

    def test_abs_kink_oracle(self):
        val = coefficient(TestFunction.abs_shift(1.0), 2, OperatorParams(10.0, 0.5, 1.0))
        # mpmath quadrature of |t-1| against Gamma(3.5, 9), frozen
        assert val == pytest.approx(0.6145283037662624, rel=1e-10)

    @pytest.mark.parametrize("c", [1e-10, 1e-6])
    @pytest.mark.parametrize("alpha", [-0.5, 0.3])
    def test_kink_near_origin(self, c, alpha):
        # kink far inside the first panel, next to the u^(shape-1) singularity
        params = OperatorParams(50.0, alpha, 0.5)
        val = coefficient(TestFunction.abs_shift(c), 0, params)
        oracle = mp_gamma_mean(lambda t: abs(t - c), alpha + 1.0, params.rate, breakpoints=(c,))
        assert val == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("n", [1e3, 1e4, 1e5, 1e6])
    def test_large_k_against_mpmath(self, n):
        # E[e^(-T)] under Gamma(k + alpha + 1, rate) is (rate/(rate+1))^(k+alpha+1);
        # the gamma density must not lose eps k ln(k) to cancelling logarithms
        params = OperatorParams(n, 0.5, 1.0)
        f = TestFunction.exp_scaled(-1.0)
        for k in (round(0.99 * n), round(n), round(1.01 * n)):
            exact = float((mp.mpf(params.rate) / (params.rate + 1)) ** (k + mp.mpf(1.5)))
            assert coefficient(f, k, params) == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_large_k_monomial_exact(self):
        # (k+alpha+1)(k+alpha+2)(k+alpha+3)/rate^3 as an exact rational
        exact = float(Fraction(12001 * 12003 * 12005, 8 * 200**3))
        val = coefficient(TestFunction.monomial(3), 6000, OperatorParams(200.0, -0.5, 0.0))
        assert val == pytest.approx(exact, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("k", [0, 4])
    def test_sin_oracle(self, k):
        params = OperatorParams(6.0, -0.25, 0.5)
        val = coefficient(TestFunction.sin_scaled(2.0), k, params)
        oracle = mp_gamma_mean(lambda t: mp.sin(2 * t), k + params.alpha + 1.0, params.rate)
        assert val == pytest.approx(oracle, abs=1e-12)


class TestCoefficientAccuracy:
    # chunks 0-3 (k = 0..15) of five kinds against closed forms at 30 digits,
    # 96 rows a kind; each kind's worst relative error stays within 1e-13
    # (1.1e-14 to 3.5e-14 when this was written)
    KINDS = {
        "exp:-1": (TestFunction.exp_scaled(-1.0), lambda s, r: (r / (r + 1)) ** s),
        "t^2": (TestFunction.monomial(2), lambda s, r: s * (s + 1) / r**2),
        "sqrt": (TestFunction.sqrt(), lambda s, r: mp.gamma(s + 0.5) / mp.gamma(s) / mp.sqrt(r)),
        "sin:2": (TestFunction.sin_scaled(2.0), lambda s, r: mp.im((1 - 2j / r) ** (-s))),
        # E|T - c| = E(T - c) + 2 (c P(s, rc) - (s/r) P(s + 1, rc))
        "abs:1e-6": (
            TestFunction.abs_shift(1e-6),
            lambda s, r: s / r - mp.mpf("1e-6") + 2 * (
                mp.mpf("1e-6") * mp.gammainc(s, 0, r * mp.mpf("1e-6"), regularized=True)
                - s / r * mp.gammainc(s + 1, 0, r * mp.mpf("1e-6"), regularized=True)
            ),
        ),
    }

    @pytest.mark.parametrize("name", list(KINDS))
    def test_worst_row_of_each_kind(self, name):
        f, mean = self.KINDS[name]
        worst = 0.0
        for n in (5.0, 400.0):
            for alpha in (-0.75, 0.3, 2.9):
                params = OperatorParams(n, alpha, 0.5)
                got = np.concatenate([_coefficient_cached(f, j, params) for j in range(4)])
                with mp.workdps(30):
                    r = mp.mpf(params.rate)
                    exact = np.array([float(mean(k + mp.mpf(alpha) + 1, r)) for k in range(16)])
                worst = max(worst, float(np.max(np.abs(got - exact) / np.abs(exact))))
        assert worst <= 1e-13

    # two documented defects outside that range: the acceptance test is
    # absolute in the mass E|f|, so a mean far below its mass or a small
    # difference of large parts is not certified to 1e-12 of itself
    @pytest.mark.xfail(strict=True, reason="reads 5.214e-177 against 7.177e-177: the mean "
                       "sits far below the mass the acceptance test is absolute in")
    def test_decaying_mean_far_out(self):
        got = gamma_mean(TestFunction.exp_scaled(-0.5), [1000.3], 1.0)[0]
        with mp.workdps(30):
            exact = float(mp.mpf(1.5) ** mp.mpf(-1000.3))
        assert got == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.xfail(strict=True, reason="5.9e-11 relative off: a small difference of "
                       "large parts, certified to 64 eps of the mass near 0.6")
    def test_sin_mean_of_cancelling_parts(self):
        params = OperatorParams(20.0, -0.5, 0.5)
        got = coefficient(TestFunction.sin_scaled(2.0), 1599, params)
        with mp.workdps(30):
            exact = float(mp.im((1 - 2j / mp.mpf(params.rate)) ** (-mp.mpf(1599.5))))
        assert got == pytest.approx(exact, rel=1e-12, abs=0.0)


class TestCoefficientChunks:
    # chunk j of the coefficient cache holds k in [j^2, (j+1)^2): the first and
    # the last row of a chunk, each computed in one quadrature batch
    FUNCTIONS = {
        "sqrt": (TestFunction.sqrt(), mp.sqrt, ()),
        "abs:1e-6": (TestFunction.abs_shift(1e-6), lambda t: abs(t - mp.mpf("1e-6")), (1e-6,)),
        "sin:2": (TestFunction.sin_scaled(2.0), lambda t: mp.sin(2 * t), ()),
        "exp:-1": (TestFunction.exp_scaled(-1.0), lambda t: mp.exp(-t), ()),
    }

    @pytest.mark.parametrize("name", list(FUNCTIONS))
    @pytest.mark.parametrize("alpha", [-0.5, 0.3])
    @pytest.mark.parametrize("j", [1, 3, 12, 40])
    def test_chunk_edges_against_mpmath(self, name, alpha, j):
        # at rate ~ 400 no sin mean here is a small difference of large parts
        # (at n = 20, k = 1600 it is 5e-5 of a mass near 0.6, below what
        # double-precision values of sin(2t) at t ~ 80 can resolve)
        f, mp_f, kinks = self.FUNCTIONS[name]
        params = OperatorParams(400.0, alpha, 0.5)
        for k in (j * j - 1, j * j):
            shape = k + alpha + 1.0
            mean, sd = shape / params.rate, math.sqrt(shape) / params.rate
            splits = (*kinks, *(mean + i * sd for i in range(-8, 9) if mean + i * sd > 0))
            oracle = mp_gamma_mean(mp_f, shape, params.rate, breakpoints=splits)
            assert coefficient(f, k, params) == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_cold_equals_cached_by_grid(self):
        f, params = TestFunction.abs_shift(0.7), OperatorParams(30.0, 0.3, 1.0)
        _coefficient_cached.cache_clear()
        cold = [coefficient(f, k, params) for k in (0, 24, 25, 130)]
        _coefficient_cached.cache_clear()
        apply_operator_grid(f, np.linspace(0.0, 4.0, 9), params)
        hits = _coefficient_cached.cache_info().hits
        assert [coefficient(f, k, params) for k in (0, 24, 25, 130)] == cold
        assert _coefficient_cached.cache_info().hits == hits + 4

    @pytest.mark.parametrize("power, alpha", [(0.0, 0.3), (0.5, -0.5), (0.0, 2.0)])
    def test_scalar_is_a_batch_of_one(self, power, alpha):
        # sqrt's growth class A = 1 needs a rate above 1
        f, rate = (TestFunction.sqrt(), 2.0) if power else (TestFunction.sin_scaled(0.3), 1.0)
        shapes = np.arange(36, 49) + alpha + 1.0
        batch = gamma_mean(f, shapes, rate)
        for i in (0, 6, 12):
            one = gamma_mean(f, shapes[i : i + 1], rate)
            assert one.shape == (1,)
            assert one[0] == pytest.approx(batch[i], rel=1e-13, abs=0.0)


class TestBatchAcceptance:
    def test_mixed_batch_refines_every_row(self, monkeypatch):
        # chunk 4 of (t - 5)^3 at n = 5: its rows pass the acceptance test in
        # different rounds (2, 3, 2, ...), so the whole batch takes round 3,
        # every row in it, and returns that round's totals
        rows = []

        def spy(f, order, *rest):
            rows.append(len(order))
            return panel_values(f, order, *rest)

        panel_values = quadrature._panel_values
        monkeypatch.setattr(quadrature, "_panel_values", spy)
        f, params = TestFunction.centered_power(5.0, 3), OperatorParams(5.0)
        chunk = _coefficient_cached.__wrapped__(f, 4, params)
        assert rows == [9, 9, 9]
        for k, got in zip(range(16, 25), chunk):
            s, r = Fraction(k + 1), Fraction(5)
            m1, m2, m3 = s / r, s * (s + 1) / r**2, s * (s + 1) * (s + 2) / r**3
            exact = float(m3 - 15 * m2 + 75 * m1 - 125)  # E(T - 5)^3
            assert got == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_node_count_is_fixed(self):
        # the target, the envelope, the kinks and the endpoint power are f's
        # and the quadrature's own, as is the node count
        for keyword in ("nodes", "eps", "kinks", "tilt", "env_k", "endpoint_power"):
            with pytest.raises(TypeError):
                gamma_mean(TestFunction.sqrt(), 2.5, 2.0, **{keyword: 8})

    @pytest.mark.parametrize(
        "c, rate", [(1.0, 1.0), (1.0, 0.5), (1.0, math.inf), (1.0, math.nan), (-1.0, 0.0),
                    (-1.0, -2.0)])
    def test_rate_must_exceed_growth(self, c, rate):
        # the means of e^(ct) need a finite rate above its growth class
        # A = max(c, 0); a rate of A itself used to fail in math.log1p with
        # a bare ValueError
        with pytest.raises(ParameterError) as err:
            gamma_mean(TestFunction.exp_scaled(c), [2.0, 3.0], rate)
        assert err.value.code == "growth_incompatible"


class TestManyKnots:
    # a sampled f with hundreds or thousands of knots: every knot inside the
    # window is a panel edge, so each batch integrates a piecewise-linear f
    # exactly panel by panel and is accepted in two rounds
    @pytest.mark.parametrize("knots", [200, 2000])
    @pytest.mark.parametrize(
        "n, alpha, beta, k", [(20.0, 0.5, 1.0, 40), (50.0, -0.5, 1.0, 100)]
    )
    def test_every_knot_is_a_panel_edge(self, monkeypatch, knots, n, alpha, beta, k):
        grid = np.linspace(0.0, 10.0, knots)
        values = np.sin(3.0 * grid) + 0.1 * np.cos(17.0 * grid)
        f, params = TestFunction.sampled(grid, values), OperatorParams(n, alpha, beta)
        rounds = {}

        def spy(fn, order, *rest):
            key = float(order[0, 0])  # a batch's first density order
            rounds[key] = rounds.get(key, 0) + 1
            return panel_values(fn, order, *rest)

        panel_values = quadrature._panel_values
        monkeypatch.setattr(quadrature, "_panel_values", spy)
        # the operator near x = k / n computes every chunk of its k window
        apply_operator(f, k / n, params)
        assert rounds and set(rounds.values()) == {2}
        exact = mp_sampled_mean(grid.tolist(), values.tolist(), k + alpha + 1.0, params.rate)
        assert coefficient(f, k, params) == pytest.approx(exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("inner", [0, 1, 5, 200, 10_000])
    def test_panel_edges_match_per_segment_linspace(self, inner):
        # the opening edges are built in one step; the reference cuts each
        # segment with its own np.linspace and joins them at shared ends
        rng = np.random.default_rng(inner)
        kinks = np.sort(rng.uniform(3.0, 250.0, inner)).tolist()
        base, width = [0.75] + kinks + [260.0], 2.5
        segments = [np.linspace(a, b, max(1, math.ceil((b - a) / width)) + 1)
                    for a, b in zip(base[:-1], base[1:])]
        ref = np.concatenate([segments[0], *(s[1:] for s in segments[1:])])
        assert np.array_equal(quadrature._panel_edges(base, width), ref)

    def test_undeclared_jump_does_not_converge(self):
        # a jump that f does not declare as a kink stays inside a panel at
        # every halving, so the batch runs out of rounds
        f = TestFunction.from_callable(lambda t: np.where(t < 1.2345, 0.0, 1.0), 0.0, 1.0)
        with pytest.raises(QuadratureError) as err:
            apply_operator(f, 1.0, OperatorParams(10.0))
        assert err.value.code == "quadrature_non_convergence"


class TestCoarseOpening:
    # every batch opens on panels about 4 sqrt(s) wide and halves from there
    RATE = 399.5
    # f(t), its mean under Gamma(s, RATE) in mpmath, and an absolute
    # tolerance: the acceptance test is absolute in the mass E|f|, so a sin
    # mean that is a small difference of large parts (at j = 141, -8.9e-4
    # from a mass near 0.6) is certified to 64 eps of the mass, not 1e-12
    # of itself
    SMOOTH = {
        "exp:-1": (lambda t: np.exp(-t), lambda s, r: (r / (r + 1)) ** s, 0.0),
        "sin:2": (
            lambda t: np.sin(2.0 * t),
            lambda s, r: mp.im((1 - 2j / r) ** (-s)),
            64.0 * np.finfo(float).eps,
        ),
        "poly": (
            lambda t: 1.0 - 2.0 * t + 0.5 * t * t,
            lambda s, r: 1 - 2 * s / r + s * (s + 1) / (2 * r * r),
            0.0,
        ),
    }

    @pytest.mark.parametrize("name", list(SMOOTH))
    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    @pytest.mark.parametrize("j", [1, 12, 40, 141])
    def test_smooth_chunk_in_two_rounds(self, name, alpha, j):
        # a smooth f is accepted at the second round, one evaluation of f
        # per round; every row against its closed form at 30 digits (mpmath
        # quadrature costs over a second per row at s ~ 2e4)
        fn, mean, atol = self.SMOOTH[name]
        calls = []

        def f(t):
            calls.append(len(t))
            return fn(t)

        shapes = np.arange(j * j, (j + 1) ** 2) + alpha + 1.0
        got = gamma_mean(TestFunction.from_callable(f, 0.0, 1.0), shapes, self.RATE)
        assert len(calls) == 2
        with mp.workdps(30):
            exact = [float(mean(mp.mpf(s), mp.mpf(self.RATE))) for s in shapes]
        np.testing.assert_allclose(got, exact, rtol=1e-12, atol=atol)

    @pytest.mark.parametrize(
        "s, rows",
        [(0.5, 3), (3.5, 3), (40.5, 3), (95.5, 3), (150.5, 3), (0.3, 16)],
        ids=["0.5", "3.5", "40.5", "95.5", "150.5", "0.3-wide"],
    )
    @pytest.mark.parametrize("name", ["sqrt", "exp:-1"])
    def test_fractional_shapes_near_jacobi_edge(self, s, rows, name):
        # a batch takes the Gauss-Jacobi front rule when its smallest
        # endpoint power b = s - 1 + p is fractional and below 6: the exp:-1
        # batches from 0.5 and 3.5 (b = -0.5 and 2.5) and both wide batches
        # from 0.3, whose rows reach 15 whole powers above b; the other sqrt
        # batches (b = s - 1/2, an integer) and the larger shapes take
        # Gauss-Legendre; against the closed forms Gamma(s + 1/2) / Gamma(s)
        # / sqrt(2) at rate 2 (above sqrt's growth class A = 1) and 2^(-s)
        # at rate 1, at 30 digits
        f, rate, mean = {
            "sqrt": (TestFunction.sqrt(), 2.0,
                     lambda s: mp.gamma(s + 0.5) / mp.gamma(s) / mp.sqrt(2)),
            "exp:-1": (TestFunction.exp_scaled(-1.0), 1.0, lambda s: mp.mpf(2) ** (-s)),
        }[name]
        shapes = s + np.arange(float(rows))
        got = gamma_mean(f, shapes, rate)
        with mp.workdps(30):
            exact = [float(mean(mp.mpf(shape))) for shape in shapes]
        np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_strong_tilt_converges(self, alpha, j):
        # f = e^(0.9 u) against its envelope of tilt 0.9: the mean is 10^s
        # (from j = 3 the window's upper edge passes u = 709 / 0.9, where
        # f itself overflows)
        shapes = np.arange(j * j, (j + 1) ** 2) + alpha + 1.0
        got = gamma_mean(TestFunction.exp_scaled(0.9), shapes, 1.0)
        np.testing.assert_allclose(got, 10.0**shapes, rtol=1e-12, atol=0.0)

    def test_front_rule_needs_whole_spacing(self):
        # shapes 0.5 and 0.8 take the front rule of b = -0.5, which cannot
        # absorb the second row's u^(-0.2)
        with pytest.raises(ParameterError) as err:
            gamma_mean(TestFunction.exp_scaled(-1.0), [0.5, 0.8], 1.0)
        assert err.value.code == "shape_spacing"

    @staticmethod
    def _overflowing_calls(shapes, tilt):
        # f = e^(tilt u) overflows on the window: the first round's totals
        # are not finite, so the batch raises there, with no RuntimeWarning;
        # returns how often f ran
        calls = []

        def f(u):
            calls.append(len(u))
            return np.exp(tilt * u)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError) as err:
                gamma_mean(TestFunction.from_callable(f, tilt, 1.0), shapes, 1.0)
        assert err.value.code == "integrand_not_finite"
        return len(calls)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0])
    def test_overflowing_integrand_fails_fast(self, alpha):
        # at j = 3 the window passes u = 709 / 0.9; the endpoint powers
        # s - 1 >= 8.5 are left to Gauss-Legendre, so f runs once
        assert self._overflowing_calls(np.arange(9, 16) + alpha + 1.0, 0.9) == 1

    def test_overflowing_integrand_fails_fast_with_jacobi_panel(self):
        # shapes 1.5-4.5 have fractional endpoint powers below 6: their one
        # round runs f once, on one node array whose first panel carries the
        # Gauss-Jacobi front rule (at tilt 0.99 the window passes u = 709 / 0.99)
        assert self._overflowing_calls(np.arange(1, 5) + 0.5, 0.99) == 1


class TestJacobiThreshold:
    # chunks 2 and 3 (k = 4..15) hold batches on both sides of the endpoint
    # power b = 6 from which Gauss-Legendre replaces the Gauss-Jacobi front
    # panel; every row against mpmath quadrature
    CASES = {
        "sqrt": (TestFunction.sqrt(), mp.sqrt, ()),
        "abs:1e-6": (TestFunction.abs_shift(1e-6), lambda t: abs(t - mp.mpf("1e-6")), (1e-6,)),
        "exp:-1": (TestFunction.exp_scaled(-1.0), lambda t: mp.exp(-t), ()),
    }

    @pytest.mark.parametrize("name", list(CASES))
    @pytest.mark.parametrize("alpha", [-0.5, 0.3])
    @pytest.mark.parametrize("rate", [2.0, 5.0])
    def test_rows_around_threshold(self, name, alpha, rate):
        f, mp_f, kinks = self.CASES[name]
        params = OperatorParams(rate, alpha)
        for j in (2, 3):
            chunk = _coefficient_cached.__wrapped__(f, j, params)
            shapes = np.arange(j * j, (j + 1) ** 2) + alpha + 1.0
            exact = [mp_gamma_mean(mp_f, s, rate, breakpoints=kinks) for s in shapes]
            np.testing.assert_allclose(chunk, exact, rtol=1e-12, atol=0.0)


class TestJacobiRuleChoice:
    # the batch, not the row, takes the Gauss-Jacobi front rule: its window
    # starts at 0 and its smallest endpoint power b = s_min - 1 + p is
    # fractional and below _GL_POWER = 6; such a batch builds one rule
    @pytest.mark.parametrize(
        "s_min, power, built",
        [(6.5, 0.0, [5.5]), (6.0, 0.5, [5.5]), (7.5, 0.0, []), (6.0, 0.0, []), (6.5, 0.5, [])],
        ids=["b5.5", "b5.5-sqrt", "b6.5", "b5-whole", "b6-sqrt"],
    )
    def test_rules_built(self, monkeypatch, s_min, power, built):
        gj_rules, rules = quadrature._gj_rules, []

        def spy(m, b):
            rules.append(b)
            return gj_rules(m, b)

        monkeypatch.setattr(quadrature, "_gj_rules", spy)
        f, rate, mean = {
            0.0: (TestFunction.exp_scaled(-1.0), 1.0, lambda s: mp.mpf(2) ** (-s)),
            0.5: (TestFunction.sqrt(), 2.0,
                  lambda s: mp.gamma(s + 0.5) / mp.gamma(s) / mp.sqrt(2)),
        }[power]
        shapes = s_min + np.arange(3.0)
        got = gamma_mean(f, shapes, rate)
        assert rules == built
        with mp.workdps(30):
            exact = [float(mean(mp.mpf(shape))) for shape in shapes]
        np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0.0)


def test_slab_size_keeps_row_bits(monkeypatch):
    # each row is summed on its own, so no row's bits depend on the slab size
    shapes = np.arange(41) + 401.3
    f = TestFunction.from_callable(lambda u: np.sin(u / 50.0) + 2.0, 0.0, 1.0)
    got = []
    for cells in (1 << 10, 1 << 12, 1 << 14, 1 << 20):
        monkeypatch.setattr(quadrature, "_SLAB_CELLS", cells)
        got.append(gamma_mean(f, shapes, 1.0))
    for other in got[1:]:
        np.testing.assert_array_equal(other, got[0])


def test_gamma_mean_ignores_row_order():
    # a row's bits do not depend on where it sits in the batch: permuted
    # shapes give the permuted means, with Gauss-Jacobi front rules, kinks
    # and a shape below 1 in the mix
    rng = np.random.default_rng(7)
    for f, rate, shapes in (
        (TestFunction.sqrt(), 2.0, np.arange(1, 18) + 0.3),
        (TestFunction.abs_shift(1.0), 2.0, np.arange(0, 13) + 0.6),  # a kink at u = 2
        (TestFunction.exp_scaled(-1.0), 5.0, np.arange(25, 36) - 0.5),
    ):
        ref = gamma_mean(f, shapes, rate)
        for _ in range(3):
            perm = rng.permutation(len(shapes))
            got = gamma_mean(f, shapes[perm], rate)
            np.testing.assert_array_equal(got, ref[perm])


class TestPoissonSum:
    def test_matches_full_weight_matrix_bit_for_bit(self):
        # the row slabs give each row the bits of one reduction over the whole
        # weight matrix; x = 0 rows and k_lo = 0 included, and windows wider
        # than _SLAB_CELLS, which run one row per slab
        rng = np.random.default_rng(11)
        for i in range(66):
            wide = i >= 60
            rows = int(rng.integers(1, 9 if wide else 129))
            width = int(rng.integers(16_385, 20_001) if wide else rng.integers(1, 3001))
            n = float(rng.uniform(0.5, 200.0))
            k_lo = int(rng.integers(0, 400)) if rng.random() < 0.7 else 0
            xs = rng.uniform(0.0, 5.0, rows)
            xs[rng.random(rows) < 0.1] = 0.0
            v = rng.normal(size=width)
            kk = np.arange(k_lo, k_lo + width, dtype=float)
            full = _dot(np.exp(log_poisson_weights(n * xs[:, None], kk)), v)
            np.testing.assert_array_equal(_poisson_sum(n, xs, v, k_lo), full)

    def test_empty_window_sums_to_zero(self):
        # the kernel's window is empty where k_cut < k_lo
        got = _poisson_sum(3.0, np.array([0.0, 0.5, 2.0]), np.empty(0), 7)
        np.testing.assert_array_equal(got, np.zeros(3))


def _mp_gauss_jacobi(m: int, b: float, dps: int = 40):
    """Golub-Welsch at ``dps`` digits: the eigenvalues of the Jacobi matrix of
    the weight (1+x)^b, and the mass 2^(b+1)/(b+1) times each eigenvector's
    squared first component, sorted by node."""
    with mp.workdps(dps):
        b = mp.mpf(b)
        jac = mp.zeros(m, m)
        jac[0, 0] = b / (b + 2)
        for k in range(1, m):
            s = 2 * k + b
            jac[k, k] = b * b / (s * (s + 2))
            jac[k, k - 1] = jac[k - 1, k] = 2 * k * (k + b) / (s * mp.sqrt((s - 1) * (s + 1)))
        nodes, vecs = mp.eigsy(jac)
        mass = mp.mpf(2) ** (b + 1) / (b + 1)
        order = sorted(range(m), key=lambda i: nodes[i])
        return (np.array([float(nodes[i]) for i in order]),
                np.array([float(mass * vecs[0, i] ** 2) for i in order]))


def test_batched_gauss_jacobi_matches_mpmath():
    # one eigenproblem per rule against a 40-digit rule; the total mass is
    # the exact 2^(b+1)/(b+1)
    for b in (-0.5, -0.25, 0.0, 0.3, *(k + 0.37 for k in range(1, 160, 7))):
        xi, wi = _gj_rules(16, b)
        ref_x, ref_w = _mp_gauss_jacobi(16, b)
        np.testing.assert_allclose(xi, ref_x, rtol=0, atol=1e-15)
        np.testing.assert_allclose(wi, ref_w, rtol=2e-13)
        assert wi.sum() == pytest.approx(float(mp.mpf(2) ** (b + 1) / (b + 1)), rel=4e-16)


class TestApplyOperator:
    def test_normalization(self):
        for params in (OperatorParams(5.0, -0.5, 2.0), OperatorParams(50.0, 1.0, 0.0)):
            for x in (0.0, 0.7, 3.0):
                assert apply_operator(TestFunction.monomial(0), x, params) == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_first_moment(self):
        val = apply_operator(TestFunction.monomial(1), 1.0, OperatorParams(10.0, 0.0, 0.0))
        assert val == pytest.approx(1.1, rel=1e-12)

    def test_exponential_eigenfunction(self):
        val = apply_operator(TestFunction.exp_scaled(-2.0), 1.0, OperatorParams(10.0, 0.0, 2.0))
        assert val == pytest.approx(0.8 * math.exp(-2.0), rel=1e-11)

    def test_linearity(self):
        params = OperatorParams(8.0, 0.5, 1.0)
        f = TestFunction.monomial(2)
        g = TestFunction.exp_scaled(-1.0)
        combo = TestFunction.from_callable(
            lambda t: 2.0 * t**2 + 3.0 * np.exp(-t), growth_a=1.0, growth_k=5.0, label="combo"
        )
        lhs = apply_operator(combo, 1.3, params)
        rhs = 2.0 * apply_operator(f, 1.3, params) + 3.0 * apply_operator(g, 1.3, params)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_positivity(self):
        params = OperatorParams(12.0, -0.25, 0.5)
        f = TestFunction.abs_shift(1.0)
        for x in (0.0, 0.5, 1.0, 2.0, 4.0):
            assert apply_operator(f, x, params) >= 0.0

    def test_oracle_nonsmooth(self):
        # full-pipeline check against the independent mpmath operator
        val = apply_operator(TestFunction.abs_shift(1.0), 1.0, OperatorParams(8.0, 0.5, 1.0))
        oracle = mp_operator_apply(lambda t: abs(t - 1), 1.0, 8.0, 0.5, 1.0)
        assert val == pytest.approx(oracle, abs=1e-10)

    def test_grid_matches_pointwise(self):
        params = OperatorParams(20.0, 0.25, 1.0)
        f = TestFunction.exp_scaled(-0.5)
        xs = np.array([0.0, 0.3, 1.7, 4.0])
        grid_vals = apply_operator_grid(f, xs, params)
        for x, gv in zip(xs, grid_vals):
            assert gv == pytest.approx(apply_operator(f, float(x), params), abs=1e-11)

    def test_grid_matches_pointwise_large_n(self):
        # one k-sum: the grid and the pointwise value differ only by the
        # terms one window keeps and the other skips
        params = OperatorParams(640.0, -0.5, 1.0)
        f = TestFunction.exp_scaled(-0.5)
        xs = np.array([0.0, 0.3, 1.7, 4.0, 5.0])
        grid_vals = apply_operator_grid(f, xs, params)
        for x, gv in zip(xs, grid_vals):
            assert gv == pytest.approx(apply_operator(f, float(x), params), rel=1e-14)

    def test_grid_normalization_large_n(self):
        params = OperatorParams(640.0, 0.0, 0.0)
        vals = apply_operator_grid(TestFunction.monomial(0), np.linspace(0.0, 5.0, 11), params)
        assert np.max(np.abs(vals - 1.0)) <= 2e-13

    def test_large_n_window(self):
        # n x = 1e5: the window [k_lo, k_hi] is far narrower than [0, k_hi]
        params = OperatorParams(1e5, 0.5, 1.0)
        val = apply_operator(TestFunction.monomial(2), 1.0, params)
        assert val == pytest.approx(raw_moment_closed(2, 1.0, params), rel=1e-10)

    @pytest.mark.parametrize("n", [1e4, 1e5])
    def test_large_n_exp_closed_form(self, n):
        # M_n e^(-t) (x) = (rate/(rate+1))^(alpha+1) e^(-nx/(rate+1))
        params = OperatorParams(n, 0.5, 1.0)
        rate = mp.mpf(params.rate)
        exact = float((rate / (rate + 1)) ** mp.mpf(1.5) * mp.exp(-n / (rate + 1)))
        val = apply_operator(TestFunction.exp_scaled(-1.0), 1.0, params)
        assert val == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_empty_grid(self):
        assert apply_operator_grid(TestFunction.monomial(1), [], OperatorParams(10.0)).shape == (0,)

    def test_k_max_exceeded(self):
        # the certified k window at n x = 5e8 is wider than 50,000 terms
        with pytest.raises(TruncationError):
            apply_operator(TestFunction.monomial(1), 5.0, OperatorParams(1e8))

    def test_sparse_grid_splits_block(self):
        # one window over [0, 2] is wider than 50,000 terms; each point alone is not
        f = TestFunction.abs_shift(1.0)
        params = OperatorParams(3e4)
        grid_vals = apply_operator_grid(f, [0.0, 2.0], params)
        assert grid_vals.tolist() == [apply_operator(f, x, params) for x in (0.0, 2.0)]

    def test_negative_x(self):
        with pytest.raises(ParameterError):
            apply_operator(TestFunction.monomial(0), -0.5, OperatorParams(5.0, 0.0, 0.0))

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_x(self, x):
        f, params = TestFunction.exp_scaled(-1.0), OperatorParams(10.0)
        for call in (lambda: apply_operator(f, x, params),
                     lambda: apply_operator_grid(f, [1.0, x], params),
                     lambda: apply_szasz(f, x, 10.0)):
            with pytest.raises(ParameterError) as err:
                call()
            assert err.value.code == "x_not_finite"


class TestTruncationCap:
    # n x >= 1e8 needs a window wider than 1e5 terms: every k-sum must refuse,
    # not sum past the 50,000-term cap
    PARAMS = OperatorParams(1e8)

    def test_kernel(self):
        with pytest.raises(TruncationError):
            kernel_on_x_grid([3.0], 3.0, self.PARAMS)

    def test_kernel_on_x_grid(self):
        with pytest.raises(TruncationError):
            kernel_on_x_grid(np.array([1.0, 3.0]), 3.0, self.PARAMS)

    def test_szasz(self):
        with pytest.raises(TruncationError):
            apply_szasz(TestFunction.monomial(1), 3.0, 1e8)


class TestKWindow:
    @pytest.mark.parametrize(
        "lam_lo, lam_hi",
        [(0.3, 0.3), (5.0, 5.0), (37.2, 37.2), (1e3, 1e3), (1e5, 1e5), (40.0, 90.0)],
    )
    def test_tails_against_mpmath(self, lam_lo, lam_hi):
        k_lo, k_hi = _k_window(lam_lo, lam_hi, math.log(1e-15))
        assert k_lo <= lam_lo and k_hi >= lam_hi
        # exact Poisson masses: below k_lo is Q(k_lo, lam), above k_hi is P(k_hi + 1, lam)
        below = mp.gammainc(k_lo, lam_lo, mp.inf, regularized=True) if k_lo > 0 else 0
        above = mp.gammainc(k_hi + 1, 0, lam_hi, regularized=True)
        assert below <= 1e-17
        assert above <= 1e-17

    def test_huge_mean_raises_before_searching(self):
        # at 1e16 consecutive k are not distinct floats; the tail bound's
        # log1p used to fail there with a bare ValueError
        with pytest.raises(TruncationError):
            _k_window(1e16, 1e16, math.log(1e-13))
        # at 9e15 the Poisson spread alone is wider than 50,000 terms
        with pytest.raises(TruncationError):
            _k_window(9e15, 9e15, math.log(1e-13))

    def test_tiny_envelope_meets_only_the_float_limit(self):
        # a tolerance above 1 (an envelope constant near 1e-300) certifies a
        # one-term window at any mean below 2^53, and none from there on
        assert _k_window(1e15, 1e15, math.log(1e290)) == (10**15, 10**15)
        with pytest.raises(TruncationError):
            _k_window(2.0**53, 2.0**53, math.log(1e290))


class TestQuadratureWindow:
    @pytest.mark.parametrize("s", [0.3, 0.5, 1.0, 2.5, 17.0, 250.5, 5000.5])
    @pytest.mark.parametrize("tilt", [0.0, 1.0 / 3.0])
    def test_tails_against_mpmath(self, s, tilt):
        eps_win = quadrature._EPS_WIN  # 1e-14, 1% of the 1e-12 target
        u_lo, u_hi = _window_lo(s, 1.0), _window_hi(s, tilt, 1.0)
        assert 0.0 <= u_lo < s < u_hi
        # exact tilted upper tail (1-tilt)^(-s) Q(s, (1-tilt) u_hi) and lower tail P(s, u_lo)
        keep = mp.mpf(1.0 - tilt)
        upper = mp.gammainc(s, keep * u_hi, mp.inf, regularized=True) * keep ** (-s)
        lower = mp.gammainc(s, 0, u_lo, regularized=True)
        assert upper <= eps_win
        assert lower <= eps_win


class TestValueAtZero:
    # M f(0) = c_0(f), the mean of f under Gamma(alpha + 1, n - beta)
    def test_constant(self):
        assert apply_operator(TestFunction.monomial(0), 0.0, OperatorParams(9.0, 0.3, 0.7)) == (
            pytest.approx(1.0, abs=1e-13)
        )

    def test_gamma_mean_examples(self):
        assert apply_operator(
            TestFunction.monomial(1), 0.0, OperatorParams(10.0, 0.0, 0.0)
        ) == pytest.approx(0.1, rel=1e-12)
        assert apply_operator(
            TestFunction.monomial(1), 0.0, OperatorParams(10.0, 1.0, 2.0)
        ) == pytest.approx(0.25, rel=1e-12)

    def test_matches_apply_at_zero(self):
        params = OperatorParams(10.0, -0.25, 1.0)
        for f in (TestFunction.sqrt(), TestFunction.abs_shift(1.0), TestFunction.monomial(2)):
            assert abs(coefficient(f, 0, params) - apply_operator(f, 0.0, params)) <= 1e-10


class TestGrowthBound:
    def test_constant_case(self):
        f = TestFunction.sin_scaled(1.0)  # A = 0, K = 1
        params = OperatorParams(10.0, 0.0, 1.0)
        for x in (0.0, 1.0, 5.0):
            assert growth_bound(params, f, x) == 1.0

    def test_formula(self):
        f = TestFunction.exp_scaled(1.0)  # A = 1, K = 1
        assert growth_bound(OperatorParams(10.0, 0.0, 1.0), f, 0.0) == pytest.approx(
            9.0 / 8.0, rel=1e-14
        )

    def test_dominates_operator(self):
        params = OperatorParams(10.0, 0.5, 1.0)
        f = TestFunction.exp_scaled(1.0)
        for x in (0.0, 0.5, 1.0, 2.0):
            assert abs(apply_operator(f, x, params)) <= growth_bound(params, f, x) * (1 + 1e-12)

    def test_precondition(self):
        f = TestFunction.exp_scaled(4.5)
        with pytest.raises(ParameterError):
            growth_bound(OperatorParams(5.0, 0.0, 1.0), f, 1.0)

    def test_finite_bits_kept(self):
        # a finite bound keeps its bits: the apply_cold gate reads it for abs and sqrt
        f = TestFunction.abs_shift(1.5)
        assert growth_bound(OperatorParams(10.0, 0.5, 1.0), f, 2.0).hex() == "0x1.d12c6a8ea7079p+4"

    @pytest.mark.parametrize(
        "params, c, x",
        [(OperatorParams(10.0), 1.0, 1000.0), (OperatorParams(10.0, 400.0), 9.99999, 0.0)],
        ids=["exp", "power"],
    )
    def test_overflow_is_inf(self, params, c, x):
        # the exponential and the power used to raise a bare OverflowError
        assert growth_bound(params, TestFunction.exp_scaled(c), x) == math.inf


class TestKernel:
    def test_nonnegative(self):
        params = OperatorParams(10.0, 0.5, 1.0)
        for t in (0.1, 1.0, 3.0):
            assert np.all(kernel_on_x_grid([0.0, 0.5, 2.0], t, params) >= 0.0)

    def test_density_normalization(self):
        # integral over t of K_n(x, t) = 1 (probability density)
        params = OperatorParams(10.0, 0.5, 1.0)
        x = 2.0
        nodes, weights = np.polynomial.legendre.leggauss(40)
        total = 0.0
        for a, b in zip(np.linspace(0, 12, 49)[:-1], np.linspace(0, 12, 49)[1:]):
            ts = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            vals = [kernel_on_x_grid([x], float(t), params)[0] for t in ts]
            total += 0.5 * (b - a) * float(np.dot(weights, vals))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_interpolation_row(self):
        # at x = 0 with alpha = 0 the kernel is the plain exponential density
        params = OperatorParams(5.0, 0.0, 0.0)
        for t in (0.1, 0.5, 2.0):
            assert kernel_on_x_grid([0.0], t, params)[0] == pytest.approx(
                5.0 * math.exp(-5.0 * t), rel=1e-13
            )

    def test_consistency_with_operator(self):
        # apply_operator(f, x) = integral K_n(x, t) f(t) dt for smooth f
        params = OperatorParams(10.0, 0.5, 1.0)
        f = TestFunction.exp_scaled(-1.0)
        x = 1.5
        nodes, weights = np.polynomial.legendre.leggauss(40)
        total = 0.0
        for a, b in zip(np.linspace(0, 14, 57)[:-1], np.linspace(0, 14, 57)[1:]):
            ts = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            vals = [kernel_on_x_grid([x], float(t), params)[0] * math.exp(-t) for t in ts]
            total += 0.5 * (b - a) * float(np.dot(weights, vals))
        assert total == pytest.approx(apply_operator(f, x, params), abs=1e-7)

    def test_empty_grid(self):
        assert kernel_on_x_grid([], 1.0, OperatorParams(10.0)).shape == (0,)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_x_or_t(self, bad):
        # x follows the point rule of every function that takes points
        params = OperatorParams(10.0)
        for call, code in ((lambda: kernel_on_x_grid([1.0, bad], 1.0, params), "x_not_finite"),
                           (lambda: kernel_on_x_grid([1.0], bad, params), "kernel_not_finite")):
            with pytest.raises(ParameterError) as err:
                call()
            assert err.value.code == code

    def test_grid_matches_scalar(self):
        # a block's shared k window gives each row its one-point value
        params = OperatorParams(7.0, -0.25, 0.5)
        xs = np.array([0.0, 0.4, 1.1, 3.0])
        grid = kernel_on_x_grid(xs, 0.8, params)
        for x, gv in zip(xs, grid):
            assert gv == pytest.approx(kernel_on_x_grid([x], 0.8, params)[0], rel=1e-10)


class TestSzasz:
    def test_constant(self):
        assert apply_szasz(TestFunction.monomial(0), 1.3, 9.0) == pytest.approx(1.0, abs=1e-13)

    def test_linear(self):
        # S_n(t, x) = x exactly
        assert apply_szasz(TestFunction.monomial(1), 1.0, 10.0) == pytest.approx(1.0, rel=1e-13)

    def test_quadratic(self):
        # S_n(t^2, x) = x^2 + x/n
        assert apply_szasz(TestFunction.monomial(2), 1.0, 10.0) == pytest.approx(1.1, rel=1e-13)

    def test_oracle(self):
        val = apply_szasz(TestFunction.abs_shift(1.0), 0.8, 7.0)
        oracle = mp_szasz(lambda t: abs(t - 1), 0.8, 7.0)
        assert val == pytest.approx(oracle, abs=1e-12)

    def test_growth_precondition(self):
        with pytest.raises(ParameterError):
            apply_szasz(TestFunction.exp_scaled(3.0), 1.0, 2.0)

    def test_non_finite_n(self):
        with pytest.raises(ParameterError) as err:
            apply_szasz(TestFunction.monomial(1), 1.0, math.inf)
        assert err.value.code == "szasz_n"
