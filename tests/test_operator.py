import math

import numpy as np
import pytest

from smld.errors import FileFormatError, ParameterError, TruncationError
from smld.operator import (
    OperatorParams,
    TestFunction,
    TruncationPolicy,
    apply_operator,
    apply_operator_grid,
    apply_szasz,
    coefficient,
    growth_bound,
    kernel,
    kernel_on_x_grid,
    load_sampled,
    validate,
    value_at_zero,
)

from smld.moments import raw_moment_closed
from smld.operator.core import _k_window

from oracle_utils import mp_gamma_mean, mp_operator_apply, mp_szasz

import mpmath as mp


class TestValidate:
    def test_ok(self):
        validate(OperatorParams(10.0, 0.0, 2.0), TestFunction.sin_scaled(1.0))

    def test_n_le_beta(self):
        with pytest.raises(ParameterError) as err:
            validate(OperatorParams(2.0, 0.0, 3.0))
        assert err.value.code == "n_le_beta"

    def test_alpha_low(self):
        with pytest.raises(ParameterError) as err:
            validate(OperatorParams(5.0, -1.0, 0.0))
        assert err.value.code == "alpha_le_minus_one"

    def test_growth_incompatible(self):
        f = TestFunction.exp_scaled(4.5)  # growth class A = 4.5
        with pytest.raises(ParameterError) as err:
            validate(OperatorParams(5.0, 0.0, 1.0), f)
        assert err.value.code == "growth_incompatible"

    def test_negative_beta_accepted(self):
        validate(OperatorParams(5.0, 0.0, -3.0))


class TestTruncationPolicy:
    def test_invariants(self):
        with pytest.raises(ParameterError):
            TruncationPolicy(eps_tail=1e-7)
        with pytest.raises(ParameterError):
            TruncationPolicy(k_max=100)


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
        assert f.growth_bound_holds()

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

    def test_load_sampled(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("# t  f\n0 0.0\n0.5 0.25\n\n1 1.0\n")
        f = load_sampled(path)
        assert f(0.25) == 0.125

    def test_load_sampled_errors(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.5 1.0\n1.0 2.0\n")
        with pytest.raises(FileFormatError):
            load_sampled(bad)
        bad.write_text("0 1 2\n")
        with pytest.raises(FileFormatError):
            load_sampled(bad)


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

    @pytest.mark.parametrize("k", [0, 4])
    def test_sin_oracle(self, k):
        params = OperatorParams(6.0, -0.25, 0.5)
        val = coefficient(TestFunction.sin_scaled(2.0), k, params)
        oracle = mp_gamma_mean(lambda t: mp.sin(2 * t), k + params.alpha + 1.0, params.rate)
        assert val == pytest.approx(oracle, abs=1e-12)


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

    def test_k_max_exceeded(self):
        policy = TruncationPolicy(k_max=256)
        with pytest.raises(TruncationError):
            apply_operator(TestFunction.monomial(1), 5.0, OperatorParams(200.0, 0.0, 0.0), policy)

    def test_negative_x(self):
        with pytest.raises(ParameterError):
            apply_operator(TestFunction.monomial(0), -0.5, OperatorParams(5.0, 0.0, 0.0))


class TestTruncationCap:
    # n x = 300 needs K near 500: every k-sum must refuse, not sum past k_max
    PARAMS = OperatorParams(100.0, 0.0, 0.0)
    POLICY = TruncationPolicy(k_max=256)

    def test_kernel(self):
        with pytest.raises(TruncationError):
            kernel(3.0, 3.0, self.PARAMS, self.POLICY)

    def test_kernel_on_x_grid(self):
        with pytest.raises(TruncationError):
            kernel_on_x_grid(np.array([1.0, 3.0]), 3.0, self.PARAMS, self.POLICY)

    def test_szasz(self):
        with pytest.raises(TruncationError):
            apply_szasz(TestFunction.monomial(1), 3.0, 100.0, self.POLICY)


class TestKWindow:
    @pytest.mark.parametrize(
        "lam_lo, lam_hi",
        [(0.3, 0.3), (5.0, 5.0), (37.2, 37.2), (1e3, 1e3), (1e5, 1e5), (40.0, 90.0)],
    )
    def test_tails_against_mpmath(self, lam_lo, lam_hi):
        k_lo, k_hi = _k_window(lam_lo, lam_hi, math.log(1e-15), TruncationPolicy())
        assert k_lo <= lam_lo and k_hi >= lam_hi
        # exact Poisson masses: below k_lo is Q(k_lo, lam), above k_hi is P(k_hi + 1, lam)
        below = mp.gammainc(k_lo, lam_lo, mp.inf, regularized=True) if k_lo > 0 else 0
        above = mp.gammainc(k_hi + 1, 0, lam_hi, regularized=True)
        assert below <= 1e-17
        assert above <= 1e-17


class TestValueAtZero:
    def test_constant(self):
        assert value_at_zero(TestFunction.monomial(0), OperatorParams(9.0, 0.3, 0.7)) == (
            pytest.approx(1.0, abs=1e-13)
        )

    def test_gamma_mean_examples(self):
        assert value_at_zero(
            TestFunction.monomial(1), OperatorParams(10.0, 0.0, 0.0)
        ) == pytest.approx(0.1, rel=1e-12)
        assert value_at_zero(
            TestFunction.monomial(1), OperatorParams(10.0, 1.0, 2.0)
        ) == pytest.approx(0.25, rel=1e-12)

    def test_matches_apply_at_zero(self):
        params = OperatorParams(10.0, -0.25, 1.0)
        for f in (TestFunction.sqrt(), TestFunction.abs_shift(1.0), TestFunction.monomial(2)):
            assert abs(value_at_zero(f, params) - apply_operator(f, 0.0, params)) <= 1e-10


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


class TestKernel:
    def test_nonnegative(self):
        params = OperatorParams(10.0, 0.5, 1.0)
        for x in (0.0, 0.5, 2.0):
            for t in (0.1, 1.0, 3.0):
                assert kernel(x, t, params) >= 0.0

    def test_density_normalization(self):
        # integral over t of K_n(x, t) = 1 (probability density)
        params = OperatorParams(10.0, 0.5, 1.0)
        x = 2.0
        nodes, weights = np.polynomial.legendre.leggauss(40)
        total = 0.0
        for a, b in zip(np.linspace(0, 12, 49)[:-1], np.linspace(0, 12, 49)[1:]):
            ts = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            vals = [kernel(x, float(t), params) for t in ts]
            total += 0.5 * (b - a) * float(np.dot(weights, vals))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_interpolation_row(self):
        # at x = 0 with alpha = 0 the kernel is the plain exponential density
        params = OperatorParams(5.0, 0.0, 0.0)
        for t in (0.1, 0.5, 2.0):
            assert kernel(0.0, t, params) == pytest.approx(5.0 * math.exp(-5.0 * t), rel=1e-13)

    def test_consistency_with_operator(self):
        # apply_operator(f, x) = integral K_n(x, t) f(t) dt for smooth f
        params = OperatorParams(10.0, 0.5, 1.0)
        f = TestFunction.exp_scaled(-1.0)
        x = 1.5
        nodes, weights = np.polynomial.legendre.leggauss(40)
        total = 0.0
        for a, b in zip(np.linspace(0, 14, 57)[:-1], np.linspace(0, 14, 57)[1:]):
            ts = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            vals = [kernel(x, float(t), params) * math.exp(-t) for t in ts]
            total += 0.5 * (b - a) * float(np.dot(weights, vals))
        assert total == pytest.approx(apply_operator(f, x, params), abs=1e-7)

    def test_grid_matches_scalar(self):
        params = OperatorParams(7.0, -0.25, 0.5)
        xs = np.array([0.0, 0.4, 1.1, 3.0])
        grid = kernel_on_x_grid(xs, 0.8, params)
        for x, gv in zip(xs, grid):
            assert gv == pytest.approx(kernel(float(x), 0.8, params), rel=1e-10)


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
