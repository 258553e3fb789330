import math

import numpy as np
import pytest

from smld.errors import ParameterError
from smld.operator import OperatorParams, TestFunction, apply_operator
from smld.spectral import (
    _K_CAP,
    adaptive_K,
    build_P,
    build_P_adaptive,
    eigen_operator_check,
    eigen_vector_check,
    iterate_decay,
    lambda2,
    row_deficit_tail,
)
from smld.operator.core import _poisson_sum

import mpmath as mp


class TestBuildP:
    @pytest.mark.parametrize("K", [0, _K_CAP + 1])
    def test_order_out_of_range(self, K):
        # refused before the (K+1) x (K+1) block is allocated
        with pytest.raises(ParameterError) as err:
            build_P(OperatorParams(10.0), K)
        assert err.value.code == "matrix_order"

    def test_first_entry(self):
        p_mat = build_P(OperatorParams(2.0, 0.0, 0.0), 8)
        assert p_mat.entries[0, 0] == pytest.approx(0.5, rel=1e-14)

    def test_entry_against_integral_oracle(self):
        # defining integral evaluated with mpmath
        n, al, b, k, j = 3.0, 0.5, 1.0, 1, 2
        p_mat = build_P(OperatorParams(n, al, b), 6)
        integ = mp.quad(
            lambda t: t ** (j + k + al) * mp.e ** (-(2 * n - b) * t), [0, mp.inf]
        )
        oracle = float(
            (n - b) ** (k + al + 1)
            / mp.gamma(k + al + 1)
            * n**j
            / mp.factorial(j)
            * integ
        )
        assert p_mat.entries[k, j] == pytest.approx(oracle, rel=1e-13)

    def test_entries_nonnegative(self):
        p_mat = build_P(OperatorParams(10.0, -0.5, 2.0), 64)
        assert np.all(p_mat.entries >= 0.0)

    def test_deficits_shrink_with_K(self):
        params = OperatorParams(10.0, 0.0, 2.0)
        small = build_P(params, 64)
        large = build_P(params, 128)
        for k in (0, 10, 40):
            assert large.row_deficits[k] <= small.row_deficits[k] + 1e-15

    def test_deficit_matches_analytic_tail(self):
        params = OperatorParams(10.0, 0.0, 2.0)
        K = 96
        p_mat = build_P(params, K)
        for k in (20, 48):
            assert abs(p_mat.row_deficits[k] - row_deficit_tail(params, k, K)) <= 1e-12

    def test_adaptive_deficit_target(self):
        params = OperatorParams(10.0, 0.5, 2.0)
        K = adaptive_K(params)
        assert row_deficit_tail(params, K // 2, K) <= 1e-12


class TestEigenVectors:
    def test_constant_residual_is_deficit(self):
        p_mat = build_P(OperatorParams(10.0, 0.0, 2.0), 128)
        chk = eigen_vector_check(p_mat, "constant")
        upper = p_mat.row_deficits[: p_mat.K // 2 + 1]
        assert chk.lam == 1.0
        assert chk.vector_residual <= 10.0 * max(float(upper.max()), 1e-16)

    def test_lambda2_values(self):
        assert lambda2(OperatorParams(10.0, 0.0, 2.0)) == pytest.approx(0.8, rel=1e-15)
        assert lambda2(OperatorParams(10.0, 1.0, 2.0)) == pytest.approx(0.64, rel=1e-15)

    def test_lambda2_in_unit_interval(self):
        for n in (5.0, 10.0, 200.0):
            for alpha in (-0.5, 0.0, 1.0):
                for beta in (0.5, 1.0, 2.0):
                    assert 0.0 < lambda2(OperatorParams(n, alpha, beta)) < 1.0

    def test_exponential_residual(self):
        p_mat = build_P_adaptive(OperatorParams(10.0, 1.0, 2.0))
        chk = eigen_vector_check(p_mat, "exponential")
        assert chk.lam == pytest.approx(0.64, rel=1e-15)
        assert chk.vector_residual <= 1e-10

    def test_beta_range(self):
        p_mat = build_P(OperatorParams(10.0, 0.0, -1.0), 32)
        with pytest.raises(ParameterError):
            eigen_vector_check(p_mat, "exponential")

    def test_unknown_which(self):
        p_mat = build_P(OperatorParams(10.0, 0.0, 1.0), 16)
        with pytest.raises(ParameterError):
            eigen_vector_check(p_mat, "principal")


class TestEigenOperator:
    def test_constant(self):
        chk = eigen_operator_check(OperatorParams(10.0, 0.5, 1.0), "constant", [0.0, 1.0, 5.0])
        assert chk.operator_residual <= 1e-12

    def test_exponential(self):
        chk = eigen_operator_check(
            OperatorParams(10.0, 0.0, 2.0), "exponential", np.linspace(0.0, 5.0, 6)
        )
        assert chk.lam == pytest.approx(0.8, rel=1e-15)
        assert chk.operator_residual <= 1e-8

    def test_exponential_needs_nonnegative_beta(self):
        with pytest.raises(ParameterError) as err:
            eigen_operator_check(OperatorParams(10.0, 0.0, -1.0), "exponential", [0.0, 1.0])
        assert err.value.code == "exponential_eigen_beta"

    def test_beta_zero_degenerates(self):
        chk = eigen_operator_check(OperatorParams(10.0, 0.5, 0.0), "exponential", [0.0, 1.0])
        assert chk.lam == 1.0
        assert chk.operator_residual <= 1e-12


class TestLift:
    # the Poisson-basis lift Phi_v(x) = sum_j v_j psi_{n,j}(x) that
    # iterate_decay applies to each iterate
    @staticmethod
    def lift(v, x, n):
        return float(_poisson_sum(n, np.array([x]), v, 0)[0])

    def test_all_ones(self):
        v = np.ones(600)
        assert self.lift(v, 1.0, 10.0) == pytest.approx(1.0, abs=1e-12)

    def test_geometric_gives_exponential(self):
        v = (1.0 - 0.2) ** np.arange(600.0)
        assert self.lift(v, 1.0, 10.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_unit_vector_at_origin(self):
        assert self.lift(np.array([1.0, 0.0, 0.0]), 0.0, 5.0) == 1.0


class TestIterateDecay:
    def test_single_step_matches_operator_check(self):
        params = OperatorParams(10.0, 0.0, 2.0)
        report = iterate_decay(params, 1, np.linspace(0.0, 5.0, 6))
        assert report.max_deviations[1] <= 1e-9

    def test_amplitude_ratios(self):
        params = OperatorParams(10.0, 0.0, 2.0)
        report = iterate_decay(params, 3, np.linspace(0.0, 5.0, 6))
        for ratio in report.amplitude_ratios:
            assert ratio == pytest.approx(0.8, abs=1e-6)

    def test_zero_steps_identity(self):
        params = OperatorParams(10.0, 0.0, 2.0)
        report = iterate_decay(params, 0, [0.0, 1.0])
        assert report.amplitude_ratios == ()
        assert report.max_deviations[0] <= 1e-12

    def test_beta_precondition(self):
        with pytest.raises(ParameterError) as err:
            iterate_decay(OperatorParams(10.0, 0.0, 0.0), 2, [1.0])
        assert err.value.code == "iterate_beta_range"


class TestSemigroupIdentity:
    def test_apply_equals_lifted_matvec(self):
        # M[Phi_v] = Phi_{Pv}; for a finitely supported coefficient vector the
        # identity is exact, with P rows truncated high enough for the x range
        from scipy.special import gammaln

        params = OperatorParams(8.0, 0.5, 1.5)
        rng = np.random.default_rng(7)
        p_mat = build_P(params, 320)
        v = np.zeros(p_mat.K + 1)
        v[:64] = rng.uniform(-1.0, 1.0, size=64)

        def series(coeffs, t):
            # Phi_coeffs(t) = sum_j coeffs_j psi_{n,j}(t), term by term in logs
            t = np.atleast_1d(np.asarray(t, dtype=float))
            kk = np.arange(len(coeffs), dtype=float)
            out = np.empty_like(t)
            pos = t > 0
            if np.any(pos):
                lam = params.n * t[pos]
                logw = kk[None, :] * np.log(lam)[:, None] - lam[:, None] - gammaln(kk + 1.0)
                out[pos] = np.exp(logw) @ coeffs
            out[~pos] = coeffs[0]
            return out

        f = TestFunction.from_callable(
            lambda t: series(v[:64], t), growth_a=0.0, growth_k=1.0, label="poisson-series"
        )
        pv = p_mat.entries @ v
        for x in (0.0, 0.5, 1.5):
            lhs = apply_operator(f, x, params)
            rhs = float(series(pv, x)[0])
            assert lhs == pytest.approx(rhs, abs=1e-7)


@pytest.mark.parametrize(
    "fn, args, keyword",
    [
        (adaptive_K, (), "deficit_tol"),
        (adaptive_K, (), "start"),
        (adaptive_K, (), "cap"),
        (build_P_adaptive, (), "deficit_tol"),
        (build_P_adaptive, (), "start"),
        (iterate_decay, (1, [1.0]), "K"),
        (iterate_decay, (1, [1.0]), "deficit_tol"),
    ],
)
def test_adaptive_truncation_takes_no_keyword(fn, args, keyword):
    # the adaptive K's tolerance, start and cap are module constants
    with pytest.raises(TypeError):
        fn(OperatorParams(10.0, 0.0, 2.0), *args, **{keyword: 16})
