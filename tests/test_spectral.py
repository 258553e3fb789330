import math
import tracemalloc

import numpy as np
import pytest

from smld.errors import ParameterError
from smld.operator import OperatorParams, TestFunction, apply_operator
from smld.spectral import (
    _BAND_TOL,
    _K_CAP,
    _log_nb_pmf,
    adaptive_K,
    build_P,
    build_P_adaptive,
    eigen_operator_check,
    eigen_vector_check,
    iterate_decay,
    lambda2,
    row_deficit_tail,
    upper_row_check,
)
from smld.operator.core import _poisson_sum

import mpmath as mp


def _row_deficits(p_mat):
    # 1 - sum_j P[k, j] for every row, each row summed on its own
    return 1.0 - np.array([p_mat.row(k).sum() for k in range(p_mat.K + 1)])


class TestBuildP:
    @pytest.mark.parametrize("K", [0, _K_CAP + 1])
    def test_order_out_of_range(self, K):
        # refused before any row data is computed
        with pytest.raises(ParameterError) as err:
            build_P(OperatorParams(10.0), K)
        assert err.value.code == "matrix_order"

    def test_first_entry(self):
        p_mat = build_P(OperatorParams(2.0, 0.0, 0.0), 8)
        assert p_mat.row(0)[0] == pytest.approx(0.5, rel=1e-14)

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
        assert p_mat.row(k)[j] == pytest.approx(oracle, rel=1e-13)

    def test_entries_nonnegative(self):
        p_mat = build_P(OperatorParams(10.0, -0.5, 2.0), 64)
        for k in range(p_mat.K + 1):
            assert np.all(p_mat.row(k) >= 0.0)

    def test_deficits_shrink_with_K(self):
        params = OperatorParams(10.0, 0.0, 2.0)
        small = _row_deficits(build_P(params, 64))
        large = _row_deficits(build_P(params, 128))
        for k in (0, 10, 40):
            assert large[k] <= small[k] + 1e-15

    def test_deficit_matches_analytic_tail(self):
        params = OperatorParams(10.0, 0.0, 2.0)
        K = 96
        deficits = _row_deficits(build_P(params, K))
        for k in (20, 48):
            assert abs(deficits[k] - row_deficit_tail(params, k, K)) <= 1e-12

    def test_adaptive_deficit_target(self):
        params = OperatorParams(10.0, 0.5, 2.0)
        K = adaptive_K(params)
        assert row_deficit_tail(params, K // 2, K) <= 1e-12


class TestRowBands:
    # every row is rebuilt over its band; the mass outside it is certified
    @pytest.mark.parametrize(
        "n, al, b, K",
        [(10.0, 0.0, 2.0, 512), (5.0, -0.5, 4.5, 300), (200.0, -0.25, 0.5, 512), (10.0, -0.5, 2.0, 64)],
    )
    def test_band_holds_all_but_its_tolerance(self, n, al, b, K):
        params = OperatorParams(n, al, b)
        p_mat = build_P(params, K)
        q1, q2 = (n - b) / (2.0 * n - b), n / (2.0 * n - b)
        cols = np.arange(K + 1.0)
        for k in range(0, K + 1, 7):
            exact = np.exp(_log_nb_pmf(k + al + 1.0, q1, q2, cols))
            lo, hi = p_mat.lo[k], p_mat.hi[k]
            assert 0 <= lo <= p_mat.modes[k] <= hi <= K
            assert exact[:lo].sum() <= _BAND_TOL and exact[hi + 1 :].sum() <= _BAND_TOL
            row = p_mat.row(k)
            assert np.all(row[:lo] == 0.0) and np.all(row[hi + 1 :] == 0.0)
            np.testing.assert_allclose(row[lo : hi + 1], exact[lo : hi + 1], rtol=1e-12)

    def test_bands_are_narrower_than_rows(self):
        p_mat = build_P(OperatorParams(10.0, 0.0, 2.0), 512)
        assert (p_mat.hi - p_mat.lo + 1).sum() < 0.65 * (p_mat.K + 1) ** 2

    def test_stacked_product_sums_each_row_alone(self):
        # a stack of vectors gives each vector's product bit for bit
        p_mat = build_P(OperatorParams(10.0, 0.5, 2.0), 200)
        rng = np.random.default_rng(3)
        vs = rng.uniform(-1.0, 1.0, size=(3, p_mat.K + 1))
        stacked = p_mat.times(vs)
        for v, pv in zip(vs, stacked):
            assert np.array_equal(p_mat.times(v), pv)

    def test_product_matches_rows(self):
        p_mat = build_P(OperatorParams(8.0, 1.0, 1.0), 96)
        v = np.cos(np.arange(p_mat.K + 1.0))
        dense = np.array([p_mat.row(k) for k in range(p_mat.K + 1)])
        np.testing.assert_allclose(p_mat.times(v), dense @ v, rtol=0.0, atol=1e-15)

    def test_upper_pass_streams_the_rows(self):
        # K = 5,764: a dense block would take 266 MB, the row pass a few buffers
        params = OperatorParams(5.0, 0.0, 2.0)
        assert adaptive_K(params) == 5764  # loads scipy before the trace starts
        tracemalloc.start()
        try:
            p_mat = build_P_adaptive(params)
            deficit, checks = upper_row_check(p_mat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert 0.0 <= deficit <= 1e-12
        assert [c.which for c in checks] == ["constant", "exponential"]
        assert max(c.vector_residual for c in checks) <= 1e-10

    def test_upper_pass_matches_single_checks(self):
        p_mat = build_P(OperatorParams(10.0, 1.0, 2.0), 160)
        deficit, checks = upper_row_check(p_mat)
        for chk in checks:
            assert eigen_vector_check(p_mat, chk.which) == chk
        upper = _row_deficits(p_mat)[: p_mat.K // 2 + 1]
        assert deficit == pytest.approx(max(float(upper.max()), 0.0), abs=1e-15)


class TestEigenVectors:
    def test_constant_residual_is_deficit(self):
        p_mat = build_P(OperatorParams(10.0, 0.0, 2.0), 128)
        chk = eigen_vector_check(p_mat, "constant")
        upper = _row_deficits(p_mat)[: p_mat.K // 2 + 1]
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
        pv = p_mat.times(v)
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
