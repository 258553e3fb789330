import math
import warnings

import numpy as np
import pytest

from smld.errors import ParameterError
from smld.special import (
    kummer_scaled,
    log_gamma,
    log_poisson_weights,
    pochhammer,
    poisson_tail,
    poisson_weight_log,
    reg_lower_gamma,
)

from oracle_utils import mp_kummer_scaled, mp_reg_lower_gamma


class TestLogGamma:
    def test_integers(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_half(self):
        # ln sqrt(pi), arbitrary-precision value
        assert log_gamma(0.5) == pytest.approx(0.5723649429247001, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ParameterError):
            log_gamma(0.0)
        with pytest.raises(ParameterError):
            log_gamma(-1.3)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.7, 0) == 1.0

    def test_factorial(self):
        assert pochhammer(1.0, 3) == 6.0

    def test_direct_product(self):
        assert pochhammer(2.5, 2) == pytest.approx(2.5 * 3.5, rel=1e-15)

    def test_negative_base(self):
        assert pochhammer(-2.0, 3) == 0.0  # hits zero factor

    def test_bad_order(self):
        with pytest.raises(ParameterError):
            pochhammer(1.0, -1)


class TestRegLowerGamma:
    def test_exponential_case(self):
        assert reg_lower_gamma(1.0, math.log(2.0)) == pytest.approx(0.5, rel=1e-13)

    def test_zero(self):
        assert reg_lower_gamma(0.7, 0.0) == 0.0

    def test_erf_value(self):
        assert reg_lower_gamma(0.5, 1.0) == pytest.approx(0.8427007929497149, rel=1e-11)

    @pytest.mark.parametrize("s", [0.3, 0.5, 1.0, 2.5, 17.0, 250.0])
    def test_against_oracle(self, s):
        for z in [0.01, 0.5, s, s + 1, 3 * s + 10]:
            assert reg_lower_gamma(s, z) == pytest.approx(mp_reg_lower_gamma(s, z), rel=1e-11)

    @pytest.mark.parametrize("s", [0.4, 1.0, 7.3])
    def test_monotone_and_bounded(self, s):
        zs = np.linspace(0.0, 8 * s + 20, 200)
        vals = [reg_lower_gamma(s, z) for z in zs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ParameterError):
            reg_lower_gamma(0.0, 1.0)
        with pytest.raises(ParameterError):
            reg_lower_gamma(1.0, -0.1)


class TestKummerScaled:
    def test_a_equals_b(self):
        # 1F1(a; a; z) = e^z
        assert kummer_scaled(2.0, 2.0, 5.0) == pytest.approx(1.0, rel=1e-14)

    def test_empty_series(self):
        assert kummer_scaled(3.0, 1.5, 0.0) == 1.0

    def test_integer_shift_identity(self):
        # 1F1(2; 1; z) = e^z (1 + z)
        assert kummer_scaled(2.0, 1.0, 1.0) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 6.0])
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("z", [0.1, 1.0, 10.0, 100.0])
    def test_oracle_grid(self, a, b, z):
        if a < b or (a - b) % 1:
            # only the finite-sum regime a - b in {0, 1, 2, ...} is defined
            with pytest.raises(ParameterError) as err:
                kummer_scaled(a, b, z)
            assert err.value.code == "kummer_shift_domain"
            return
        assert kummer_scaled(a, b, z) == pytest.approx(mp_kummer_scaled(a, b, z), rel=1e-9)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.75])
    @pytest.mark.parametrize("z", [0.4, 7.0, 90.0])
    def test_contiguous_relation(self, alpha, z):
        # -r F_{r-1} + (alpha + 2r + 1 + z) F_r - (alpha + r + 1) F_{r+1} = 0
        # checked on ratios so the e^z factor cancels.
        for r in (1, 2, 4):
            f_prev = kummer_scaled(alpha + r, alpha + 1.0, z)
            f_mid = kummer_scaled(alpha + r + 1.0, alpha + 1.0, z)
            f_next = kummer_scaled(alpha + r + 2.0, alpha + 1.0, z)
            resid = -r * f_prev + (alpha + 2 * r + 1 + z) * f_mid - (alpha + r + 1) * f_next
            scale = max(abs(r * f_prev), abs((alpha + 2 * r + 1 + z) * f_mid))
            assert abs(resid) / scale < 1e-9

    def test_domain(self):
        with pytest.raises(ParameterError):
            kummer_scaled(1.0, 0.0, 1.0)
        with pytest.raises(ParameterError):
            kummer_scaled(1.0, 1.0, -1.0)


class TestPoissonWeights:
    def test_at_origin(self):
        assert poisson_weight_log(5.0, 0.0, 0) == 0.0
        assert poisson_weight_log(5.0, 0.0, 3) == float("-inf")

    def test_single_weight(self):
        assert poisson_weight_log(1.0, 1.0, 1) == pytest.approx(-1.0, abs=1e-14)

    def test_normalization_modest(self):
        total = math.fsum(math.exp(poisson_weight_log(10.0, 2.0, k)) for k in range(200))
        assert abs(total - 1.0) <= 1e-14

    def test_normalization_large_argument(self):
        total = math.fsum(math.exp(poisson_weight_log(200.0, 5.0, k)) for k in range(1600))
        assert abs(total - 1.0) <= 1e-13

    @pytest.mark.parametrize("n,x,K", [(1.0, 0.0, 0), (10.0, 1.0, 0), (10.0, 2.0, 25),
                                       (200.0, 5.0, 1100), (5.0, 0.3, 3)])
    def test_partial_sum_plus_tail(self, n, x, K):
        part = math.fsum(math.exp(poisson_weight_log(n, x, k)) for k in range(K + 1))
        assert abs(part + poisson_tail(n, x, K) - 1.0) <= 1e-13

    def test_tail_values(self):
        assert poisson_tail(1.0, 0.0, 0) == 0.0
        assert poisson_tail(10.0, 1.0, 0) == pytest.approx(1.0 - math.exp(-10.0), rel=1e-13)

    def test_tail_monotone(self):
        tails = [poisson_tail(7.0, 1.3, K) for K in range(0, 40)]
        assert all(b <= a for a, b in zip(tails, tails[1:]))

    def test_domain(self):
        with pytest.raises(ParameterError):
            poisson_weight_log(0.0, 1.0, 0)
        with pytest.raises(ParameterError):
            poisson_weight_log(1.0, -1.0, 0)
        with pytest.raises(ParameterError):
            poisson_tail(1.0, 1.0, -2)

    @pytest.mark.parametrize("lam", [0.3, 5.0, 37.2, 1e3, 1.68e4])
    def test_array_weights_match_scalar(self, lam):
        # weighted relative error sum |w - w_ref| / sum w_ref over the bulk
        # and both tails; k = 0 must not warn (it would take log1p(-1))
        k = np.arange(int(lam + 40.0 * math.sqrt(lam + 1.0) + 40.0))
        ref = np.exp([poisson_weight_log(lam, 1.0, int(j)) for j in k])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = np.exp(log_poisson_weights(lam, k))
        assert np.sum(np.abs(w - ref)) <= 1e-14 * np.sum(ref)

    def test_array_weights_at_origin(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = log_poisson_weights(np.array([[0.0], [2.0]]), np.arange(3))
        assert w[0].tolist() == [0.0, float("-inf"), float("-inf")]
        assert w[1, 0] == -2.0

    def test_array_domain(self):
        with pytest.raises(ParameterError):
            log_poisson_weights(-1.0, np.arange(3))
        with pytest.raises(ParameterError):
            log_poisson_weights(1.0, np.array([0.5]))
