import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import check_grad
from sasv.core import CostModel, DEFAULT_COST_MODEL
from sasv.decision import (CalibrationFitError, CalibrationParams,
                           FusionConfig, asv_bayes_threshold, bayes_accept,
                           calibrate, fit_calibration, fuse, fuse_linear,
                           fuse_nonlinear, fuse_vjp, sigmoid, _logistic_nll)

finite = st.floats(-30.0, 30.0, allow_nan=False)


class TestCalibrate:
    def test_affine_map(self):
        p = CalibrationParams(-1.0, 2.0)
        assert calibrate(3.0, p) == pytest.approx(5.0)
        np.testing.assert_allclose(calibrate([0.0, 1.0], p), [-1.0, 1.0])

    def test_nonfinite_params_rejected(self):
        with pytest.raises(ValueError):
            CalibrationParams(math.inf, 1.0)
        with pytest.raises(ValueError):
            CalibrationParams(0.0, math.nan)


class TestFitCalibration:
    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="both classes"):
            fit_calibration([1.0, 2.0], [1, 1])

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            fit_calibration([1.0, 2.0], [1])

    def test_uninformative_scores_give_zero_scale(self):
        # identical score distributions in both classes: MLE is w1=0 and
        # w0 = logit of the base rate
        s = np.array([0.0, 1.0, 2.0, 3.0] * 2)
        y = np.array([0] * 4 + [1] * 4)
        p = fit_calibration(s, y)
        assert abs(p.w1) < 1e-6
        assert abs(p.w0) < 1e-6

    def test_nll_beats_grid_oracle(self):
        rng = np.random.default_rng(5)
        s = np.concatenate([rng.normal(-1, 1.2, 80), rng.normal(1, 1.2, 80)])
        y = np.concatenate([np.zeros(80), np.ones(80)])
        fit = fit_calibration(s, y)
        fitted_nll = _logistic_nll(fit.w0, fit.w1, s, y)
        grid_nll = min(
            _logistic_nll(w0, w1, s, y)
            for w0 in np.linspace(-3, 3, 121)
            for w1 in np.linspace(0, 5, 101))
        assert fitted_nll <= grid_nll + 1e-9

    def test_recovers_identity_on_true_llrs(self):
        # scores already equal to the LLR of N(+1,1) vs N(-1,1): the ideal
        # calibration is the identity map
        rng = np.random.default_rng(0)
        n = 50000
        x = np.concatenate([rng.normal(-1, 1, n), rng.normal(1, 1, n)])
        y = np.concatenate([np.zeros(n), np.ones(n)])
        llr = 2.0 * x  # log N(x;1,1)/N(x;-1,1)
        p = fit_calibration(llr, y)
        assert abs(p.w1 - 1.0) < 0.05
        assert abs(p.w0) < 0.05

    def test_separable_data_terminates_with_large_scale(self):
        s = np.array([-2.0, -1.0, 1.0, 2.0])
        y = np.array([0, 0, 1, 1])
        p = fit_calibration(s, y)
        # scale grows until the gradient underflows or hits the cap
        assert 10.0 < p.w1 <= 50.0

    def test_separable_small_margin_hits_cap(self):
        # a tiny score gap would need w1 ~ 1e3 to saturate; the cap stops it
        s = np.array([-0.01, -0.005, 0.005, 0.01])
        y = np.array([0, 0, 1, 1])
        p = fit_calibration(s, y)
        assert p.w1 == pytest.approx(50.0)

    def test_monotone_direction(self):
        rng = np.random.default_rng(3)
        s = np.concatenate([rng.normal(2, 1, 50), rng.normal(-2, 1, 50)])
        y = np.concatenate([np.zeros(50), np.ones(50)])
        p = fit_calibration(s, y)
        assert p.w1 < 0  # class 1 sits at lower scores here


class TestLinearFusion:
    def test_scale(self):
        assert fuse_linear(2.0, 1.0) == pytest.approx(3.0 / math.sqrt(6.0),
                                                      rel=1e-15)

    def test_vectorized(self):
        out = fuse_linear(np.array([0.0, 6.0]), np.array([6.0, 0.0]))
        np.testing.assert_allclose(out, 6.0 / math.sqrt(6.0))


class TestNonlinearFusion:
    def test_worked_value(self):
        # direct (unshifted) evaluation as the oracle
        expected = -math.log(0.5 * math.exp(-2.0) + 0.5 * math.exp(-0.0))
        assert fuse_nonlinear(2.0, 0.0, 0.5) == pytest.approx(expected,
                                                              abs=1e-15)
        assert expected == pytest.approx(0.5662, abs=1e-4)

    def test_endpoint_exactness(self):
        assert fuse_nonlinear(1.23, -9.0, 0.0) == 1.23
        assert fuse_nonlinear(1.23, -9.0, 1.0) == -9.0

    def test_equal_inputs_fixed_point(self):
        for rho in (0.1, 0.5, 0.9):
            assert fuse_nonlinear(3.7, 3.7, rho) == pytest.approx(3.7,
                                                                  abs=1e-12)

    def test_extreme_inputs_no_overflow(self):
        out = fuse_nonlinear(-800.0, 900.0, 0.5)
        assert math.isfinite(out)
        # dominated by the saturating -800 branch
        assert out == pytest.approx(-800.0 + math.log(2.0), abs=1e-9)

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            fuse_nonlinear(0.0, 0.0, 1.5)

    @given(finite, finite, st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_bounded_by_inputs(self, a, b, rho):
        f = fuse_nonlinear(a, b, rho)
        assert min(a, b) - 1e-9 <= f <= max(a, b) + 1e-9

    @given(finite, finite, st.floats(0.01, 0.99), st.floats(0.001, 5.0))
    @settings(max_examples=200)
    def test_monotone_in_each_input(self, a, b, rho, eps):
        f = fuse_nonlinear(a, b, rho)
        assert fuse_nonlinear(a + eps, b, rho) >= f - 1e-12
        assert fuse_nonlinear(a, b + eps, rho) >= f - 1e-12

    def test_fuse_dispatch(self):
        assert fuse(1.0, 2.0, FusionConfig("linear")) == \
            pytest.approx(fuse_linear(1.0, 2.0))
        assert fuse(1.0, 2.0, FusionConfig("nonlinear", 0.3)) == \
            pytest.approx(fuse_nonlinear(1.0, 2.0, 0.3))

    def test_fusion_config_validation(self):
        with pytest.raises(ValueError):
            FusionConfig("geometric")
        with pytest.raises(ValueError):
            FusionConfig("nonlinear", -0.1)


class TestSigmoid:
    def test_matches_definition_without_overflow(self):
        z = np.array([-800.0, -30.0, -1.0, 0.0, 2.5, 800.0])
        with np.errstate(over="raise"):
            out = sigmoid(z)
        np.testing.assert_allclose(out, [0.0, 1 / (1 + math.exp(30.0)),
                                         1 / (1 + math.e), 0.5,
                                         1 / (1 + math.exp(-2.5)), 1.0],
                                   rtol=1e-15)

    def test_scalar_gives_float(self):
        assert type(sigmoid(0.0)) is float and sigmoid(0.0) == 0.5


class TestFuseVjp:
    @pytest.mark.parametrize("mode", ["linear", "nonlinear"])
    def test_matches_finite_differences(self, mode):
        rng = np.random.default_rng(8)
        a, b, g = rng.normal(0, 3, (3, 10))
        config = FusionConfig(mode, 0.3)
        g_a, g_b, g_rho = fuse_vjp(a, b, config, g)
        h = 1e-6
        check_grad(g_a, g * (fuse(a + h, b, config)
                             - fuse(a - h, b, config)) / (2 * h))
        check_grad(g_b, g * (fuse(a, b + h, config)
                             - fuse(a, b - h, config)) / (2 * h))
        if mode == "linear":
            assert g_rho == 0.0
        else:
            check_grad(g_rho, np.sum(g * (fuse_nonlinear(a, b, 0.3 + h)
                                          - fuse_nonlinear(a, b, 0.3 - h)))
                       / (2 * h))


class TestBayesPolicy:
    def test_uniform_priors_unit_costs(self):
        cm = CostModel.with_renormalized_priors(1, 1, 1, 1, 1, 1)
        # with equal LLRs the rule reduces to llr > log 2
        assert bayes_accept(0.70, 0.70, cm)
        assert not bayes_accept(0.69, 0.69, cm)

    def test_confident_spoof_blocks_acceptance(self):
        assert not bayes_accept(100.0, -100.0, DEFAULT_COST_MODEL)

    def test_confident_both_accepts(self):
        assert bayes_accept(20.0, 20.0, DEFAULT_COST_MODEL)

    def test_requires_positive_miss_cost(self):
        cm = CostModel(c_miss_tar=0.0)
        with pytest.raises(ValueError):
            bayes_accept(0.0, 0.0, cm)

    def test_spoof_free_reduction(self):
        cm = CostModel(pi_tar=0.9, pi_non=0.1, pi_spf=0.0)
        tau = asv_bayes_threshold(cm)
        rng = np.random.default_rng(11)
        for a in rng.normal(tau, 3.0, 500):
            assert bayes_accept(a, rng.normal(0, 5), cm) == (a > tau)

    def test_asv_threshold_flat_prior(self):
        cm = CostModel(1.0, 10.0, 20.0, 0.5, 0.25, 0.25)
        assert asv_bayes_threshold(cm) == pytest.approx(math.log(10.0),
                                                        abs=1e-12)

    def test_asv_threshold_default_model(self):
        # log(10) - log(9)
        expected = math.log(10.0) - math.log(9.0)
        assert asv_bayes_threshold(DEFAULT_COST_MODEL) == \
            pytest.approx(expected, abs=1e-12)

    def test_high_stakes_prior_shift(self):
        cm = CostModel(1.0, 10.0, 20.0, 0.995, 0.004, 0.001)
        assert cm.rho == pytest.approx(0.2, abs=1e-12)
        assert cm.beta == pytest.approx(199.0, abs=1e-9)
        # huge target prior makes the policy lenient at modest LLRs
        assert bayes_accept(0.0, 0.0, cm)
