import math

import numpy as np
import pytest

from conftest import check_grad, central_diff
from sasv.core import DEFAULT_COST_MODEL, TrialLabel, label_codes
from sasv.losses import (LossWeights, SoftAdcfConfig, bce, bce_logits_mean,
                         combined_loss_v1, combined_loss_v2, soft_adcf)
from sasv.metrics import adcf_at

LBL6 = [TrialLabel.TARGET] * 2 + [TrialLabel.NONTARGET] * 2 + \
    [TrialLabel.SPOOF] * 2


class TestBce:
    def test_zero_logit(self):
        loss, grad = bce(0.0, 1)
        assert loss == pytest.approx(math.log(2.0), abs=1e-15)
        assert grad == pytest.approx(-0.5, abs=1e-15)

    def test_confident_correct_is_cheap(self):
        loss, _ = bce(30.0, 1)
        assert loss < 1e-12
        loss, _ = bce(-30.0, 0)
        assert loss < 1e-12

    def test_confident_wrong_is_linear(self):
        loss, _ = bce(-30.0, 1)
        assert loss == pytest.approx(30.0, abs=1e-12)

    def test_logit_grad_finite_differences(self):
        for x in (-3.0, -0.4, 0.0, 1.7, 5.0):
            for y in (0, 1):
                _, grad = bce(x, y)
                check_grad(grad, central_diff(lambda z: bce(z, y)[0], x))

    def test_probability_kind_matches_logit(self):
        x = 1.3
        p = 1.0 / (1.0 + math.exp(-x))
        l1, _ = bce(x, 1, "logit")
        l2, _ = bce(p, 1, "probability")
        assert l1 == pytest.approx(l2, rel=1e-12)

    def test_probability_clamped(self):
        loss, _ = bce(0.0, 1, "probability")
        assert math.isfinite(loss)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            bce(0.0, 1, "log-odds")

    def test_batch_mean_and_grads(self):
        x = np.array([-2.0, 0.5, 3.0])
        y = np.array([0.0, 1.0, 1.0])
        loss, grads = bce_logits_mean(x, y)
        expected = np.mean([bce(xi, yi)[0] for xi, yi in zip(x, y)])
        assert loss == pytest.approx(expected, rel=1e-14)
        for i in range(3):
            def f(z, i=i):
                xs = x.copy()
                xs[i] = z
                return bce_logits_mean(xs, y)[0]
            check_grad(grads[i], central_diff(f, x[i]))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            bce_logits_mean([], [])


class TestSoftAdcf:
    def test_needs_all_classes(self):
        cfg = SoftAdcfConfig(DEFAULT_COST_MODEL)
        with pytest.raises(ValueError, match="classes"):
            soft_adcf([1.0, 0.0], [TrialLabel.TARGET, TrialLabel.NONTARGET],
                      cfg)

    def test_all_scores_at_tau(self):
        # every sigmoid sits at 1/2: loss is half the total weight
        cfg = SoftAdcfConfig(DEFAULT_COST_MODEL, tau=1.0, normalized=False)
        loss, _, _ = soft_adcf(np.full(6, 1.0), LBL6, cfg)
        total = 1.0 * 0.9 + 10.0 * 0.05 + 20.0 * 0.05
        assert loss == pytest.approx(total / 2.0, abs=1e-12)

    def test_sharp_alpha_matches_hard_metric(self):
        scores = np.array([1.0, 3.0, 0.0, 2.0, -1.0, 2.5])
        cfg = SoftAdcfConfig(DEFAULT_COST_MODEL, tau=2.75, alpha=1000.0,
                             normalized=False)
        loss, _, _ = soft_adcf(scores, LBL6, cfg)
        hard = adcf_at(scores, LBL6, 2.75, DEFAULT_COST_MODEL,
                       normalized=False)
        assert abs(loss - hard) < 1e-6

    def test_normalization_divides_by_default_cost(self):
        scores = np.array([0.4, 1.2, -0.3, 0.8, -1.0, 0.1])
        cfg_u = SoftAdcfConfig(DEFAULT_COST_MODEL, normalized=False)
        cfg_n = SoftAdcfConfig(DEFAULT_COST_MODEL, normalized=True)
        lu, gu, tu = soft_adcf(scores, LBL6, cfg_u)
        ln, gn, tn = soft_adcf(scores, LBL6, cfg_n)
        assert ln == pytest.approx(lu / 0.9, rel=1e-14)
        np.testing.assert_allclose(gn, gu / 0.9, rtol=1e-14)
        assert tn == pytest.approx(tu / 0.9, rel=1e-14)

    def test_score_gradients_finite_differences(self):
        rng = np.random.default_rng(31)
        scores = rng.normal(0, 1.5, 6)
        cfg = SoftAdcfConfig(DEFAULT_COST_MODEL, tau=0.3, alpha=2.0)
        _, grad, _ = soft_adcf(scores, LBL6, cfg)
        for i in range(6):
            def f(z, i=i):
                s = scores.copy()
                s[i] = z
                return soft_adcf(s, LBL6, cfg)[0]
            check_grad(grad[i], central_diff(f, scores[i]))

    def test_tau_gradient_finite_differences(self):
        rng = np.random.default_rng(32)
        scores = rng.normal(0, 1.5, 6)
        _, _, grad_tau = soft_adcf(
            scores, LBL6, SoftAdcfConfig(DEFAULT_COST_MODEL, tau=0.3,
                                         alpha=2.0))

        def f(t):
            return soft_adcf(scores, LBL6,
                             SoftAdcfConfig(DEFAULT_COST_MODEL, tau=t,
                                            alpha=2.0))[0]
        check_grad(grad_tau, central_diff(f, 0.3))

    def test_gradient_signs(self):
        # pushing a target score up lowers the loss; a spoof score up raises it
        scores = np.array([0.5, 0.6, -0.2, 0.1, -0.5, 0.0])
        cfg = SoftAdcfConfig(DEFAULT_COST_MODEL)
        _, grad, _ = soft_adcf(scores, LBL6, cfg)
        assert np.all(grad[:2] < 0)
        assert np.all(grad[2:] > 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SoftAdcfConfig(DEFAULT_COST_MODEL, alpha=0.0)
        with pytest.raises(ValueError):
            SoftAdcfConfig(DEFAULT_COST_MODEL, tau=math.inf)


class TestLossWeights:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossWeights(beta1=-1.0)
        with pytest.raises(ValueError):
            LossWeights(beta1=0.0, beta2=0.0)
        with pytest.raises(ValueError):
            LossWeights(lambda1=0.0, lambda2=0.0, lambda3=0.0)


class TestCombinedV1:
    def test_is_weighted_sum_of_parts(self):
        rng = np.random.default_rng(41)
        s = rng.normal(0, 1, 6)
        cfg = SoftAdcfConfig(DEFAULT_COST_MODEL, tau=0.1)
        w = LossWeights(beta1=0.7, beta2=1.3)
        loss, _, _ = combined_loss_v1(s, LBL6, w, cfg)
        l_adcf, _, _ = soft_adcf(s, LBL6, cfg)
        y = np.array([1, 1, 0, 0, 0, 0], dtype=float)
        l_bce, _ = bce_logits_mean(s, y)
        assert loss == pytest.approx(0.7 * l_adcf + 1.3 * l_bce, rel=1e-13)

    def test_gradients_finite_differences(self):
        rng = np.random.default_rng(42)
        s = rng.normal(0, 1, 6)
        cfg = SoftAdcfConfig(DEFAULT_COST_MODEL, tau=-0.2, alpha=1.5)
        w = LossWeights(beta1=0.7, beta2=1.3)
        _, grad, grad_tau = combined_loss_v1(s, LBL6, w, cfg)
        for i in range(6):
            def f(z, i=i):
                ss = s.copy()
                ss[i] = z
                return combined_loss_v1(ss, LBL6, w, cfg)[0]
            check_grad(grad[i], central_diff(f, s[i]))

        def f_tau(t):
            c = SoftAdcfConfig(DEFAULT_COST_MODEL, tau=t, alpha=1.5)
            return combined_loss_v1(s, LBL6, w, c)[0]
        check_grad(grad_tau, central_diff(f_tau, -0.2))


class TestCombinedV2:
    def test_asv_term_skips_spoof_trials(self):
        rng = np.random.default_rng(51)
        la = rng.normal(0, 1, 6)
        lc = rng.normal(0, 1, 6)
        s = rng.normal(0, 1, 6)
        w = LossWeights(lambda1=0.0, lambda2=1.0, lambda3=0.0)
        cfg = SoftAdcfConfig(DEFAULT_COST_MODEL)
        loss, _, grad_la, _, _ = combined_loss_v2(la, lc, s, LBL6, w, cfg)
        expected, _ = bce_logits_mean(la[:4], np.array([1, 1, 0, 0],
                                                       dtype=float))
        assert loss == pytest.approx(expected, rel=1e-13)
        np.testing.assert_array_equal(grad_la[4:], 0.0)

    def test_gradients_finite_differences(self):
        rng = np.random.default_rng(52)
        la = rng.normal(0, 1, 6)
        lc = rng.normal(0, 1, 6)
        s = rng.normal(0, 1, 6)
        w = LossWeights(lambda1=0.9, lambda2=0.6, lambda3=1.1)
        cfg = SoftAdcfConfig(DEFAULT_COST_MODEL, tau=0.2, alpha=1.4)
        _, gs, gla, glc, gtau = combined_loss_v2(la, lc, s, LBL6, w, cfg)
        for i in range(6):
            def f_s(z, i=i):
                ss = s.copy()
                ss[i] = z
                return combined_loss_v2(la, lc, ss, LBL6, w, cfg)[0]

            def f_la(z, i=i):
                xs = la.copy()
                xs[i] = z
                return combined_loss_v2(xs, lc, s, LBL6, w, cfg)[0]

            def f_lc(z, i=i):
                xs = lc.copy()
                xs[i] = z
                return combined_loss_v2(la, xs, s, LBL6, w, cfg)[0]
            check_grad(gs[i], central_diff(f_s, s[i]))
            check_grad(gla[i], central_diff(f_la, la[i]))
            check_grad(glc[i], central_diff(f_lc, lc[i]))

        def f_tau(t):
            c = SoftAdcfConfig(DEFAULT_COST_MODEL, tau=t, alpha=1.4)
            return combined_loss_v2(la, lc, s, LBL6, w, c)[0]
        check_grad(gtau, central_diff(f_tau, 0.2))

    def test_needs_bonafide_for_asv_term(self):
        w = LossWeights(lambda1=0.0, lambda2=1.0, lambda3=0.0)
        cfg = SoftAdcfConfig(DEFAULT_COST_MODEL)
        spoof_only = [TrialLabel.SPOOF] * 3
        with pytest.raises(ValueError, match="bonafide"):
            combined_loss_v2([1.0] * 3, [1.0] * 3, [1.0] * 3, spoof_only, w,
                             cfg)


class TestLabelCodes:
    def test_codes_give_the_same_bits_as_labels(self):
        rng = np.random.default_rng(53)
        labels = [list(TrialLabel)[i] for i in rng.permutation(30) % 3]
        codes = label_codes(labels)
        la, lc, s = rng.normal(0, 2, (3, 30))
        cfg = SoftAdcfConfig(DEFAULT_COST_MODEL, tau=0.3)
        w = LossWeights(0.7, 0.4, 0.5, 0.8, 1.2)
        for by_label, by_code in (
                (soft_adcf(s, labels, cfg), soft_adcf(s, codes, cfg)),
                (combined_loss_v1(s, labels, w, cfg),
                 combined_loss_v1(s, codes, w, cfg)),
                (combined_loss_v2(la, lc, s, labels, w, cfg),
                 combined_loss_v2(la, lc, s, codes, w, cfg))):
            for x, y in zip(by_label, by_code):
                np.testing.assert_array_equal(x, y)
