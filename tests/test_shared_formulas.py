"""Each shared formula gives the bits of the copies it replaced.

The oracles in conftest are those copies: the stable logistic loss written
out, bayes_accept's own log-sum-exp, the unweighted cosine and the a-DCF's
cost x prior weights written out, the combined losses with each weighted
term written out, and the logit of the Bayes threshold written with log.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (inline_bce_logits_mean, inline_combined_loss_v1,
                      inline_combined_loss_v2, inline_default_system_cost,
                      inline_logistic_nll, inline_weight_adcf,
                      inline_weight_min_adcf, inline_weight_soft_adcf,
                      libm_bce_logit, two_term_bayes_accept,
                      unweighted_cosine_score)
from sasv.core import CostModel
from sasv.decision import _logistic_nll, asv_bayes_threshold, \
    bayes_accept, logit, sigmoid
from sasv.losses import LossWeights, SoftAdcfConfig, bce, bce_logits_mean, \
    combined_loss_v1, combined_loss_v2, soft_adcf
from sasv.metrics import adcf_at, default_system_cost, min_adcf
from sasv.nn import cosine_score

COST = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
PRIOR = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
WIDE = st.floats(-1e300, 1e300, allow_nan=False)
BITS = st.sampled_from([0.0, 1.0])


@st.composite
def cost_models(draw, miss_positive=False):
    c_miss = draw(st.floats(1e-3, 1e3) if miss_positive else COST)
    c_non, c_spf = draw(COST), draw(COST)
    assume(c_miss + c_non + c_spf > 0)
    p_tar, p_non, p_spf = draw(st.floats(1e-3, 1.0)), draw(PRIOR), draw(PRIOR)
    assume(p_non + p_spf > 0)
    return CostModel.with_renormalized_priors(c_miss, c_non, c_spf,
                                              p_tar, p_non, p_spf)


@st.composite
def labelled_scores(draw, scores):
    """(scores, int8 codes) with every class present."""
    rows = draw(st.lists(st.tuples(scores, st.sampled_from([0, 1, 2])),
                         min_size=3, max_size=40))
    rows += [(rows[0][0], 0), (rows[1][0], 1), (rows[2][0], 2)]
    return (np.array([s for s, _ in rows]),
            np.array([c for _, c in rows], dtype=np.int8))


class TestLogisticLoss:
    @settings(max_examples=200, deadline=None)
    @given(w0=st.floats(-1e150, 1e150), w1=st.floats(-1e150, 1e150),
           rows=st.lists(st.tuples(st.floats(-1e150, 1e150), BITS),
                         min_size=1, max_size=30))
    def test_calibration_nll(self, w0, w1, rows):
        s = np.array([x for x, _ in rows])
        y = np.array([b for _, b in rows])
        with np.errstate(all="ignore"):
            new, old = _logistic_nll(w0, w1, s, y), \
                inline_logistic_nll(w0, w1, s, y)
        assert np.float64(new).tobytes() == np.float64(old).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(WIDE, BITS), min_size=1, max_size=30))
    def test_bce_logits_mean(self, rows):
        x = np.array([v for v, _ in rows])
        y = np.array([b for _, b in rows])
        with np.errstate(all="ignore"):
            loss, grad = bce_logits_mean(x, y)
            loss0, grad0 = inline_bce_logits_mean(x, y)
        assert np.float64(loss).tobytes() == np.float64(loss0).tobytes()
        assert grad.tobytes() == grad0.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(x=WIDE, y=st.sampled_from([0, 1]))
    def test_scalar_bce_is_the_batch_kernel(self, x, y):
        # the scalar loss now runs the numpy kernel; libm's exp and log1p
        # round differently, by at most two units in the last place of
        # the loss over 240,000 sampled pairs
        with np.errstate(all="ignore"):
            loss = bce(x, y)[0]
            assert loss == bce_logits_mean([x], [y])[0]
        old = libm_bce_logit(x, y)
        assert abs(loss - old) <= 2 * math.ulp(old)


class TestBayesAccept:
    @settings(max_examples=200, deadline=None)
    @given(cm=cost_models(miss_positive=True),
           pairs=st.lists(st.tuples(st.floats(allow_nan=False),
                                    st.floats(allow_nan=False)),
                          min_size=1, max_size=40),
           scalar=st.booleans())
    def test_bits_of_the_two_term_form(self, cm, pairs, scalar):
        a = np.array([p for p, _ in pairs])
        b = np.array([q for _, q in pairs])
        if scalar:
            a, b = a[0], b[0]
        with np.errstate(all="ignore"):
            new = bayes_accept(a, b, cm)
            old = two_term_bayes_accept(a, b, cm)
        assert type(new) is type(old)
        np.testing.assert_array_equal(new, old)

    @settings(max_examples=200, deadline=None)
    @given(costs=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), COST),
           priors=st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0),
                            PRIOR),
           share=st.floats(0.05, 0.95))
    def test_bits_at_the_decision_boundary(self, costs, priors, share):
        """ASV LLRs a few ulps either side of the boundary, where a last-bit
        change of the policy's left-hand side flips the decision."""
        cm = CostModel.with_renormalized_priors(*costs, *priors)
        u = (1.0 - cm.rho) * cm.c_fa_non / cm.c_miss_tar
        v = cm.rho * cm.c_fa_spf / cm.c_miss_tar
        if v == 0.0:
            share = 1.0
        # u e^-a0 = share beta and v e^-b = (1 - share) beta: on the boundary
        a0 = math.log(u) - math.log(share * cm.beta)
        b = math.log(v) - math.log((1.0 - share) * cm.beta) if v else 0.0
        a = a0 + np.arange(-256, 257) * math.ulp(a0)
        with np.errstate(all="ignore"):
            new = bayes_accept(a, b, cm)
            old = two_term_bayes_accept(a, b, cm)
        np.testing.assert_array_equal(new, old)


class TestCosine:
    @settings(max_examples=200, deadline=None)
    @given(shape=st.tuples(st.integers(0, 5), st.integers(1, 8)),
           data=st.data())
    def test_bits_of_the_unweighted_form(self, shape, data):
        n, d = shape
        values = st.floats(-1e6, 1e6)
        size = d if n == 0 else n * d  # n == 0: one single vector
        a = np.array(data.draw(st.lists(values, min_size=size,
                                        max_size=size)))
        b = np.array(data.draw(st.lists(values, min_size=size,
                                        max_size=size)))
        if n:
            a, b = a.reshape(n, d), b.reshape(n, d)
        try:
            old = unweighted_cosine_score(a, b)
        except ValueError:
            old = None
        if old is None:
            try:
                cosine_score(a, b)
            except ValueError as exc:
                assert "zero-norm" in str(exc)
            else:
                raise AssertionError("zero-norm input accepted")
            return
        new = cosine_score(a, b)
        assert type(new) is type(old)
        assert np.asarray(new).tobytes() == np.asarray(old).tobytes()


class TestAdcfWeights:
    @settings(max_examples=200, deadline=None)
    @given(cm=cost_models(), data=labelled_scores(st.floats(-50.0, 50.0)),
           tau=st.floats(-10.0, 10.0), alpha=st.floats(0.1, 10.0),
           normalized=st.booleans())
    def test_soft_adcf(self, cm, data, tau, alpha, normalized):
        normalized &= inline_default_system_cost(cm) > 0
        cfg = SoftAdcfConfig(cm, tau=tau, alpha=alpha, normalized=normalized)
        scores, codes = data
        loss, grad, grad_tau = soft_adcf(scores, codes, cfg)
        loss0, grad0, grad_tau0 = inline_weight_soft_adcf(scores, codes, cfg)
        assert (loss, grad_tau) == (loss0, grad_tau0)
        assert grad.tobytes() == grad0.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(cm=cost_models(),
           data=labelled_scores(st.one_of(st.sampled_from([-1.0, 0.0, 2.5]),
                                          st.floats(-1e6, 1e6))),
           normalized=st.booleans())
    def test_min_and_fixed_threshold_adcf(self, cm, data, normalized):
        normalized &= inline_default_system_cost(cm) > 0
        if normalized:
            assert default_system_cost(cm) == inline_default_system_cost(cm)
        scores, codes = data
        report = min_adcf(scores, codes, cm, normalized)
        assert report.min_adcf == inline_weight_min_adcf(scores, codes, cm,
                                                         normalized)
        rates = report.rates_at_min
        assert adcf_at(scores, codes, report.min_threshold, cm,
                       normalized) == inline_weight_adcf(
            cm, rates.p_miss_tar, rates.p_fa_non, rates.p_fa_spf, normalized)


def same_bits(new, old):
    return all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
               for a, b in zip(new, old, strict=True))


WEIGHT = st.sampled_from([0.0, 0.3, 1.0, 2.5])


class TestCombinedLosses:
    @settings(max_examples=200, deadline=None)
    @given(cm=cost_models(), data=labelled_scores(st.floats(-50.0, 50.0)),
           llrs=st.lists(st.floats(-50.0, 50.0), min_size=86, max_size=86),
           tau=st.floats(-10.0, 10.0), weights=st.tuples(*[WEIGHT] * 5))
    def test_terms_give_the_bits_of_the_written_out_losses(
            self, cm, data, llrs, tau, weights):
        assume(any(weights[:2]) and any(weights[2:]))
        w = LossWeights(*weights)
        cfg = SoftAdcfConfig(cm, tau=tau,
                             normalized=inline_default_system_cost(cm) > 0)
        s, codes = data
        la, lc = np.array(llrs[:s.size]), np.array(llrs[-s.size:])
        assert same_bits(combined_loss_v1(s, codes, w, cfg),
                         inline_combined_loss_v1(s, codes, w, cfg))
        assert same_bits(combined_loss_v2(la, lc, s, codes, w, cfg),
                         inline_combined_loss_v2(la, lc, s, codes, w, cfg))


class TestLogit:
    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(-30.0, 2.0))
    def test_inverts_sigmoid(self, x):
        # above 2, 1 - sigmoid(x) has lost too many bits to invert
        assert logit(sigmoid(x)) == pytest.approx(x, rel=1e-9, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(cm=cost_models(miss_positive=True))
    def test_bayes_threshold_moves_at_most_its_last_bits(self, cm):
        # log(1 - p) rounds 1 - p first; log1p(-p) does not
        assume(cm.c_fa_non > 0)
        log_cost = math.log(cm.c_fa_non / cm.c_miss_tar)
        new = asv_bayes_threshold(cm)
        old = log_cost - (math.log(cm.pi_tar) - math.log(1.0 - cm.pi_tar))
        scale = 1.0 + abs(log_cost) + abs(logit(cm.pi_tar))
        assert abs(new - old) <= 4 * math.ulp(scale)
