import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_force_min_adcf, naive_adcf, random_three_class
from sasv.core import CostModel, DEFAULT_COST_MODEL, TrialLabel
from sasv.metrics import (AdcfReport, ErrorRates, _class_weights, _midpoints,
                          actual_adcf, adcf_at, candidate_thresholds,
                          default_system_cost, det_points, eer, error_rates,
                          min_adcf, split_by_class)

# the worked three-class instance used throughout this file
W_SCORES = np.array([1.0, 3.0, 0.0, 2.0, -1.0, 2.5])
W_LABELS = [TrialLabel.TARGET] * 2 + [TrialLabel.NONTARGET] * 2 + \
    [TrialLabel.SPOOF] * 2


class TestErrorRates:
    def test_tie_counts_as_false_alarm_not_miss(self):
        scores = [1.0, 1.0, 1.0]
        labels = [TrialLabel.TARGET, TrialLabel.NONTARGET, TrialLabel.SPOOF]
        r = error_rates(scores, labels, 1.0)
        assert r.p_miss_tar == 0.0
        assert r.p_fa_non == 1.0 and r.p_fa_spf == 1.0

    def test_worked_instance(self):
        r = error_rates(W_SCORES, W_LABELS, 2.75)
        assert r.p_miss_tar == 0.5
        assert r.p_fa_non == 0.0
        assert r.p_fa_spf == 0.0

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="empty class"):
            error_rates([1.0, 2.0], [TrialLabel.TARGET, TrialLabel.SPOOF],
                        0.0)

    def test_split_by_class_length_check(self):
        with pytest.raises(ValueError):
            split_by_class([1.0], W_LABELS)


class TestAdcf:
    def test_default_normalizer(self):
        # min(1*0.9, 10*0.05 + 20*0.05) = 0.9
        assert default_system_cost(DEFAULT_COST_MODEL) == pytest.approx(0.9)

    def test_accept_all_cost(self):
        tau = W_SCORES.min() - 1.0
        val = adcf_at(W_SCORES, W_LABELS, tau, DEFAULT_COST_MODEL,
                      normalized=False)
        assert val == pytest.approx(1.5, abs=1e-12)

    def test_worked_min(self):
        rep = min_adcf(W_SCORES, W_LABELS, DEFAULT_COST_MODEL,
                       normalized=False)
        assert rep.min_adcf == pytest.approx(0.45, abs=1e-12)
        assert 2.5 < rep.min_threshold < 3.0
        rep_n = min_adcf(W_SCORES, W_LABELS, DEFAULT_COST_MODEL,
                         normalized=True)
        assert rep_n.min_adcf == pytest.approx(0.50, abs=1e-12)
        assert rep_n.rates_at_min.p_miss_tar == 0.5

    def test_identical_scores_minimum(self):
        # all scores equal: reject-all (tau=+inf) wins with cost pi_tar
        scores = [2.0] * 6
        rep = min_adcf(scores, W_LABELS, DEFAULT_COST_MODEL, normalized=False)
        assert rep.min_adcf == pytest.approx(0.9, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            scores, labels = random_three_class(rng)
            for normalized in (False, True):
                rep = min_adcf(scores, labels, DEFAULT_COST_MODEL,
                               normalized=normalized)
                oracle = brute_force_min_adcf(
                    list(scores), labels, DEFAULT_COST_MODEL, normalized,
                    extra_grid=np.linspace(scores.min() - 1,
                                           scores.max() + 1, 2000))
                assert rep.min_adcf <= oracle + 1e-12
                # and the reported threshold really achieves the value
                assert naive_adcf(list(scores), labels, rep.min_threshold,
                                  DEFAULT_COST_MODEL, normalized) == \
                    pytest.approx(rep.min_adcf, abs=1e-12)

    def test_actual_at_least_min(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            scores, labels = random_three_class(rng)
            rep = min_adcf(scores, labels, DEFAULT_COST_MODEL)
            for tau in rng.normal(0, 2, 5):
                assert actual_adcf(scores, labels, tau,
                                   DEFAULT_COST_MODEL) >= \
                    rep.min_adcf - 1e-12

    def test_actual_requires_finite_threshold(self):
        with pytest.raises(ValueError):
            actual_adcf(W_SCORES, W_LABELS, math.inf, DEFAULT_COST_MODEL)

    @pytest.mark.parametrize("scores", [
        [2.0, math.nan, 1.0, 0.0], [math.nan] * 4,
        [2.0, 1.0, math.nan, -math.inf], [math.inf, -1.0, 1.0, math.nan]])
    def test_nan_score_rejected(self, scores):
        # a NaN used to be counted as a score above every threshold
        with pytest.raises(ValueError, match="^min a-DCF: a score is NaN$"):
            min_adcf(scores, np.array([0, 1, 1, 2], dtype=np.int8),
                     DEFAULT_COST_MODEL)

    def test_min_requires_all_classes(self):
        with pytest.raises(ValueError, match="classes"):
            min_adcf([1.0, 2.0],
                     [TrialLabel.TARGET, TrialLabel.NONTARGET],
                     DEFAULT_COST_MODEL)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        scores, labels = random_three_class(rng)
        base = min_adcf(scores, labels, DEFAULT_COST_MODEL).min_adcf
        assert min_adcf(3.0 * scores - 7.0, labels,
                        DEFAULT_COST_MODEL).min_adcf == base
        assert min_adcf(np.tanh(scores / 10.0), labels,
                        DEFAULT_COST_MODEL).min_adcf == base

    def test_custom_cost_model(self):
        cm = CostModel(2.0, 1.0, 1.0, 0.5, 0.3, 0.2)
        rng = np.random.default_rng(3)
        scores, labels = random_three_class(rng)
        rep = min_adcf(scores, labels, cm, normalized=False)
        oracle = brute_force_min_adcf(list(scores), labels, cm)
        assert rep.min_adcf == pytest.approx(oracle, abs=1e-12)

    def test_candidate_thresholds_shape(self):
        cands = candidate_thresholds([1.0, 2.0, 2.0, 5.0])
        assert cands[0] == -np.inf and cands[-1] == np.inf
        np.testing.assert_allclose(cands[1:-1], [1.5, 3.5])


DBL_MAX = sys.float_info.max
TIE_PRONE = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
             1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), -1.0,
             DBL_MAX, np.nextafter(DBL_MAX, 0.0), -DBL_MAX, 1.6e308, 1.7e308,
             -1.7e308, np.inf, -np.inf]
scores_st = st.one_of(
    st.sampled_from(TIE_PRONE),
    st.floats(allow_nan=False, allow_infinity=True),
    st.integers(-3, 3).map(float))


def sweep_by_brute_force(scores, codes, cm, normalized):
    """a-DCF at every candidate threshold by direct counting, combined in
    the metric's own operation order so that the values match bit for bit."""
    cands = candidate_thresholds(scores)
    tar, non, spf = (scores[codes == c] for c in (0, 1, 2))
    below = [np.array([np.count_nonzero(x < t) for t in cands])
             for x in (tar, non, spf)]
    values = (cm.c_miss_tar * cm.pi_tar * (below[0] / tar.size)
              + cm.c_fa_non * cm.pi_non * (1.0 - below[1] / non.size)
              + cm.c_fa_spf * cm.pi_spf * (1.0 - below[2] / spf.size))
    if normalized:
        values /= default_system_cost(cm)
    return cands, values


def min_adcf_by_lookup(scores, codes, cm, normalized):
    """min_adcf as it was computed before the argsort kernel: each class
    sorted, looked up in np.unique(scores) with searchsorted and counted
    per distinct score with bincount + cumsum."""
    uniq = np.unique(scores)
    classes = split_by_class(scores, codes)
    top = int(np.searchsorted(uniq, np.inf))
    value, term = np.empty((2, uniq.size + 1))
    for i, (x, weight) in enumerate(zip(classes, _class_weights(cm))):
        out = term if i else value
        out[0] = 0.0
        np.cumsum(np.bincount(np.searchsorted(uniq, np.sort(x)),
                              minlength=uniq.size), out=out[1:])
        out[-1] = out[top]
        out /= x.size
        if i:
            np.subtract(1.0, out, out=out)
        out *= weight
        if i:
            value += term
    if normalized:
        value /= default_system_cost(cm)
    best = int(np.argmin(value))
    if 0 < best < uniq.size:
        tau = float(_midpoints(uniq[best - 1:best], uniq[best:best + 1])[0])
    else:
        tau = math.inf if best else -math.inf
    tar, non, spf = classes
    rates = ErrorRates(float(np.count_nonzero(tar < tau)) / tar.size,
                       float(np.count_nonzero(non >= tau)) / non.size,
                       float(np.count_nonzero(spf >= tau)) / spf.size, tau)
    return AdcfReport(float(value[best]), tau, normalized, rates)


class TestDegenerateMidpoints:
    """Every gap between distinct scores keeps a threshold inside it."""

    def test_adjacent_doubles(self):
        # (1 + nextafter(1)) / 2 rounds onto 1.0, which accepts the nontarget
        rep = min_adcf([np.nextafter(1.0, 2.0), 1.0, 0.0],
                       [TrialLabel.TARGET, TrialLabel.NONTARGET,
                        TrialLabel.SPOOF], DEFAULT_COST_MODEL)
        assert rep.min_adcf == 0.0
        assert rep.min_threshold == np.nextafter(1.0, 2.0)

    def test_minus_inf_score(self):
        # the midpoint of -inf and 1.0 is -inf, which accepts everything
        rep = min_adcf([1.0, -np.inf, -np.inf],
                       [TrialLabel.TARGET, TrialLabel.NONTARGET,
                        TrialLabel.SPOOF], DEFAULT_COST_MODEL)
        assert rep.min_adcf == 0.0
        assert rep.min_threshold == 1.0

    def test_candidate_rule(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cands = candidate_thresholds(
                [-np.inf, -DBL_MAX, 1.0, np.nextafter(1.0, 2.0), 1.6e308,
                 1.7e308, np.inf])
        assert caught == []
        assert cands.tolist() == [-np.inf, -DBL_MAX, -DBL_MAX / 2,
                                  np.nextafter(1.0, 2.0), 1.6e308 / 2,
                                  1.6e308 / 2 + 1.7e308 / 2, np.inf, np.inf]

    def test_plain_midpoints_keep_their_bits(self):
        rng = np.random.default_rng(5)
        x = np.unique(rng.normal(0.0, 3.0, 500))
        np.testing.assert_array_equal(candidate_thresholds(x)[1:-1],
                                      (x[:-1] + x[1:]) / 2.0)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(scores_st, st.sampled_from([0, 1, 2])),
                    min_size=3, max_size=40),
           st.booleans())
    def test_sweep_matches_brute_force(self, rows, normalized):
        rows += [(rows[0][0], 0), (rows[1][0], 1), (rows[2][0], 2)]
        scores = np.array([s for s, _ in rows])
        codes = np.array([c for _, c in rows], dtype=np.int8)
        cands, values = sweep_by_brute_force(scores, codes,
                                             DEFAULT_COST_MODEL, normalized)
        uniq = np.unique(scores)
        # candidate k+1 lies in (uniq[k], uniq[k+1]]
        assert np.all((uniq[:-1] < cands[1:-1]) & (cands[1:-1] <= uniq[1:]))
        rep = min_adcf(scores, codes, DEFAULT_COST_MODEL, normalized)
        best = int(np.argmin(values))
        assert rep.min_adcf == values[best]
        assert rep.min_threshold == cands[best]
        assert rep.rates_at_min == error_rates(scores, codes, cands[best])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(scores_st.filter(math.isfinite),
                              st.sampled_from([0, 1, 2])),
                    min_size=3, max_size=60),
           st.sampled_from([DEFAULT_COST_MODEL,
                            CostModel(1.0, 10.0, 20.0, 0.9, 0.01, 0.09),
                            CostModel(1.0, 1.0, 1.0, 0.5, 0.25, 0.25)]),
           st.booleans())
    def test_report_bits_match_the_lookup_kernel(self, rows, cm, normalized):
        rows += [(rows[0][0], 0), (rows[1][0], 1), (rows[2][0], 2)]
        scores = np.array([s for s, _ in rows])
        codes = np.array([c for _, c in rows], dtype=np.int8)
        assert repr(min_adcf(scores, codes, cm, normalized)) == \
            repr(min_adcf_by_lookup(scores, codes, cm, normalized))

    def test_zero_tie_above_minus_inf(self):
        """Where the minimum lies just above -inf, the threshold is the next
        distinct score itself; for a tie of 0.0 and -0.0 it is one of the
        two, whichever the sort puts first."""
        scores = np.array([-np.inf, 0.0, -0.0, -np.inf, -0.0, 0.0])
        codes = np.array([1, 0, 0, 2, 0, 0], dtype=np.int8)
        rep = min_adcf(scores, codes, DEFAULT_COST_MODEL)
        assert rep.min_adcf == 0.0 and rep.min_threshold == 0.0
        assert rep.rates_at_min == error_rates(scores, codes, 0.0)
        assert rep.min_adcf == adcf_at(scores, codes, 0.0,
                                       DEFAULT_COST_MODEL)


class TestDet:
    def test_single_pair_staircase(self):
        # one positive above one negative: perfect detector staircase
        assert det_points([1.0], [0.0]) == [(0.0, 1.0), (0.0, 0.0),
                                            (1.0, 0.0)]

    def test_monotone_ordering(self):
        rng = np.random.default_rng(2)
        pts = det_points(rng.normal(1, 1, 50), rng.normal(0, 1, 70))
        p_fa = [p for p, _ in pts]
        p_miss = [m for _, m in pts]
        assert p_fa == sorted(p_fa)
        assert p_miss == sorted(p_miss, reverse=True)
        assert pts[0] == (0.0, 1.0) and pts[-1][0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            det_points([], [0.0])


class TestEer:
    def test_interleaved_half(self):
        value, tau = eer([1.0, 3.0], [0.0, 2.0])
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_perfect_separation(self):
        value, _ = eer([2.0, 3.0], [0.0, 1.0])
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_fully_swapped(self):
        value, _ = eer([0.0, 1.0], [2.0, 3.0])
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_same_distribution_near_half(self):
        rng = np.random.default_rng(0)
        value, _ = eer(rng.normal(0, 1, 4000), rng.normal(0, 1, 4000))
        assert abs(value - 0.5) < 0.02

    def test_interpolation_against_dense_threshold_scan(self):
        rng = np.random.default_rng(4)
        pos = rng.normal(1.0, 1.0, 300)
        neg = rng.normal(-1.0, 1.0, 400)
        value, tau = eer(pos, neg)
        # at the returned operating point the two interpolated rates agree
        grid = np.linspace(min(neg.min(), pos.min()),
                           max(neg.max(), pos.max()), 100000)
        p_miss = np.searchsorted(np.sort(pos), grid, side="left") / pos.size
        p_fa = 1.0 - np.searchsorted(np.sort(neg), grid,
                                     side="left") / neg.size
        k = int(np.argmin(np.abs(p_miss - p_fa)))
        assert abs(value - (p_miss[k] + p_fa[k]) / 2.0) < 0.01

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        pos = rng.normal(0.5, 1, 100)
        neg = rng.normal(-0.5, 1, 100)
        v1, _ = eer(pos, neg)
        v2, _ = eer(pos * 2.0 + 3.0, neg * 2.0 + 3.0)
        assert v1 == v2
