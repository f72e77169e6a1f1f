"""Hard-decision evaluation: error rates, a-DCF (min/actual), EER, DET curves."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NONTARGET, SPOOF, TARGET, label_codes

# Tie convention: a trial scoring exactly at the threshold is ACCEPTED
# (false alarm at equality, miss only for strictly lower scores).  Counting
# equality as both error kinds would let one trial fail twice.


@dataclass(frozen=True)
class ErrorRates:
    p_miss_tar: float
    p_fa_non: float
    p_fa_spf: float
    threshold: float


@dataclass(frozen=True)
class AdcfReport:
    min_adcf: float
    min_threshold: float
    normalized: bool
    rates_at_min: ErrorRates
    act_adcf: float | None = None
    act_threshold: float | None = None


def split_by_class(scores, labels):
    """Partition scores into (tar, non, spf) arrays.

    labels: TrialLabels, or their int8 codes (see core.label_codes).
    """
    s = np.asarray(scores, dtype=np.float64)
    if len(labels) != s.shape[0]:
        raise ValueError("scores and labels differ in length")
    codes = label_codes(labels)
    return s[codes == TARGET], s[codes == NONTARGET], s[codes == SPOOF]


def _rates(tar, non, spf, tau):
    def miss(x):
        if x.size == 0:
            raise ValueError("empty class in error-rate computation")
        return float(np.count_nonzero(x < tau)) / x.size

    def fa(x):
        if x.size == 0:
            raise ValueError("empty class in error-rate computation")
        return float(np.count_nonzero(x >= tau)) / x.size

    return miss(tar), fa(non), fa(spf)


def error_rates(scores, labels, tau):
    """Count the three error rates at threshold tau."""
    tar, non, spf = split_by_class(scores, labels)
    p_miss, p_fa_non, p_fa_spf = _rates(tar, non, spf, tau)
    return ErrorRates(p_miss, p_fa_non, p_fa_spf, float(tau))


def default_system_cost(cost_model):
    """Cost of the better of the two score-blind systems (accept/reject all)."""
    reject_all = cost_model.c_miss_tar * cost_model.pi_tar
    accept_all = (cost_model.c_fa_non * cost_model.pi_non
                  + cost_model.c_fa_spf * cost_model.pi_spf)
    return min(reject_all, accept_all)


def _combine(cost_model, p_miss, p_fa_non, p_fa_spf, normalized):
    value = (cost_model.c_miss_tar * cost_model.pi_tar * p_miss
             + cost_model.c_fa_non * cost_model.pi_non * p_fa_non
             + cost_model.c_fa_spf * cost_model.pi_spf * p_fa_spf)
    if normalized:
        value /= default_system_cost(cost_model)
    return value


def adcf_at(scores, labels, tau, cost_model, normalized=True):
    """a-DCF at a fixed threshold."""
    r = error_rates(scores, labels, tau)
    return _combine(cost_model, r.p_miss_tar, r.p_fa_non, r.p_fa_spf,
                    normalized)


def _sweep(tar, non, spf, thresholds, cost_model, normalized):
    """a-DCF at each threshold, via sorted-class cumulative counts."""
    t = np.asarray(thresholds, dtype=np.float64)
    tar_s, non_s, spf_s = np.sort(tar), np.sort(non), np.sort(spf)
    p_miss = np.searchsorted(tar_s, t, side="left") / tar_s.size
    p_fa_non = 1.0 - np.searchsorted(non_s, t, side="left") / non_s.size
    p_fa_spf = 1.0 - np.searchsorted(spf_s, t, side="left") / spf_s.size
    return _combine(cost_model, p_miss, p_fa_non, p_fa_spf, normalized)


def candidate_thresholds(scores):
    """Midpoints between consecutive distinct scores plus +-inf sentinels."""
    uniq = np.unique(np.asarray(scores, dtype=np.float64))
    mids = (uniq[:-1] + uniq[1:]) / 2.0 if uniq.size > 1 else np.empty(0)
    return np.concatenate(([-np.inf], mids, [np.inf]))


def min_adcf(scores, labels, cost_model, normalized=True):
    """Global minimum a-DCF over all real thresholds (midpoint sweep)."""
    tar, non, spf = split_by_class(scores, labels)
    if min(tar.size, non.size, spf.size) == 0:
        raise ValueError("all three classes must be present for min a-DCF")
    cands = candidate_thresholds(scores)
    values = _sweep(tar, non, spf, cands, cost_model, normalized)
    best = int(np.argmin(values))
    tau = float(cands[best])
    p_miss, p_fa_non, p_fa_spf = _rates(tar, non, spf, tau)
    return AdcfReport(
        min_adcf=float(values[best]),
        min_threshold=tau,
        normalized=normalized,
        rates_at_min=ErrorRates(p_miss, p_fa_non, p_fa_spf, tau),
    )


def actual_adcf(scores, labels, dev_threshold, cost_model, normalized=True):
    """a-DCF at an externally chosen (development-set) threshold."""
    if not math.isfinite(dev_threshold):
        raise ValueError("dev threshold must be finite")
    return adcf_at(scores, labels, dev_threshold, cost_model, normalized)


def det_points(pos_scores, neg_scores):
    """ROC staircase vertices as (p_fa, p_miss) pairs.

    p_fa is nondecreasing and p_miss nonincreasing along the returned list.
    """
    p_fa, p_miss, _ = _roc_vertices(pos_scores, neg_scores)
    return list(zip(p_fa.tolist(), p_miss.tolist()))


def _roc_vertices(pos_scores, neg_scores):
    """(p_fa, p_miss, thresholds) arrays, from above the top score down."""
    pos = np.sort(np.asarray(pos_scores, dtype=np.float64))
    neg = np.sort(np.asarray(neg_scores, dtype=np.float64))
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both score lists must be non-empty")
    uniq = np.unique(np.concatenate((pos, neg)))[::-1]
    taus = np.concatenate(([uniq[0] + 1.0], uniq))
    p_miss = np.searchsorted(pos, taus, side="left") / pos.size
    p_fa = 1.0 - np.searchsorted(neg, taus, side="left") / neg.size
    return p_fa, p_miss, taus


def eer(pos_scores, neg_scores):
    """Equal error rate with linear interpolation at the ROC crossing."""
    p_fa, p_miss, taus = _roc_vertices(pos_scores, neg_scores)
    diff = p_miss - p_fa
    # first vertex has diff >= 0 (miss starts at <=1, fa at 0... miss may be 0)
    idx = np.nonzero(diff <= 0)[0]
    if idx.size == 0:
        # never crosses: classes fully confusable only in degenerate cases
        return float(p_fa[-1]), float(taus[-1])
    j = int(idx[0])
    if j == 0 or diff[j] == 0.0:
        return float((p_fa[j] + p_miss[j]) / 2.0), float(taus[j])
    i = j - 1
    # segment (i -> j): solve miss(t) = fa(t) along the chord
    denom = (p_miss[j] - p_miss[i]) - (p_fa[j] - p_fa[i])
    t = diff[i] / -denom if denom != 0 else 0.0
    value = p_fa[i] + t * (p_fa[j] - p_fa[i])
    tau = taus[i] + t * (taus[j] - taus[i])
    return float(value), float(tau)
