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


def _midpoints(lo, hi):
    """A threshold in (lo, hi] for each pair of consecutive distinct scores.

    The midpoint (lo + hi) / 2 where it lies there; else lo/2 + hi/2, for
    a sum that overflows; else hi, for adjacent doubles or lo = -inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mid = (lo + hi) / 2.0
        half = lo / 2.0 + hi / 2.0
        return np.where((lo < mid) & (mid <= hi), mid,
                        np.where((lo < half) & (half <= hi), half, hi))


def candidate_thresholds(scores):
    """Midpoints between consecutive distinct scores plus +-inf sentinels."""
    uniq = np.unique(np.asarray(scores, dtype=np.float64))
    return np.concatenate(([-np.inf], _midpoints(uniq[:-1], uniq[1:]),
                           [np.inf]))


def _sweep(uniq, classes, cost_model, normalized):
    """a-DCF at each of candidate_thresholds(scores), uniq = unique(scores).

    Candidate k+1 lies in (uniq[k], uniq[k+1]], so a class has as many
    scores below it as below uniq[k+1]: one bincount over the distinct
    scores and a cumsum count each class once.  Candidate 0 (-inf) reads 0
    and the +inf sentinel reads the count below +inf.
    """
    top = int(np.searchsorted(uniq, np.inf))
    value, term = np.empty((2, uniq.size + 1))
    cm = cost_model
    weights = (cm.c_miss_tar * cm.pi_tar, cm.c_fa_non * cm.pi_non,
               cm.c_fa_spf * cm.pi_spf)
    # the operations and their order are _combine's, so the bits are too;
    # the counts are integers below 2**53, exact in float64
    for i, (x, weight) in enumerate(zip(classes, weights)):
        out = term if i else value
        bins = np.searchsorted(uniq, np.sort(x))
        out[0] = 0.0
        np.cumsum(np.bincount(bins, minlength=uniq.size), out=out[1:])
        out[-1] = out[top]
        out /= x.size
        if i:
            np.subtract(1.0, out, out=out)
        out *= weight
        if i:
            value += term
    if normalized:
        value /= default_system_cost(cost_model)
    return value


def min_adcf(scores, labels, cost_model, normalized=True):
    """Global minimum a-DCF over all real thresholds (midpoint sweep)."""
    s = np.asarray(scores, dtype=np.float64)
    tar, non, spf = split_by_class(s, labels)
    if min(tar.size, non.size, spf.size) == 0:
        raise ValueError("all three classes must be present for min a-DCF")
    uniq = np.unique(s)
    values = _sweep(uniq, (tar, non, spf), cost_model, normalized)
    best = int(np.argmin(values))
    if 0 < best < uniq.size:  # candidate_thresholds(s)[best], alone
        tau = float(_midpoints(uniq[best - 1:best], uniq[best:best + 1])[0])
    else:
        tau = math.inf if best else -math.inf
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
