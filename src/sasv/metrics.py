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


def split_by_class(scores, labels):
    """Partition scores into (tar, non, spf) arrays.

    labels: TrialLabels, or their int8 codes (see core.label_codes).
    """
    s = np.asarray(scores, dtype=np.float64)
    if len(labels) != s.shape[0]:
        raise ValueError("scores and labels differ in length")
    codes = label_codes(labels)
    return s[codes == TARGET], s[codes == NONTARGET], s[codes == SPOOF]


def error_rates(scores, labels, tau):
    """Count the three error rates at threshold tau."""
    tar, non, spf = split_by_class(scores, labels)
    if min(tar.size, non.size, spf.size) == 0:
        raise ValueError("empty class in error-rate computation")
    return ErrorRates(float(np.count_nonzero(tar < tau)) / tar.size,
                      float(np.count_nonzero(non >= tau)) / non.size,
                      float(np.count_nonzero(spf >= tau)) / spf.size,
                      float(tau))


def _class_weights(cm):
    """The a-DCF's cost x prior weight of each error: (target miss,
    nontarget false alarm, spoof false alarm)."""
    return (cm.c_miss_tar * cm.pi_tar, cm.c_fa_non * cm.pi_non,
            cm.c_fa_spf * cm.pi_spf)


def default_system_cost(cost_model):
    """Cost of the better of the two score-blind systems (accept/reject all).

    Raises ValueError if it is 0: the normalized a-DCF divides by it.
    """
    reject_all, fa_non, fa_spf = _class_weights(cost_model)
    cost = min(reject_all, fa_non + fa_spf)
    if cost == 0:
        raise ValueError("the default system's cost is 0, so the normalized "
                         "a-DCF is undefined")
    return cost


def _combine(cost_model, p_miss, p_fa_non, p_fa_spf, normalized):
    w_tar, w_non, w_spf = _class_weights(cost_model)
    value = w_tar * p_miss + w_non * p_fa_non + w_spf * p_fa_spf
    if normalized:
        value /= default_system_cost(cost_model)
        if math.isinf(value):
            raise ValueError("the normalized a-DCF overflows: the default "
                             "system's cost is too small")
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


def min_adcf(scores, labels, cost_model, normalized=True):
    """Global minimum a-DCF over all real thresholds (midpoint sweep).

    One argsort orders the scores with their class codes.  cuts[k] is the
    number of scores below candidate_thresholds(scores)[k]: 0 for -inf,
    the end of each run of equal sorted scores, and for the +inf sentinel
    the count below +inf.  A class's running count read at the cuts is its
    count below every candidate at once.  Raises ValueError on a NaN score.
    """
    s = np.asarray(scores, dtype=np.float64)
    if len(labels) != s.shape[0]:
        raise ValueError("scores and labels differ in length")
    codes = label_codes(labels)
    sizes = [int(np.count_nonzero(codes == code))
             for code in (TARGET, NONTARGET, SPOOF)]
    if min(sizes) == 0:
        raise ValueError("all three classes must be present for min a-DCF")
    order = np.argsort(s)  # ties need no order: only run ends are read
    ss, cc = s[order], codes[order]
    del order  # the next arrays reuse its memory instead of new pages
    if np.isnan(ss[-1]):  # NaN sorts last
        raise ValueError("min a-DCF: a score is NaN")
    change = np.ones(s.size + 1, dtype=bool)
    np.not_equal(ss[1:], ss[:-1], out=change[1:-1])
    cuts = np.flatnonzero(change)
    if ss[-1] == np.inf:
        cuts[-1] = cuts[-2]
    value, term = np.empty((2, cuts.size))
    running = np.empty(s.size + 1)
    running[0] = 0.0
    # the operations and their order are _combine's, so the bits are too;
    # the counts are integers below 2**53, exact in float64
    for code, weight in zip((TARGET, NONTARGET, SPOOF),
                            _class_weights(cost_model)):
        out = value if code == TARGET else term
        np.cumsum(cc == code, out=running[1:])
        # "clip" (the cuts are in range) writes out without a buffer
        np.take(running, cuts, out=out, mode="clip")
        out /= sizes[code]
        if code != TARGET:
            np.subtract(1.0, out, out=out)
        out *= weight
        if code != TARGET:
            value += term
    if normalized:
        # min <= 1 (a sentinel is the default system), so no inf is chosen
        with np.errstate(over="ignore"):
            value /= default_system_cost(cost_model)
    best = int(np.argmin(value))
    if 0 < best < cuts.size - 1:  # candidate_thresholds(s)[best], alone
        tau = float(_midpoints(ss[cuts[best - 1]], ss[cuts[best]]))
    else:
        tau = math.inf if best else -math.inf
    below = np.bincount(cc[:cuts[best]], minlength=3).tolist()
    n_tar, n_non, n_spf = sizes
    return AdcfReport(
        min_adcf=float(value[best]),
        min_threshold=tau,
        normalized=normalized,
        rates_at_min=ErrorRates(below[TARGET] / n_tar,
                                (n_non - below[NONTARGET]) / n_non,
                                (n_spf - below[SPOOF]) / n_spf, tau),
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
    return float(value), _between(float(taus[i]), float(taus[j]), float(t))


def _between(hi, lo, t):
    """The threshold t of the way from hi down to lo (0 < t < 1).

    hi + t (lo - hi) where that is finite; else, for vertices far apart on
    either side of zero, (1 - t) hi + t lo, kept within [lo, hi].  Python
    floats overflow to inf without a warning.
    """
    tau = hi + t * (lo - hi)
    if math.isfinite(tau):
        return tau
    return min(max((1.0 - t) * hi + t * lo, lo), hi)
