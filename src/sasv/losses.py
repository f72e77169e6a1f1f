"""Differentiable objectives: BCE, soft a-DCF and the combined SASV losses.

Every function returns the loss value together with exact gradients w.r.t.
its score inputs (and the soft threshold tau where applicable), so the
training loop can chain them through the scoring heads by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LABELS, NONTARGET, SPOOF, TARGET, label_codes, \
    subsystem_task
from .decision import logistic_loss, sigmoid
from .metrics import _class_weights, default_system_cost

PROB_EPS = 1e-7


@dataclass
class SoftAdcfConfig:
    cost_model: object
    tau: float = 0.0
    alpha: float = 1.0
    normalized: bool = True

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not math.isfinite(self.tau):
            raise ValueError("tau must be finite")


@dataclass(frozen=True)
class LossWeights:
    beta1: float = 1.0
    beta2: float = 1.0
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 1.0

    def __post_init__(self):
        vals = (self.beta1, self.beta2, self.lambda1, self.lambda2,
                self.lambda3)
        if any(v < 0 for v in vals):
            raise ValueError("loss weights must be nonnegative")
        if self.beta1 == 0 and self.beta2 == 0:
            raise ValueError("v1 weights are all zero")
        if self.lambda1 == 0 and self.lambda2 == 0 and self.lambda3 == 0:
            raise ValueError("v2 weights are all zero")


def bce(value, y, input_kind="logit"):
    """Binary cross-entropy of one prediction; returns (loss, dloss/dinput).

    "logit" uses the numerically stable fused form; "probability" clamps the
    input to [eps, 1-eps] first.
    """
    if input_kind == "logit":
        x = float(value)
        return float(logistic_loss(x, y)), sigmoid(x) - y
    if input_kind == "probability":
        p = min(max(float(value), PROB_EPS), 1.0 - PROB_EPS)
        loss = -(y * math.log(p) + (1 - y) * math.log(1.0 - p))
        grad = (p - y) / (p * (1.0 - p))
        return loss, grad
    raise ValueError(f"unknown input kind {input_kind!r}")


def bce_logits_mean(logits, ys):
    """Mean stable logit-BCE over a batch; returns (loss, grad_per_logit)."""
    x = np.asarray(logits, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty batch in BCE")
    grads = (sigmoid(x) - y) / x.size
    return float(np.mean(logistic_loss(x, y))), grads


def _class_masks(labels):
    """Target, nontarget and spoof masks of TrialLabels or their codes."""
    codes = label_codes(labels)
    masks = [codes == code for code in (TARGET, NONTARGET, SPOOF)]
    for label, mask in zip(LABELS, masks):
        if not np.any(mask):
            raise ValueError(f"no {label.value} trials in batch; "
                             "soft a-DCF needs all three classes")
    return masks


def soft_adcf(scores, labels, cfg):
    """Sigmoid-relaxed a-DCF; returns (loss, grad_scores, grad_tau).

    Soft miss rate is the target-class mean of sigmoid(alpha (tau - s));
    soft false-alarm rates are the class means of sigmoid(alpha (s - tau)).
    """
    s = np.asarray(scores, dtype=np.float64)
    masks = _class_masks(labels)
    cm = cfg.cost_model
    a = cfg.alpha
    grad = np.zeros_like(s)
    grad_tau = 0.0
    loss = 0.0
    for mask, weight, sign in zip(masks, _class_weights(cm),
                                  (-1.0, +1.0, +1.0)):
        z = sign * a * (s[mask] - cfg.tau)
        p = sigmoid(z)
        loss += weight * float(np.mean(p))
        d = weight * a * p * (1.0 - p) / np.count_nonzero(mask)
        grad[mask] += sign * d
        grad_tau += -sign * float(np.sum(d))
    if cfg.normalized:
        norm = default_system_cost(cm)
        loss /= norm
        grad /= norm
        grad_tau /= norm
    return loss, grad, grad_tau


def _adcf_term(s, codes, weight, cfg, grad):
    """Add weight x the soft a-DCF's score gradient into grad; returns the
    weighted (loss, grad_tau), or zeros when weight is 0."""
    if not weight > 0:
        return 0.0, 0.0
    loss, g, g_tau = soft_adcf(s, codes, cfg)
    grad += weight * g
    return weight * loss, weight * g_tau


def _bce_term(x, codes, task, weight, grad):
    """Add weight x the gradient of the mean logit-BCE of x over the rows
    `core.subsystem_task` gives task into grad; returns the weighted loss,
    or 0.0 when weight is 0."""
    if not weight > 0:
        return 0.0
    rows, y = subsystem_task(codes, task)
    if not np.any(rows):
        raise ValueError(f"{task.upper()} BCE has no trials; the ASV term "
                         "takes bonafide trials only")
    loss, g = bce_logits_mean(x[rows], y[rows])
    grad[rows] += weight * g
    return weight * loss


def combined_loss_v1(s_sasv, labels, weights, cfg):
    """beta1 * soft a-DCF + beta2 * mean BCE(sigmoid(s_sasv), y_sasv)."""
    s = np.asarray(s_sasv, dtype=np.float64)
    codes = label_codes(labels)
    grad = np.zeros_like(s)
    loss, grad_tau = _adcf_term(s, codes, weights.beta1, cfg, grad)
    loss += _bce_term(s, codes, "sasv", weights.beta2, grad)
    return loss, grad, grad_tau


def combined_loss_v2(llr_asv, llr_cm, s_sasv, labels, weights, cfg):
    """lambda1 * soft a-DCF + lambda2 * aux ASV BCE + lambda3 * aux CM BCE.

    Each aux term is averaged over the trials `core.subsystem_task` gives
    its subsystem (for ASV, the bonafide ones).  Returns
    (loss, grad_s_sasv, grad_llr_asv, grad_llr_cm, grad_tau).
    """
    s, la, lc = (np.asarray(x, dtype=np.float64)
                 for x in (s_sasv, llr_asv, llr_cm))
    codes = label_codes(labels)
    grad_s, grad_la, grad_lc = (np.zeros_like(x) for x in (s, la, lc))
    loss, grad_tau = _adcf_term(s, codes, weights.lambda1, cfg, grad_s)
    loss += _bce_term(la, codes, "asv", weights.lambda2, grad_la)
    loss += _bce_term(lc, codes, "cm", weights.lambda3, grad_lc)
    return loss, grad_s, grad_la, grad_lc, grad_tau
