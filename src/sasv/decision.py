"""Score calibration, linear/nonlinear fusion and the Bayes accept policy."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LINEAR_FUSION_SCALE = 1.0 / math.sqrt(6.0)

# Calibration fitting knobs: damped Newton with a gradient-norm stop and a
# scale cap that terminates cleanly on separable data.
FIT_GRAD_TOL = 1e-8
FIT_MAX_ITER = 200
FIT_SCALE_CAP = 50.0


@dataclass(frozen=True)
class CalibrationParams:
    """Affine score-to-LLR map: llr = w0 + w1 * score."""

    w0: float
    w1: float

    def __post_init__(self):
        if not (math.isfinite(self.w0) and math.isfinite(self.w1)):
            raise ValueError("calibration parameters must be finite")


@dataclass(frozen=True)
class FusionConfig:
    mode: str = "nonlinear"  # "linear" | "nonlinear"
    rho_tilde: float = 0.5

    def __post_init__(self):
        if self.mode not in ("linear", "nonlinear"):
            raise ValueError(f"unknown fusion mode {self.mode!r}")
        if not 0.0 <= self.rho_tilde <= 1.0:
            raise ValueError(f"rho_tilde must lie in [0,1], "
                             f"got {self.rho_tilde}")


def calibrate(score, params):
    """Apply the affine calibration to a score (scalar or array)."""
    return params.w0 + params.w1 * np.asarray(score, dtype=np.float64)


class CalibrationFitError(RuntimeError):
    pass


def _exp_neg_abs(z):
    """e^-|z|, which never overflows: e^-z for z >= 0 and e^z below."""
    return np.exp(-np.abs(z))


def sigmoid(z, ez=None):
    """Logistic 1 / (1 + e^-z), overflow-safe; a float for a scalar.  ez is
    _exp_neg_abs(z), if the caller has it."""
    z = np.asarray(z, dtype=np.float64)
    ez = _exp_neg_abs(z) if ez is None else ez
    out = np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))
    return float(out) if out.ndim == 0 else out


def logit(p):
    """log(p / (1 - p)) of a probability p, the inverse of sigmoid."""
    return math.log(p) - math.log1p(-p)


def logistic_loss(z, y, ez=None):
    """Elementwise -log sigmoid(z) for y=1 and -log sigmoid(-z) for y=0,
    in the one stable form max(z, 0) - z y + log(1 + e^-|z|).  ez is
    _exp_neg_abs(z), if the caller has it."""
    ez = _exp_neg_abs(z) if ez is None else ez
    return np.maximum(z, 0.0) - z * y + np.log1p(ez)


def _logistic_terms(w0, w1, s, y):
    """(negative log-likelihood, z, e^-|z|) of the calibration z = w0 + w1 s
    of scores s with labels y."""
    z = w0 + w1 * s
    ez = _exp_neg_abs(z)
    return float(np.sum(logistic_loss(z, y, ez))), z, ez


def _logistic_nll(w0, w1, s, y):
    return _logistic_terms(w0, w1, s, y)[0]


def fit_calibration(scores, labels):
    """Fit (w0, w1) by logistic regression of binary labels on scores.

    Damped Newton iterations; stops at gradient norm <= FIT_GRAD_TOL.  On
    separable data the scale diverges, so |w1| is capped at FIT_SCALE_CAP and
    the fit returns instead of looping.  Scores so large that the gradient
    or the Hessian overflows raise CalibrationFitError at once.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-D arrays")
    if not (np.any(y == 1) and np.any(y == 0)):
        raise ValueError("both classes must be present to fit calibration")

    w0, w1 = 0.0, 0.0
    nll, z, ez = _logistic_terms(w0, w1, s, y)
    for _ in range(FIT_MAX_ITER):
        p = sigmoid(z, ez)
        r = p - y
        g0 = float(np.sum(r))
        g1 = float(np.sum(r * s))
        if max(abs(g0), abs(g1)) <= FIT_GRAD_TOL:
            return CalibrationParams(w0, w1)
        w = p * (1.0 - p)
        h00 = float(np.sum(w)) + 1e-12
        h01 = float(np.sum(w * s))
        h11 = float(np.sum(w * s * s)) + 1e-12
        det = h00 * h11 - h01 * h01
        if not all(map(math.isfinite, (g0, g1, det))):
            raise CalibrationFitError("calibration scores are too large: "
                                      "the Newton step overflows")
        if det <= 0:
            raise CalibrationFitError("singular Hessian in calibration fit")
        d0 = (h11 * g0 - h01 * g1) / det
        d1 = (h00 * g1 - h01 * g0) / det
        step = 1.0
        while step > 1e-12:
            n0, n1 = w0 - step * d0, w1 - step * d1
            terms = _logistic_terms(n0, n1, s, y)
            if terms[0] <= nll + 1e-15:
                w0, w1 = n0, n1
                nll, z, ez = terms
                break
            step *= 0.5
        if abs(w1) >= FIT_SCALE_CAP:
            w1 = math.copysign(FIT_SCALE_CAP, w1)
            return CalibrationParams(w0, w1)
    raise CalibrationFitError(
        f"calibration fit did not converge in {FIT_MAX_ITER} iterations")


def fuse_linear(llr_asv, llr_cm):
    """Average the two LLRs with the isometric-log-ratio scale 1/sqrt(6)."""
    return (np.asarray(llr_asv, dtype=np.float64) + llr_cm) * LINEAR_FUSION_SCALE


def fuse_nonlinear(llr_asv, llr_cm, rho_tilde):
    """Log-sum-exp fusion -log[(1-rho)e^-a + rho e^-b], overflow-safe.

    rho_tilde=0 returns llr_asv exactly; rho_tilde=1 returns llr_cm exactly.
    Accepts scalars or broadcastable arrays.
    """
    return _fuse_nonlinear(np.asarray(llr_asv, dtype=np.float64),
                           np.asarray(llr_cm, dtype=np.float64), rho_tilde)


def _lse_terms(a, b):
    """The terms of the fusion of float64 a and b that do not depend on rho:
    m = max(-a, -b), e^(-a-m) and e^(-b-m)."""
    m = np.maximum(-a, -b)
    return m, np.exp(-a - m), np.exp(-b - m)


def _fuse_nonlinear(a, b, rho_tilde, terms=None):
    """fuse_nonlinear of float64 a and b; terms is _lse_terms(a, b), if the
    caller fuses the same pair at several weights."""
    if not 0.0 <= rho_tilde <= 1.0:
        raise ValueError(f"rho_tilde must lie in [0,1], got {rho_tilde}")
    if rho_tilde == 0.0 or rho_tilde == 1.0:
        out = np.broadcast_arrays(a, b)[int(rho_tilde)].copy()
    else:
        m, ea, eb = _lse_terms(a, b) if terms is None else terms
        out = np.multiply(ea, 1.0 - rho_tilde, out=np.empty_like(m))
        out += rho_tilde * eb
        np.log(out, out=out)
        out += m
        np.negative(out, out=out)
    return float(out) if out.ndim == 0 else out


def bayes_accept(llr_asv, llr_cm, cost_model):
    """Minimum-risk accept/reject for the three-class task.

    Accept iff -log[(1-rho)(Cfa_non/Cmiss)e^-llr_asv
                   + rho(Cfa_spf/Cmiss)e^-llr_cm] > -log(beta).
    Takes scalars (returns a bool) or broadcastable arrays (a bool array).
    """
    if cost_model.c_miss_tar <= 0:
        raise ValueError("c_miss_tar must be positive for the accept policy")
    rho = cost_model.rho
    u = (1.0 - rho) * cost_model.c_fa_non / cost_model.c_miss_tar
    v = rho * cost_model.c_fa_spf / cost_model.c_miss_tar
    a = np.asarray(llr_asv, dtype=np.float64)
    b = np.asarray(llr_cm, dtype=np.float64)
    # lhs = -log(u e^-a + v e^-b), overflow-safe; a zero weight drops a term
    if u == 0.0 and v == 0.0:
        lhs = np.full(np.broadcast(a, b).shape, math.inf)
    elif u == 0.0:
        lhs = np.broadcast_arrays(a, b - math.log(v))[1]
    elif v == 0.0:
        lhs = np.broadcast_arrays(a - math.log(u), b)[0]
    else:
        m, ea, eb = _lse_terms(a - math.log(u), b - math.log(v))
        lhs = -(m + np.log(ea + eb))
    accept = lhs > -math.log(cost_model.beta)
    return bool(accept) if accept.ndim == 0 else accept


def asv_bayes_threshold(cost_model):
    """Spoof-free Bayes threshold log(Cfa_non/Cmiss) - logit(pi_tar)."""
    if cost_model.c_fa_non <= 0 or cost_model.c_miss_tar <= 0:
        raise ValueError("both ASV costs must be positive")
    return math.log(cost_model.c_fa_non / cost_model.c_miss_tar) \
        - logit(cost_model.pi_tar)


def fuse(llr_asv, llr_cm, config):
    """Apply the configured fusion rule."""
    if config.mode == "linear":
        return fuse_linear(llr_asv, llr_cm)
    return fuse_nonlinear(llr_asv, llr_cm, config.rho_tilde)


def fuse_vjp(llr_asv, llr_cm, config, grad):
    """Backward pass of `fuse`: (grad . ds/dllr_asv, grad . ds/dllr_cm,
    sum of grad . ds/drho_tilde) for an upstream gradient `grad` on s.

    The rho_tilde term is 0.0 for linear fusion.
    """
    if config.mode == "linear":
        return grad * LINEAR_FUSION_SCALE, grad * LINEAR_FUSION_SCALE, 0.0
    r = config.rho_tilde
    _, ea, eb = _lse_terms(llr_asv, llr_cm)
    denom = (1.0 - r) * ea + r * eb
    return (grad * ((1.0 - r) * ea / denom), grad * (r * eb / denom),
            float(np.sum(grad * ((ea - eb) / denom))))
