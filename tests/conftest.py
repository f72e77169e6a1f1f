"""Shared test helpers: finite differences, brute-force metric oracles, the
per-trial embedding simulator and per-record embedding reader that the bulk
ones replaced, and the written-out copies of formulas that now have one
shared definition."""

import math
import struct

import numpy as np

from sasv.core import TARGET, TrialLabel, subsystem_task
from sasv.decision import sigmoid
from sasv.fileio import EMBEDDING_MAGIC, EMBEDDING_VERSION, FormatError
from sasv.losses import _class_masks, bce_logits_mean, soft_adcf
from sasv.metrics import split_by_class
from sasv.sim import make_rng


def central_diff(f, x, h=1e-6):
    """Central finite difference of a scalar function at scalar x."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def check_grad(analytic, numeric, rel_tol=1e-4, abs_tol=1e-7):
    """Relative comparison with an absolute fallback near zero."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    small = denom < abs_tol / rel_tol
    ok = np.where(small,
                  np.abs(analytic - numeric) <= abs_tol,
                  np.abs(analytic - numeric) <= rel_tol * denom)
    assert np.all(ok), (
        f"gradient mismatch: analytic={analytic[~ok]}, numeric={numeric[~ok]}")


def naive_error_rates(scores, labels, tau):
    """Definition-level error counting, kept independent of sasv.metrics."""
    tar = [s for s, l in zip(scores, labels) if l is TrialLabel.TARGET]
    non = [s for s, l in zip(scores, labels) if l is TrialLabel.NONTARGET]
    spf = [s for s, l in zip(scores, labels) if l is TrialLabel.SPOOF]
    p_miss = sum(1 for s in tar if s < tau) / len(tar)
    p_fa_non = sum(1 for s in non if s >= tau) / len(non)
    p_fa_spf = sum(1 for s in spf if s >= tau) / len(spf)
    return p_miss, p_fa_non, p_fa_spf


def naive_adcf(scores, labels, tau, cm, normalized=False):
    p_miss, p_fa_non, p_fa_spf = naive_error_rates(scores, labels, tau)
    val = (cm.c_miss_tar * cm.pi_tar * p_miss
           + cm.c_fa_non * cm.pi_non * p_fa_non
           + cm.c_fa_spf * cm.pi_spf * p_fa_spf)
    if normalized:
        val /= min(cm.c_miss_tar * cm.pi_tar,
                   cm.c_fa_non * cm.pi_non + cm.c_fa_spf * cm.pi_spf)
    return val


def brute_force_min_adcf(scores, labels, cm, normalized=False,
                         extra_grid=None):
    """Minimum over midpoints, sentinels and an optional extra grid."""
    uniq = sorted(set(scores))
    cands = [min(uniq) - 1.0, max(uniq) + 1.0]
    cands += [(a + b) / 2.0 for a, b in zip(uniq[:-1], uniq[1:])]
    if extra_grid is not None:
        cands += list(extra_grid)
    return min(naive_adcf(scores, labels, t, cm, normalized) for t in cands)


def random_three_class(rng, n_max=300):
    """Random scores+labels with all three classes present."""
    n_tar = int(rng.integers(1, n_max // 3))
    n_non = int(rng.integers(1, n_max // 3))
    n_spf = int(rng.integers(1, n_max // 3))
    scores = np.concatenate([
        rng.normal(1.0, 1.5, n_tar),
        rng.normal(-0.5, 1.5, n_non),
        rng.normal(-1.0, 1.5, n_spf),
    ])
    labels = ([TrialLabel.TARGET] * n_tar + [TrialLabel.NONTARGET] * n_non
              + [TrialLabel.SPOOF] * n_spf)
    return scores, labels


def per_trial_simulate_embeddings(cfg):
    """One Box-Muller call per vector, as simulate_embeddings once drew them.

    Returns (asv {id: vector}, cm {id: vector}, [(enroll, test, label)]).
    """
    rng = make_rng(cfg.seed)

    def draws(n):
        pairs = (n + 1) // 2
        u1 = rng.random(pairs)
        u2 = rng.random(pairs)
        r = np.sqrt(-2.0 * np.log1p(-u1))
        theta = 2.0 * math.pi * u2
        return np.concatenate((r * np.cos(theta), r * np.sin(theta)))[:n]

    def unit(v):
        return v / np.linalg.norm(v)

    n, noise = cfg.n_speakers, cfg.sigma_w
    spk_means = [unit(draws(cfg.d_asv)) for _ in range(n)]
    bon_cm_mean = unit(draws(cfg.d_cm))
    raw = draws(cfg.d_cm)
    spf_cm_mean = bon_cm_mean - cfg.cm_margin * unit(
        raw - np.dot(raw, bon_cm_mean) * bon_cm_mean)
    asv = {f"spk{i:03d}-enr": spk_means[i] + noise * draws(cfg.d_asv)
           for i in range(n)}
    cm, trials = {}, []

    def add(i, label, asv_vec, cm_vec):
        test_id = f"utt{len(trials):06d}"
        asv[test_id], cm[test_id] = asv_vec, cm_vec
        trials.append((f"spk{i:03d}-enr", test_id, label))

    for t in range(cfg.n_target):
        add(t % n, TrialLabel.TARGET,
            spk_means[t % n] + noise * draws(cfg.d_asv),
            bon_cm_mean + noise * draws(cfg.d_cm))
    for t in range(cfg.n_nontarget):
        j = (t % n + 1 + int(rng.integers(n - 1))) % n
        add(t % n, TrialLabel.NONTARGET,
            spk_means[j] + noise * draws(cfg.d_asv),
            bon_cm_mean + noise * draws(cfg.d_cm))
    for t in range(cfg.n_spoof):
        away = unit(draws(cfg.d_asv))
        base = cfg.delta * spk_means[t % n] + (1.0 - cfg.delta) * away
        add(t % n, TrialLabel.SPOOF, base + noise * draws(cfg.d_asv),
            spf_cm_mean + noise * draws(cfg.d_cm))
    return asv, cm, trials


# An embedding file of one float32 signalling NaN (bits 0x7f800001): its
# cast to float64 sets numpy's invalid-value flag.
SNAN_EMBEDDING_FILE = (EMBEDDING_MAGIC
                       + struct.pack("<BII", EMBEDDING_VERSION, 1, 1)
                       + struct.pack("<H", 1) + b"a"
                       + struct.pack("<I", 0x7F800001))


def per_record_read_embeddings(path):
    """Read an embedding file one record at a time; (dim, {id: vector}).

    Raises FormatError for the first fault in file order, with the message
    read_embeddings gives for it.
    """
    with open(path, "rb") as f:
        data = f.read()
    pos = 0

    def take(n, what):
        nonlocal pos
        if pos + n > len(data):
            raise FormatError(f"{path}: truncated while reading {what}")
        pos += n
        return data[pos - n:pos]

    if take(8, "magic") != EMBEDDING_MAGIC:
        raise FormatError(f"{path}: bad magic, not an embedding file")
    version, count, dim = struct.unpack("<BII", take(9, "header"))
    if version != EMBEDDING_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if dim <= 0:
        raise FormatError(f"{path}: nonpositive dimension {dim}")
    vectors = {}
    for k in range(count):
        (id_len,) = struct.unpack("<H", take(2, f"entry {k} id length"))
        try:
            utt_id = take(id_len, f"entry {k} id").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: entry {k} id is not UTF-8") from None
        values = np.frombuffer(take(4 * dim, f"entry {k} values"),
                               dtype="<f4")
        with np.errstate(invalid="ignore"):  # a signalling NaN, named below
            values = values.astype(np.float64)
        if utt_id in vectors:
            raise FormatError(f"{path}: entry {k}: duplicate utterance id "
                              f"{utt_id!r}")
        if not np.all(np.isfinite(values)):
            raise FormatError(f"{path}: entry {k}: vector for {utt_id!r} "
                              "has non-finite entries")
        vectors[utt_id] = values
    if pos != len(data):
        raise FormatError(f"{path}: {len(data) - pos} trailing bytes")
    return dim, vectors


# The formulas below are the copies that each module once wrote out for
# itself; the package now computes each through one shared definition
# (decision.logistic_loss, decision._lse_terms, nn.weighted_cosine_score,
# metrics._class_weights), and the tests hold it to these bits.

def inline_logistic_nll(w0, w1, s, y):
    """decision._logistic_nll with the stable logistic loss written out."""
    z = w0 + w1 * s
    return float(np.sum(np.maximum(z, 0.0) - z * y
                        + np.log1p(np.exp(-np.abs(z)))))


def inline_bce_logits_mean(logits, ys):
    """losses.bce_logits_mean with the stable logistic loss written out."""
    x = np.asarray(logits, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    losses = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))
    return float(np.mean(losses)), (sigmoid(x) - y) / x.size


def libm_bce_logit(x, y):
    """losses.bce's logit loss of one float, in libm (math) operations."""
    return max(x, 0.0) - x * y + math.log1p(math.exp(-abs(x)))


def two_term_bayes_accept(llr_asv, llr_cm, cost_model):
    """decision.bayes_accept with its own log-sum-exp of log u - a and
    log v - b."""
    rho = cost_model.rho
    u = (1.0 - rho) * cost_model.c_fa_non / cost_model.c_miss_tar
    v = rho * cost_model.c_fa_spf / cost_model.c_miss_tar
    a = np.asarray(llr_asv, dtype=np.float64)
    b = np.asarray(llr_cm, dtype=np.float64)
    if u == 0.0 and v == 0.0:
        lhs = np.full(np.broadcast(a, b).shape, math.inf)
    elif u == 0.0:
        lhs = np.broadcast_arrays(a, b - math.log(v))[1]
    elif v == 0.0:
        lhs = np.broadcast_arrays(a - math.log(u), b)[0]
    else:
        ta = math.log(u) - a
        tb = math.log(v) - b
        m = np.maximum(ta, tb)
        lhs = -(m + np.log(np.exp(ta - m) + np.exp(tb - m)))
    accept = lhs > -math.log(cost_model.beta)
    return bool(accept) if accept.ndim == 0 else accept


def unweighted_cosine_score(e1, e2):
    """nn.cosine_score computed without the weighted cosine."""
    a = np.asarray(e1, dtype=np.float64)
    b = np.asarray(e2, dtype=np.float64)
    single = a.ndim == 1
    a2 = a[None, :] if single else a
    b2 = b[None, :] if single else b
    na = np.linalg.norm(a2, axis=1)
    nb = np.linalg.norm(b2, axis=1)
    if np.any(na == 0) or np.any(nb == 0):
        raise ValueError("cosine undefined for zero-norm vectors")
    s = np.sum(a2 * b2, axis=1) / (na * nb)
    return float(s[0]) if single else s


def inline_default_system_cost(cm):
    return min(cm.c_miss_tar * cm.pi_tar,
               cm.c_fa_non * cm.pi_non + cm.c_fa_spf * cm.pi_spf)


def inline_weight_adcf(cm, p_miss, p_fa_non, p_fa_spf, normalized):
    """metrics._combine with the cost x prior weights written out."""
    value = (cm.c_miss_tar * cm.pi_tar * p_miss
             + cm.c_fa_non * cm.pi_non * p_fa_non
             + cm.c_fa_spf * cm.pi_spf * p_fa_spf)
    return value / inline_default_system_cost(cm) if normalized else value


def inline_weight_soft_adcf(scores, labels, cfg):
    """losses.soft_adcf with the cost x prior weights written out."""
    s = np.asarray(scores, dtype=np.float64)
    masks = _class_masks(labels)
    cm = cfg.cost_model
    a = cfg.alpha
    grad = np.zeros_like(s)
    grad_tau = 0.0
    loss = 0.0
    specs = ((cm.c_miss_tar * cm.pi_tar, -1.0),
             (cm.c_fa_non * cm.pi_non, +1.0),
             (cm.c_fa_spf * cm.pi_spf, +1.0))
    for mask, (weight, sign) in zip(masks, specs):
        z = sign * a * (s[mask] - cfg.tau)
        p = sigmoid(z)
        loss += weight * float(np.mean(p))
        d = weight * a * p * (1.0 - p) / np.count_nonzero(mask)
        grad[mask] += sign * d
        grad_tau += -sign * float(np.sum(d))
    if cfg.normalized:
        norm = inline_default_system_cost(cm)
        loss /= norm
        grad /= norm
        grad_tau /= norm
    return loss, grad, grad_tau


def inline_weight_min_adcf(scores, labels, cm, normalized=True):
    """The min a-DCF of metrics.min_adcf's sweep, with the cost x prior
    weights written out."""
    s = np.asarray(scores, dtype=np.float64)
    classes = split_by_class(s, labels)
    uniq = np.unique(s)
    top = int(np.searchsorted(uniq, np.inf))
    value, term = np.empty((2, uniq.size + 1))
    weights = (cm.c_miss_tar * cm.pi_tar, cm.c_fa_non * cm.pi_non,
               cm.c_fa_spf * cm.pi_spf)
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
        with np.errstate(over="ignore"):
            value /= inline_default_system_cost(cm)
    return float(value[int(np.argmin(value))])


def inline_combined_loss_v1(s_sasv, codes, weights, cfg):
    """losses.combined_loss_v1 with both weighted terms written out and the
    SASV BCE target taken inline."""
    s = np.asarray(s_sasv, dtype=np.float64)
    loss = 0.0
    grad = np.zeros_like(s)
    grad_tau = 0.0
    if weights.beta1 > 0:
        l_adcf, g_adcf, g_tau = soft_adcf(s, codes, cfg)
        loss += weights.beta1 * l_adcf
        grad += weights.beta1 * g_adcf
        grad_tau += weights.beta1 * g_tau
    if weights.beta2 > 0:
        y = (codes == TARGET).astype(np.float64)
        l_bce, g_bce = bce_logits_mean(s, y)
        loss += weights.beta2 * l_bce
        grad += weights.beta2 * g_bce
    return loss, grad, grad_tau


def inline_combined_loss_v2(llr_asv, llr_cm, s_sasv, codes, weights, cfg):
    """losses.combined_loss_v2 with each weighted term written out."""
    s = np.asarray(s_sasv, dtype=np.float64)
    la = np.asarray(llr_asv, dtype=np.float64)
    lc = np.asarray(llr_cm, dtype=np.float64)
    loss = 0.0
    grad_s = np.zeros_like(s)
    grad_la = np.zeros_like(la)
    grad_lc = np.zeros_like(lc)
    grad_tau = 0.0
    if weights.lambda1 > 0:
        l_adcf, g_adcf, g_tau = soft_adcf(s, codes, cfg)
        loss += weights.lambda1 * l_adcf
        grad_s += weights.lambda1 * g_adcf
        grad_tau += weights.lambda1 * g_tau
    for task, weight, llr, grad in (("asv", weights.lambda2, la, grad_la),
                                    ("cm", weights.lambda3, lc, grad_lc)):
        if weight > 0:
            rows, y = subsystem_task(codes, task)
            l_aux, g_aux = bce_logits_mean(llr[rows], y[rows])
            loss += weight * l_aux
            grad[rows] += weight * g_aux
    return loss, grad_s, grad_la, grad_lc, grad_tau
