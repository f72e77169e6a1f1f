"""Shared test helpers: finite differences, brute-force metric oracles and
the per-trial embedding simulator and per-record embedding reader that the
bulk ones replaced."""

import math
import struct

import numpy as np

from sasv.core import TrialLabel
from sasv.fileio import EMBEDDING_MAGIC, EMBEDDING_VERSION, FormatError
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
                               dtype="<f4").astype(np.float64)
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
