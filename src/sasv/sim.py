"""Synthetic trials in score space and embedding space, plus boundary grids."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .core import LABELS, EmbeddingStore, TrialLabel, TrialRecord
from .decision import FusionConfig, bayes_accept

# Default score-space geometry: spoof trials separated mainly along the CM
# axis, targets/nontargets along the ASV axis.
DEFAULT_CLASS_MEANS = {
    TrialLabel.TARGET: (3.0, 3.0),
    TrialLabel.NONTARGET: (-3.0, 3.0),
    TrialLabel.SPOOF: (0.0, -3.0),
}


def gaussian_draws(rng, n):
    """n standard normal draws via Box-Muller on counter-based uniforms.

    The uniforms are the same on every platform for the same Philox seed;
    the draws are not bit-stable, because numpy's log1p/cos/sin may round
    differently in the last bit on different CPUs (its AVX-512 and AVX2
    loops do).
    """
    pairs = (n + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    theta = 2.0 * math.pi * u2
    z = np.concatenate((r * np.cos(theta), r * np.sin(theta)))
    return z[:n]


def make_rng(seed):
    return np.random.Generator(np.random.Philox(seed))


@dataclass
class ScoreSimConfig:
    """Per-class 2-D Gaussians over (llr_asv, llr_cm)."""

    means: dict = field(default_factory=lambda: dict(DEFAULT_CLASS_MEANS))
    covs: dict = field(default_factory=lambda: {
        label: np.eye(2) for label in DEFAULT_CLASS_MEANS})
    counts: dict = field(default_factory=lambda: {
        label: 2000 for label in DEFAULT_CLASS_MEANS})
    seed: int = 0

    def __post_init__(self):
        for label in LABELS:
            count = self.counts[label]
            if not isinstance(count, numbers.Integral) or count < 1:
                raise ValueError(f"count for {label.value} must be an "
                                 "integer >= 1")
            try:
                mean = np.asarray(self.means[label], dtype=np.float64)
                cov = np.asarray(self.covs[label], dtype=np.float64)
            except (TypeError, ValueError):
                raise ValueError(f"mean and covariance for {label.value} "
                                 "must be numbers") from None
            if mean.shape != (2,) or not np.all(np.isfinite(mean)):
                raise ValueError(f"mean for {label.value} must be two "
                                 "finite numbers")
            if cov.shape != (2, 2) or not np.allclose(cov, cov.T):
                raise ValueError(f"covariance for {label.value} must be "
                                 "symmetric 2x2")
            if np.any(np.linalg.eigvalsh(cov) <= 0):
                raise ValueError(f"covariance for {label.value} is not "
                                 "positive definite")


def simulate_scores(cfg):
    """Seeded per-class Gaussian draws; returns (llr_asv, llr_cm, labels)."""
    rng = make_rng(cfg.seed)
    llr_asv, llr_cm, labels = [], [], []
    for label in LABELS:
        n = cfg.counts[label]
        cov = np.asarray(cfg.covs[label], dtype=np.float64)
        chol = np.linalg.cholesky(cov)
        z = gaussian_draws(rng, 2 * n).reshape(2, n)
        xy = np.asarray(cfg.means[label], dtype=np.float64)[:, None] + chol @ z
        llr_asv.append(xy[0])
        llr_cm.append(xy[1])
        labels.extend([label] * n)
    return np.concatenate(llr_asv), np.concatenate(llr_cm), labels


def true_llrs(cfg, llr_asv, llr_cm):
    """Exact class LLRs of points under the generating Gaussians.

    Returns (llr target-vs-nontarget, llr target-vs-spoof), the inputs the
    analytic Bayes rule needs on simulated data.
    """
    pts = np.stack([np.asarray(llr_asv, dtype=np.float64),
                    np.asarray(llr_cm, dtype=np.float64)], axis=1)

    def logpdf(label):
        mean = np.asarray(cfg.means[label], dtype=np.float64)
        cov = np.asarray(cfg.covs[label], dtype=np.float64)
        inv = np.linalg.inv(cov)
        _, logdet = np.linalg.slogdet(cov)
        d = pts - mean
        return -0.5 * (np.einsum("ni,ij,nj->n", d, inv, d)
                       + logdet + 2.0 * math.log(2.0 * math.pi))

    lp_tar = logpdf(TrialLabel.TARGET)
    return (lp_tar - logpdf(TrialLabel.NONTARGET),
            lp_tar - logpdf(TrialLabel.SPOOF))


@dataclass
class EmbeddingSimConfig:
    """Desk-scale stand-in for frozen extractor outputs.

    delta controls how closely spoof test embeddings impersonate the attacked
    speaker in ASV space (1 = indistinguishable); cm_margin is the spoof
    displacement in CM space.
    """

    n_speakers: int = 20
    d_asv: int = 16
    d_cm: int = 8
    sigma_w: float = 0.1
    delta: float = 1.0
    cm_margin: float = 2.0
    n_target: int = 200
    n_nontarget: int = 200
    n_spoof: int = 200
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            kind = numbers.Integral if isinstance(f.default, int) \
                else numbers.Real
            value = getattr(self, f.name)
            if not isinstance(value, kind) or not abs(value) < math.inf:
                raise ValueError(f"{f.name} must be a finite {f.type}")
        if self.d_asv < 2 or self.d_cm < 2:
            raise ValueError("embedding dims must be >= 2")
        if self.sigma_w <= 0:
            raise ValueError("sigma_w must be positive")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0,1]")
        if self.n_speakers < 2:
            raise ValueError("need at least two speakers")


def _unit(v):
    return v / np.linalg.norm(v)


def simulate_embeddings(cfg):
    """Build (asv EmbeddingStore, cm EmbeddingStore, protocol trials)."""
    rng = make_rng(cfg.seed)

    def draws(shape):
        return gaussian_draws(rng, int(np.prod(shape))).reshape(shape)

    spk_means = np.stack([_unit(draws((cfg.d_asv,)))
                          for _ in range(cfg.n_speakers)])
    bon_cm_mean = _unit(draws((cfg.d_cm,)))
    # displace spoofs along a direction orthogonal to the bonafide mean
    raw = draws((cfg.d_cm,))
    ortho = _unit(raw - np.dot(raw, bon_cm_mean) * bon_cm_mean)
    spf_cm_mean = bon_cm_mean - cfg.cm_margin * ortho

    asv_store = EmbeddingStore(cfg.d_asv)
    cm_store = EmbeddingStore(cfg.d_cm)
    for i in range(cfg.n_speakers):
        asv_store.add(f"spk{i:03d}-enr",
                      spk_means[i] + cfg.sigma_w * draws((cfg.d_asv,)))

    trials = []
    counter = 0

    def add_test(asv_vec, cm_vec):
        nonlocal counter
        test_id = f"utt{counter:06d}"
        counter += 1
        asv_store.add(test_id, asv_vec)
        cm_store.add(test_id, cm_vec)
        return test_id

    def speaker_of(k):
        return int(k) % cfg.n_speakers

    for t in range(cfg.n_target):
        i = speaker_of(t)
        test_id = add_test(spk_means[i] + cfg.sigma_w * draws((cfg.d_asv,)),
                           bon_cm_mean + cfg.sigma_w * draws((cfg.d_cm,)))
        trials.append(TrialRecord(f"spk{i:03d}-enr", test_id,
                                  TrialLabel.TARGET))
    for t in range(cfg.n_nontarget):
        i = speaker_of(t)
        j = speaker_of(i + 1 + int(rng.integers(cfg.n_speakers - 1)))
        test_id = add_test(spk_means[j] + cfg.sigma_w * draws((cfg.d_asv,)),
                           bon_cm_mean + cfg.sigma_w * draws((cfg.d_cm,)))
        trials.append(TrialRecord(f"spk{i:03d}-enr", test_id,
                                  TrialLabel.NONTARGET))
    for t in range(cfg.n_spoof):
        i = speaker_of(t)
        away = _unit(draws((cfg.d_asv,)))
        base = cfg.delta * spk_means[i] + (1.0 - cfg.delta) * away
        test_id = add_test(base + cfg.sigma_w * draws((cfg.d_asv,)),
                           spf_cm_mean + cfg.sigma_w * draws((cfg.d_cm,)))
        trials.append(TrialRecord(f"spk{i:03d}-enr", test_id,
                                  TrialLabel.SPOOF))
    return asv_store, cm_store, trials


def split_trials(trials, dev_fraction=0.5, seed=0):
    """Deterministic per-class split of a trial list into (train, dev)."""
    if not 0.0 < dev_fraction < 1.0:
        raise ValueError("dev_fraction must lie in (0,1)")
    rng = make_rng(seed)
    train, dev = [], []
    for label in LABELS:
        subset = [t for t in trials if t.label is label]
        order = np.arange(len(subset))
        rng.shuffle(order)
        n_dev = max(1, int(round(dev_fraction * len(subset))))
        dev_idx = set(order[:n_dev].tolist())
        for k, t in enumerate(subset):
            (dev if k in dev_idx else train).append(t)
    return train, dev


@dataclass(frozen=True)
class GridSpec:
    llr_asv_min: float = -8.0
    llr_asv_max: float = 8.0
    llr_cm_min: float = -8.0
    llr_cm_max: float = 8.0
    n_asv: int = 81
    n_cm: int = 81

    def __post_init__(self):
        if self.n_asv < 1 or self.n_cm < 1:
            raise ValueError("grid resolution must be positive")
        if not (math.isfinite(self.llr_asv_min)
                and math.isfinite(self.llr_asv_max)
                and math.isfinite(self.llr_cm_min)
                and math.isfinite(self.llr_cm_max)):
            raise ValueError("grid bounds must be finite")


def boundary_grid(fusion, cost_model, spec=GridSpec()):
    """Row-major (llr_asv, llr_cm, s_sasv, accept) tuples over the grid.

    `fusion` is a FusionConfig; the accept flag always follows the Bayes
    policy of the cost model at the node's LLR pair.
    """
    from .decision import fuse

    if not isinstance(fusion, FusionConfig):
        raise ValueError("fusion must be a FusionConfig")
    a, c = np.meshgrid(
        np.linspace(spec.llr_asv_min, spec.llr_asv_max, spec.n_asv),
        np.linspace(spec.llr_cm_min, spec.llr_cm_max, spec.n_cm),
        indexing="ij")
    s = fuse(a, c, fusion)
    accept = bayes_accept(a, c, cost_model)
    return list(zip(a.ravel().tolist(), c.ravel().tolist(),
                    s.ravel().tolist(), accept.ravel().tolist()))
