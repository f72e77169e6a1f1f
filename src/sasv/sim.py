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


def _box_muller(u, d):
    """(rows, d) standard normals from rows of 2 ceil(d/2) uniforms.

    Each row is split into halves u1 and u2; the normals are
    r cos(theta) then r sin(theta), r = sqrt(-2 log(1 - u1)) and
    theta = 2 pi u2, cut to d.
    """
    pairs = (d + 1) // 2
    r = np.sqrt(-2.0 * np.log1p(-u[:, :pairs]))
    theta = 2.0 * math.pi * u[:, pairs:]
    return np.concatenate((r * np.cos(theta), r * np.sin(theta)),
                          axis=1)[:, :d]


def _uniform_count(*dims):
    """Uniforms `_box_muller` takes for vectors of each of dims normals."""
    return sum(2 * ((d + 1) // 2) for d in dims)


def gaussian_draws(rng, n):
    """n standard normal draws via Box-Muller on counter-based uniforms.

    The uniforms are the same on every platform for the same Philox seed;
    the draws are not bit-stable, because numpy's log1p/cos/sin may round
    differently in the last bit on different CPUs (its AVX-512 and AVX2
    loops do).
    """
    return _box_muller(rng.random((1, _uniform_count(n))), n)[0]


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
            if isinstance(count, bool) \
                    or not isinstance(count, numbers.Integral) or count < 1:
                raise ValueError(f"count for {label.value} must be an "
                                 "integer >= 1")
            try:
                mean = np.asarray(self.means[label], dtype=np.float64)
                cov = np.asarray(self.covs[label], dtype=np.float64)
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"mean and covariance for {label.value} "
                                 "must be numbers") from None
            if mean.shape != (2,) or not np.all(np.isfinite(mean)):
                raise ValueError(f"mean for {label.value} must be two "
                                 "finite numbers")
            with np.errstate(all="ignore"):  # inf or a huge asymmetry
                symmetric = cov.shape == (2, 2) and np.allclose(cov, cov.T)
            if not (symmetric and np.all(np.isfinite(cov))):
                raise ValueError(f"covariance for {label.value} must be "
                                 "finite symmetric 2x2")
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
            if isinstance(value, bool) or not isinstance(value, kind) \
                    or not abs(value) < math.inf:
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


def _unit_rows(v):
    """Each row of v over its own np.linalg.norm."""
    return v / np.array([np.linalg.norm(row) for row in v]).reshape(-1, 1)


def _normal_blocks(u, *dims):
    """Split rows of uniforms into one (rows, d) normal block per d in dims.

    Block d takes the next 2 ceil(d/2) uniforms of each row, so a row holds
    the draws that one `gaussian_draws` call per d would make in turn.
    """
    blocks, start = [], 0
    for d in dims:
        stop = start + _uniform_count(d)
        blocks.append(_box_muller(u[:, start:stop], d))
        start = stop
    return blocks


def simulate_embeddings(cfg):
    """Build (asv EmbeddingStore, cm EmbeddingStore, protocol trials).

    Draw order from the Philox stream: the speaker means, the bonafide CM
    mean, the spoof CM direction and the enrolment vectors; then per target
    its ASV and CM draws; per nontarget the impostor speaker (rng.integers)
    and its ASV and CM draws; per spoof its ASV "away" direction, ASV and
    CM draws.  Each class is drawn as one matrix of uniforms (the
    nontargets row by row, since their integer draws interleave), and each
    row's draws are those of one `gaussian_draws` call per vector.
    """
    rng = make_rng(cfg.seed)
    n_spk, d_asv, d_cm = cfg.n_speakers, cfg.d_asv, cfg.d_cm
    noise = cfg.sigma_w

    def normals(rows, *dims):
        return _normal_blocks(rng.random((rows, _uniform_count(*dims))),
                              *dims)

    spk_means = _unit_rows(*normals(n_spk, d_asv))
    bon_cm_mean = _unit(gaussian_draws(rng, d_cm))
    # displace spoofs along a direction orthogonal to the bonafide mean
    raw = gaussian_draws(rng, d_cm)
    ortho = _unit(raw - np.dot(raw, bon_cm_mean) * bon_cm_mean)
    spf_cm_mean = bon_cm_mean - cfg.cm_margin * ortho
    (enrol,) = normals(n_spk, d_asv)
    asv_rows, cm_rows = [spk_means + noise * enrol], []

    # trial t of each class is enrolled to speaker t mod n_speakers
    tar_spk = np.arange(cfg.n_target) % n_spk
    z_asv, z_cm = normals(cfg.n_target, d_asv, d_cm)
    asv_rows.append(spk_means[tar_spk] + noise * z_asv)
    cm_rows.append(bon_cm_mean + noise * z_cm)

    non_spk = np.arange(cfg.n_nontarget) % n_spk
    impostor = np.empty(cfg.n_nontarget, np.intp)
    u = np.empty((cfg.n_nontarget, _uniform_count(d_asv, d_cm)))
    for t in range(cfg.n_nontarget):
        impostor[t] = rng.integers(n_spk - 1)
        rng.random(out=u[t])
    z_asv, z_cm = _normal_blocks(u, d_asv, d_cm)
    asv_rows.append(spk_means[(non_spk + 1 + impostor) % n_spk]
                    + noise * z_asv)
    cm_rows.append(bon_cm_mean + noise * z_cm)

    spf_spk = np.arange(cfg.n_spoof) % n_spk
    z_away, z_asv, z_cm = normals(cfg.n_spoof, d_asv, d_asv, d_cm)
    base = cfg.delta * spk_means[spf_spk] \
        + (1.0 - cfg.delta) * _unit_rows(z_away)
    asv_rows.append(base + noise * z_asv)
    cm_rows.append(spf_cm_mean + noise * z_cm)

    enrol_ids = [f"spk{i:03d}-enr" for i in range(n_spk)]
    speakers = np.concatenate((tar_spk, non_spk, spf_spk)).tolist()
    labels = ([TrialLabel.TARGET] * cfg.n_target
              + [TrialLabel.NONTARGET] * cfg.n_nontarget
              + [TrialLabel.SPOOF] * cfg.n_spoof)
    test_ids = [f"utt{k:06d}" for k in range(len(labels))]
    trials = [TrialRecord(enrol_ids[i], test_id, label)
              for i, test_id, label in zip(speakers, test_ids, labels)]
    asv_store = EmbeddingStore(d_asv, enrol_ids + test_ids,
                               np.concatenate(asv_rows))
    cm_store = EmbeddingStore(d_cm, test_ids, np.concatenate(cm_rows))
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


def _grid_axis(start, stop, n):
    """np.linspace(start, stop, n); where stop - start overflows, the
    finite (1 - t) start + t stop at the same fractions t."""
    if math.isfinite(stop - start):
        return np.linspace(start, stop, n)
    t = np.linspace(0.0, 1.0, n)
    return (1.0 - t) * start + t * stop


def boundary_grid(fusion, cost_model, spec=GridSpec()):
    """Row-major (llr_asv, llr_cm, s_sasv, accept) tuples over the grid.

    `fusion` is a FusionConfig; the accept flag always follows the Bayes
    policy of the cost model at the node's LLR pair.  Raises ValueError
    naming the first node whose LLRs or fused score are not finite.
    """
    from .decision import fuse

    if not isinstance(fusion, FusionConfig):
        raise ValueError("fusion must be a FusionConfig")
    with np.errstate(all="ignore"):  # a non-finite node is named below
        a, c = np.meshgrid(
            _grid_axis(spec.llr_asv_min, spec.llr_asv_max, spec.n_asv),
            _grid_axis(spec.llr_cm_min, spec.llr_cm_max, spec.n_cm),
            indexing="ij")
        s = fuse(a, c, fusion)
        accept = bayes_accept(a, c, cost_model)
    bad = ~(np.isfinite(a) & np.isfinite(c) & np.isfinite(s))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"grid node {i} (llr_asv {a.flat[i]}, llr_cm "
                         f"{c.flat[i]}) is not finite: s_sasv is {s.flat[i]}")
    return list(zip(a.ravel().tolist(), c.ravel().tolist(),
                    s.ravel().tolist(), accept.ravel().tolist()))
