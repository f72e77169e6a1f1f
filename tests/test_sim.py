import hashlib
import json
import math

import numpy as np
import pytest
from conftest import per_trial_simulate_embeddings
from hypothesis import given, settings, strategies as st
from test_golden import FLOAT_KERNELS, float_kernel_bytes

from sasv.cli import main
from sasv.core import DEFAULT_COST_MODEL, TrialLabel
from sasv.decision import FusionConfig, bayes_accept, fuse
from sasv.nn import cosine_score
from sasv.sim import (DEFAULT_CLASS_MEANS, EmbeddingSimConfig, GridSpec,
                      ScoreSimConfig, boundary_grid, gaussian_draws,
                      make_rng, simulate_embeddings, simulate_scores,
                      split_trials, true_llrs)


class TestGaussianDraws:
    def test_reproducible(self):
        a = gaussian_draws(make_rng(3), 1001)
        b = gaussian_draws(make_rng(3), 1001)
        np.testing.assert_array_equal(a, b)

    def test_moments(self):
        z = gaussian_draws(make_rng(0), 200000)
        assert abs(np.mean(z)) < 0.01
        assert abs(np.std(z) - 1.0) < 0.01
        assert abs(np.mean(z ** 3)) < 0.03  # symmetric

    def test_odd_length(self):
        assert gaussian_draws(make_rng(1), 7).shape == (7,)


class TestScoreSim:
    def test_counts_and_determinism(self):
        cfg = ScoreSimConfig(seed=5)
        a1, c1, l1 = simulate_scores(cfg)
        a2, c2, l2 = simulate_scores(ScoreSimConfig(seed=5))
        assert a1.shape == (6000,)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(c1, c2)
        assert l1 == l2

    def test_class_means_recovered(self):
        cfg = ScoreSimConfig(counts={lbl: 20000 for lbl in
                                     DEFAULT_CLASS_MEANS}, seed=2)
        a, c, labels = simulate_scores(cfg)
        lab = np.array([l.value for l in labels])
        for label, (ma, mc) in DEFAULT_CLASS_MEANS.items():
            mask = lab == label.value
            # CLT: 3 sigma / sqrt(20000) ~ 0.021
            assert abs(np.mean(a[mask]) - ma) < 0.03
            assert abs(np.mean(c[mask]) - mc) < 0.03
            assert abs(np.std(a[mask]) - 1.0) < 0.03

    def test_covariance_respected(self):
        covs = {lbl: np.array([[2.0, 0.8], [0.8, 1.0]])
                for lbl in DEFAULT_CLASS_MEANS}
        cfg = ScoreSimConfig(covs=covs,
                             counts={lbl: 30000 for lbl in
                                     DEFAULT_CLASS_MEANS}, seed=4)
        a, c, labels = simulate_scores(cfg)
        lab = np.array([l.value for l in labels])
        mask = lab == TrialLabel.TARGET.value
        emp = np.cov(np.stack([a[mask], c[mask]]))
        np.testing.assert_allclose(emp, covs[TrialLabel.TARGET], atol=0.06)

    def test_validation(self):
        with pytest.raises(ValueError, match="count"):
            ScoreSimConfig(counts={lbl: 0 for lbl in DEFAULT_CLASS_MEANS})
        bad = {lbl: np.array([[1.0, 2.0], [2.0, 1.0]])
               for lbl in DEFAULT_CLASS_MEANS}
        with pytest.raises(ValueError, match="positive definite"):
            ScoreSimConfig(covs=bad)

    def test_true_llrs_analytic(self):
        cfg = ScoreSimConfig()
        # at the target mean, llr vs nontarget = half squared Mahalanobis
        # distance difference: here means differ by (6,0), unit covariance
        llr_non, llr_spf = true_llrs(cfg, [3.0], [3.0])
        assert llr_non[0] == pytest.approx(0.5 * 36.0, abs=1e-10)
        assert llr_spf[0] == pytest.approx(0.5 * (9.0 + 36.0), abs=1e-10)

    def test_true_llrs_zero_at_midpoint(self):
        cfg = ScoreSimConfig()
        llr_non, _ = true_llrs(cfg, [0.0], [3.0])  # equidistant tar/non
        assert llr_non[0] == pytest.approx(0.0, abs=1e-12)


class TestEmbeddingSim:
    def test_reproducible_and_counts(self):
        cfg = EmbeddingSimConfig(n_target=50, n_nontarget=40, n_spoof=30,
                                 seed=9)
        a1, c1, t1 = simulate_embeddings(cfg)
        a2, c2, t2 = simulate_embeddings(EmbeddingSimConfig(
            n_target=50, n_nontarget=40, n_spoof=30, seed=9))
        assert len(t1) == 120
        assert t1 == t2
        for uid in a1.ids():
            np.testing.assert_array_equal(a1.get(uid), a2.get(uid))
        labels = [t.label for t in t1]
        assert labels.count(TrialLabel.TARGET) == 50
        assert labels.count(TrialLabel.SPOOF) == 30

    def test_all_references_resolve(self):
        asv, cm, trials = simulate_embeddings(EmbeddingSimConfig(
            n_target=30, n_nontarget=30, n_spoof=30))
        for t in trials:
            assert t.enroll_id in asv
            assert t.test_id in asv and t.test_id in cm

    def test_low_noise_separates_classes(self):
        cfg = EmbeddingSimConfig(sigma_w=0.01, delta=1.0, n_target=60,
                                 n_nontarget=60, n_spoof=60, seed=1)
        asv, cm, trials = simulate_embeddings(cfg)
        tar_cos = [cosine_score(asv.get(t.enroll_id), asv.get(t.test_id))
                   for t in trials if t.label is TrialLabel.TARGET]
        non_cos = [cosine_score(asv.get(t.enroll_id), asv.get(t.test_id))
                   for t in trials if t.label is TrialLabel.NONTARGET]
        spf_cos = [cosine_score(asv.get(t.enroll_id), asv.get(t.test_id))
                   for t in trials if t.label is TrialLabel.SPOOF]
        assert min(tar_cos) > 0.99
        assert max(non_cos) < 0.9
        # delta=1 spoofs impersonate the speaker in ASV space
        assert min(spf_cos) > 0.99

    def test_spoofs_shifted_in_cm_space(self):
        cfg = EmbeddingSimConfig(sigma_w=0.05, n_target=50, n_nontarget=50,
                                 n_spoof=50, seed=2)
        _, cm, trials = simulate_embeddings(cfg)
        bona = np.mean([cm.get(t.test_id) for t in trials
                        if t.label is TrialLabel.TARGET], axis=0)
        spoof = np.mean([cm.get(t.test_id) for t in trials
                         if t.label is TrialLabel.SPOOF], axis=0)
        assert np.linalg.norm(bona - spoof) > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EmbeddingSimConfig(delta=1.5)
        with pytest.raises(ValueError):
            EmbeddingSimConfig(sigma_w=0.0)
        with pytest.raises(ValueError):
            EmbeddingSimConfig(d_asv=1)


# sha256 of `simulate --mode embeddings` outputs, taken from the per-trial
# simulator (per_trial_simulate_embeddings): (config, seed) -> digests of
# asv_emb.bin, cm_emb.bin and protocol.tsv
SIM_GOLDEN = [
    ({"n_speakers": 20, "d_asv": 16, "d_cm": 8, "sigma_w": 0.1,
      "delta": 1.0, "cm_margin": 2.0, "n_target": 2000, "n_nontarget": 2000,
      "n_spoof": 2000}, 1, (
        "fec009463d2e4a392ee8fad169b9140abb2eaba610facf7afc8796b17b104f1e",
        "98263e911c5d93233243ee8e7dd8b5720e2e83a029a93bcbcdff951c5ac4aaa8",
        "eaac728b61dff024e353336ccf1f19941e49c8178eabb80619a2e08862f3b04b")),
    # odd dimensions: the last Box-Muller pair of each vector is cut
    ({"n_speakers": 5, "d_asv": 7, "d_cm": 3, "delta": 0.3, "n_target": 13,
      "n_nontarget": 11, "n_spoof": 9}, 3, (
        "2e76a6b23237faec04d4b6a81b23b34d21e04bccb9bc8f854296807b4f1c3ca5",
        "ca0afcc088684fd115f8a7406b683a89fe82986d2454b6a4a14f32e6ed22bf80",
        "6fb05ee17f5893e721484223ab20e2987349daf6f144d17f241d462ed79f2e24")),
    # no nontargets; spoofs point away from their speaker
    ({"n_speakers": 2, "delta": 0.0, "n_target": 10, "n_nontarget": 0,
      "n_spoof": 6}, 1, (
        "8151d9ed16836cb852989bd11105c438810c6b56ba91de20efa3c00631cff2c1",
        "fef754709a06698429e78e3092b2793dc13a5b72b55ac30a772676a23c69cb1c",
        "b6c24f6f3aa771d89b3a0bb38a13560b12f3369ad6d5f2abae00aa356a0f5e46")),
]


@pytest.mark.parametrize("config,seed,golden", SIM_GOLDEN)
def test_simulated_embedding_files_are_pinned(tmp_path, config, seed,
                                              golden):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(config))
    assert main(["simulate", "--mode", "embeddings", "--config", str(path),
                 "--out-dir", str(tmp_path), "--seed", str(seed)]) == 0
    if hashlib.sha256(float_kernel_bytes()).hexdigest() != FLOAT_KERNELS:
        pytest.skip("log/trig kernels round differently from where the "
                    "digests were taken")
    assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in ("asv_emb.bin", "cm_emb.bin", "protocol.tsv")) \
        == golden


def _bits(vectors):
    return np.asarray(vectors, dtype=np.float64).view(np.uint64)


@settings(max_examples=100, deadline=None)
@given(n_speakers=st.integers(2, 5), d_asv=st.integers(2, 7),
       d_cm=st.integers(2, 7),
       delta=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       sigma_w=st.floats(0.01, 2.0), cm_margin=st.floats(0.0, 3.0),
       counts=st.tuples(*[st.integers(0, 6)] * 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_bulk_simulator_matches_per_trial_draws(n_speakers, d_asv, d_cm,
                                                delta, sigma_w, cm_margin,
                                                counts, seed):
    cfg = EmbeddingSimConfig(n_speakers=n_speakers, d_asv=d_asv, d_cm=d_cm,
                             sigma_w=sigma_w, delta=delta,
                             cm_margin=cm_margin, n_target=counts[0],
                             n_nontarget=counts[1], n_spoof=counts[2],
                             seed=seed)
    asv, cm, trials = simulate_embeddings(cfg)
    want_asv, want_cm, want_trials = per_trial_simulate_embeddings(cfg)
    assert [(t.enroll_id, t.test_id, t.label) for t in trials] \
        == want_trials
    for store, want in ((asv, want_asv), (cm, want_cm)):
        assert store.ids() == list(want)
        assert np.array_equal(_bits(store.vectors),
                              _bits(list(want.values())).reshape(
                                  len(want), store.dim))


class TestSplitTrials:
    def test_partition_and_stratification(self):
        _, _, trials = simulate_embeddings(EmbeddingSimConfig(
            n_target=40, n_nontarget=40, n_spoof=40))
        train, dev = split_trials(trials, dev_fraction=0.25, seed=3)
        assert len(train) + len(dev) == len(trials)
        assert set(train).isdisjoint(dev)
        for label in TrialLabel:
            assert sum(t.label is label for t in dev) == 10

    def test_deterministic(self):
        _, _, trials = simulate_embeddings(EmbeddingSimConfig(
            n_target=30, n_nontarget=30, n_spoof=30))
        s1 = split_trials(trials, seed=7)
        s2 = split_trials(trials, seed=7)
        assert s1 == s2

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            split_trials([], dev_fraction=0.0)


class TestBoundaryGrid:
    def test_shape_and_order(self):
        spec = GridSpec(-1, 1, -2, 2, 3, 5)
        rows = boundary_grid(FusionConfig("linear"), DEFAULT_COST_MODEL,
                             spec)
        assert len(rows) == 15
        # row-major: llr_asv varies slowest
        assert rows[0][0] == -1.0 and rows[0][1] == -2.0
        assert rows[4][0] == -1.0 and rows[4][1] == 2.0
        assert rows[5][0] == 0.0

    def test_scores_follow_fusion_rule(self):
        config = FusionConfig("nonlinear", 0.3)
        rows = boundary_grid(config, DEFAULT_COST_MODEL,
                             GridSpec(-2, 2, -2, 2, 5, 5))
        for a, c, s, _ in rows:
            assert s == pytest.approx(fuse(a, c, config), abs=1e-12)

    def test_decisions_follow_bayes_policy(self):
        rows = boundary_grid(FusionConfig("linear"), DEFAULT_COST_MODEL,
                             GridSpec(-4, 4, -4, 4, 9, 9))
        for a, c, _, accept in rows:
            assert accept == bayes_accept(a, c, DEFAULT_COST_MODEL)

    def test_rejects_non_config(self):
        with pytest.raises(ValueError):
            boundary_grid("linear", DEFAULT_COST_MODEL)

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(n_asv=0)
        with pytest.raises(ValueError):
            GridSpec(llr_asv_min=math.inf)
