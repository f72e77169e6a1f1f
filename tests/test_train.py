import math
import re
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import check_grad
from sasv.core import DEFAULT_COST_MODEL, NONTARGET, SPOOF, TARGET, \
    CostModel, TrialLabel, label_codes
from sasv.decision import CalibrationParams, fuse_nonlinear
from sasv.losses import bce_logits_mean
from sasv.metrics import min_adcf
from sasv.sim import EmbeddingSimConfig, simulate_embeddings, split_trials
from sasv.train import (ARCHITECTURES, Checkpoint, ModelParams,
                        OptimizerState, TrainConfig, TrainingDiverged,
                        adam_step, apply_dict, backward_batch, forward_batch,
                        init_model, pretrain_heads, score_trials, sgd_step,
                        train_joint, trainable_dict, tune_fusion_rho,
                        _stratified_batches, _batch_loss_and_grads,
                        _param_refs, _pretrain_loss_and_grads, _ParamVector)
from sasv.sim import make_rng
import sasv.train

SMALL_HIDDEN = (6, 4)


def tiny_setup(arch="wcos-mlp", fusion="nonlinear", seed=0, **cfg_kwargs):
    cfg = TrainConfig(architecture=arch, fusion_mode=fusion, seed=seed,
                      **cfg_kwargs)
    sim = EmbeddingSimConfig(n_speakers=5, d_asv=4, d_cm=3, n_target=24,
                             n_nontarget=24, n_spoof=24, seed=seed)
    asv, cm, trials = simulate_embeddings(sim)
    train, dev = split_trials(trials, 0.5, seed=seed)
    return cfg, asv, cm, train, dev


def tiny_model(cfg, d_asv, d_cm, seed=0):
    """init_model but with small MLPs so finite differences stay cheap."""
    from sasv.nn import init_mlp
    rng = make_rng(seed)
    model = init_model(cfg, d_asv, d_cm, rng)
    rng = make_rng(seed + 100)
    if model.asv_mlp is not None:
        model.asv_mlp = init_mlp(2 * d_asv, SMALL_HIDDEN, rng, "tanh")
    model.cm_mlp = init_mlp(d_asv + d_cm, SMALL_HIDDEN, rng, "tanh")
    model.validate()
    return model


class TestOptimizers:
    def test_sgd_step(self):
        p = np.array([1.0, 2.0, 3.0])
        sgd_step(p, np.array([0.5, -0.5, 1.0]), lr=0.1)
        np.testing.assert_allclose(p, [0.95, 2.05, 2.9])

    def test_sgd_shape_mismatch(self):
        with pytest.raises(ValueError, match="gradient shape"):
            sgd_step(np.zeros(2), np.zeros(3), 0.1)
        with pytest.raises(ValueError, match="gradient shape"):
            adam_step(np.zeros(2), np.zeros(1), OptimizerState("adam", 0.1))

    def test_adam_matches_scalar_reference(self):
        # hand-rolled scalar Adam on f(p) = p^2
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p_ref, m, v = 1.0, 0.0, 0.0
        trace = []
        for t in range(1, 6):
            g = 2.0 * p_ref
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            p_ref = p_ref - lr * m_hat / (math.sqrt(v_hat) + eps)
            trace.append(p_ref)

        state = OptimizerState("adam", lr)
        p = np.array([1.0])
        for expected in trace:
            state.step(p, 2.0 * p)
            assert p[0] == pytest.approx(expected, rel=1e-12)

    def test_adam_first_step_is_signed_lr(self):
        state = OptimizerState("adam", 0.01)
        p = np.array([0.0])
        adam_step(p, np.array([123.0]), state)
        # bias correction makes the first step ~ lr * sign(g)
        assert p[0] == pytest.approx(-0.01, rel=1e-6)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_arrays_update_in_place(self, kind):
        p = np.array([1.0, 2.0, 3.0])
        out = OptimizerState(kind, 0.1).step(p, np.array([0.5, -0.5, 1.0]))
        assert out is p and p[0] < 1.0 and p[1] > 2.0 and p[2] < 3.0

    def test_adam_in_place_gives_the_formula_bits(self):
        rng = np.random.default_rng(4)
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        p = rng.normal(size=(7, 5))
        state = OptimizerState("adam", lr)
        ref, m, v = p.copy(), np.zeros_like(p), np.zeros_like(p)
        for t in range(1, 6):
            g = rng.normal(size=p.shape) * 10.0 ** rng.integers(-8, 8,
                                                                p.shape)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref = ref - lr * (m / (1 - b1 ** t)) / (
                np.sqrt(v / (1 - b2 ** t)) + eps)
            state.step(p, g)
            assert p.tobytes() == ref.tobytes()

    def test_optimizer_validation(self):
        with pytest.raises(ValueError):
            OptimizerState("rmsprop", 0.1)
        for lr in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                OptimizerState("sgd", lr)


class TestModelParams:
    def test_validate_architecture_requirements(self):
        cfg = TrainConfig(architecture="wcos-mlp")
        model = init_model(cfg, 4, 3)
        assert model.w_asv.shape == (4,)
        model.w_asv = None
        with pytest.raises(ValueError, match="weight vector"):
            model.validate()

    def test_mlp_mlp_input_dims(self):
        cfg = TrainConfig(architecture="mlp-mlp")
        model = init_model(cfg, 4, 3)
        assert model.asv_mlp.input_dim == 8
        assert model.cm_mlp.input_dim == 7

    def test_rho_tilde_default_tracks_cost_model(self):
        cfg = TrainConfig()
        model = init_model(cfg, 4, 3)
        assert model.rho_tilde == pytest.approx(DEFAULT_COST_MODEL.rho,
                                                abs=1e-9)

    def test_copy_is_deep_for_arrays(self):
        cfg = TrainConfig(architecture="wcos-mlp")
        model = init_model(cfg, 4, 3)
        clone = model.copy()
        clone.w_asv[0] = 99.0
        assert model.w_asv[0] != 99.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(architecture="resnet")
        with pytest.raises(ValueError):
            TrainConfig(loss_variant="v3")
        with pytest.raises(ValueError):
            TrainConfig(optimizer="adagrad")


class TestBatchSize:
    @pytest.mark.parametrize("bad", [0, -1, 1.5, "8", None])
    def test_must_be_a_positive_integer(self, bad):
        with pytest.raises(ValueError, match="batch size"):
            TrainConfig(batch_size=bad)

    def test_numpy_integers_are_accepted(self):
        assert TrainConfig(batch_size=np.int64(4)).batch_size == 4


class TestEpochs:
    @pytest.mark.parametrize("bad", [-1, -5, 1.5, "8", None])
    def test_must_be_a_non_negative_integer(self, bad):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=bad)

    @pytest.mark.parametrize("good", [0, 3, np.int64(2)])
    def test_zero_and_positive_integers_are_accepted(self, good):
        assert TrainConfig(epochs=good).epochs == good


class TestParamDicts:
    def test_round_trip_all(self):
        cfg = TrainConfig(architecture="mlp-mlp", fusion_mode="nonlinear")
        model = tiny_model(cfg, 4, 3)
        d = trainable_dict(model)
        assert "rho_logit" in d and "tau" in d and "asv_mlp.w0" in d
        d["tau"] = np.float64(0.7)
        d["asv_calib.w1"] = np.float64(2.0)
        apply_dict(model, d)
        assert model.tau == 0.7
        assert model.asv_calib.w1 == 2.0

    def test_apply_copies_into_the_models_own_arrays(self):
        cfg = TrainConfig(architecture="mlp-mlp")
        model = tiny_model(cfg, 4, 3)
        own = {key: v for key, v in trainable_dict(model).items()
               if np.ndim(v)}
        refs = {key: v for key, v in _param_refs(model).items()
                if np.ndim(v)}
        d = trainable_dict(model)
        for value in d.values():
            value += 1.0
        apply_dict(model, d)
        after = _param_refs(model)
        for key, value in refs.items():
            assert after[key] is value, key
            assert not np.shares_memory(value, d[key]), key
            np.testing.assert_array_equal(value, own[key] + 1.0)
        d["cm_mlp.w0"][0, 0] = 99.0  # the model keeps its copy
        assert model.cm_mlp.weights[0][0, 0] != 99.0

    def test_apply_skips_the_models_own_arrays(self):
        model = tiny_model(TrainConfig(architecture="wcos-mlp"), 4, 3)
        refs = _param_refs(model)
        w_asv = model.w_asv.copy()
        refs["tau"] = np.float64(0.25)
        apply_dict(model, refs)
        assert model.w_asv is refs["w_asv"]
        np.testing.assert_array_equal(model.w_asv, w_asv)
        assert model.tau == 0.25

    @pytest.mark.parametrize("key", ["w_asv", "cm_mlp.w0", "cm_mlp.b1"])
    def test_apply_wrong_shape_raises(self, key):
        model = tiny_model(TrainConfig(architecture="wcos-mlp"), 4, 3)
        d = trainable_dict(model)
        d[key] = np.zeros(d[key].size + 1)
        with pytest.raises(ValueError, match=f"shape mismatch for '{key}'"):
            apply_dict(model, d)

    @pytest.mark.parametrize("branch", ["asv", "cm"])
    def test_apply_branch_dict_leaves_other_keys(self, branch):
        model = tiny_model(TrainConfig(architecture="mlp-mlp"), 4, 3)
        before = trainable_dict(model)
        d = trainable_dict(model, branch)
        for key in d:
            d[key] = d[key] + 0.5
        apply_dict(model, d)
        after = trainable_dict(model)
        assert set(after) == set(before)
        for key in before:
            expected = d[key] if key in d else before[key]
            assert np.asarray(after[key]).tobytes() == \
                np.asarray(expected).tobytes(), key

    @pytest.mark.parametrize("branch", ["all", "asv", "cm"])
    def test_vector_holds_the_trainables_in_layout_order(self, branch):
        """The model's arrays are views into one vector laid out as
        `_param_refs`; the MLP gradients are written into the gradient
        vector, not copied there."""
        cfg, asv, cm, train, _ = tiny_setup(arch="mlp-mlp")
        model = tiny_model(cfg, asv.dim, cm.dim)
        before = trainable_dict(model, branch)
        vector = _ParamVector(model, branch)
        assert vector.p.tobytes() == b"".join(
            np.asarray(v).tobytes() for v in before.values())
        refs = _param_refs(model, branch)
        assert list(refs) == list(vector.params) == list(before)
        for key, value in refs.items():
            if np.ndim(value):
                assert value is vector.params[key], key
        e = [asv.matrix([t.enroll_id for t in train]),
             asv.matrix([t.test_id for t in train]),
             cm.matrix([t.test_id for t in train])]
        codes = label_codes([t.label for t in train])
        works = vector.works(model, codes.size)
        if branch == "all":
            s, cache = forward_batch(model, *e, works)
            _, grads = _batch_loss_and_grads(model, cfg, s, cache, codes)
        else:
            _, grads = _pretrain_loss_and_grads(
                model, branch, *e, (codes == TARGET).astype(float),
                works[branch])
        assert set(grads) == set(vector.grads)
        for key, view in vector.grads.items():
            if "_mlp." in key:
                assert grads[key] is view, key

    def test_linear_fusion_has_no_rho(self):
        cfg = TrainConfig(architecture="wcos-mlp", fusion_mode="linear")
        model = tiny_model(cfg, 4, 3)
        assert "rho_logit" not in trainable_dict(model)

    def test_branch_subsets(self):
        cfg = TrainConfig(architecture="wcos-mlp")
        model = tiny_model(cfg, 4, 3)
        asv_keys = set(trainable_dict(model, "asv"))
        cm_keys = set(trainable_dict(model, "cm"))
        assert asv_keys == {"w_asv", "asv_calib.w0", "asv_calib.w1"}
        assert "cm_mlp.w0" in cm_keys and "asv_calib.w0" not in cm_keys

    def test_cosine_arch_has_no_asv_head_params(self):
        cfg = TrainConfig(architecture="cosine-mlp")
        model = tiny_model(cfg, 4, 3)
        d = trainable_dict(model)
        assert "w_asv" not in d and "asv_mlp.w0" not in d
        assert "asv_calib.w0" in d


class TestForwardBackward:
    @pytest.mark.parametrize("arch", ["mlp-mlp", "cosine-mlp", "wcos-mlp"])
    @pytest.mark.parametrize("fusion", ["linear", "nonlinear"])
    def test_forward_matches_manual_pipeline(self, arch, fusion):
        cfg, asv, cm, train, _ = tiny_setup(arch=arch, fusion=fusion)
        model = tiny_model(cfg, asv.dim, cm.dim)
        model.fusion_mode = fusion
        s, llr_a, llr_c, _ = score_trials(model, asv, cm, train)
        if fusion == "linear":
            expected = (llr_a + llr_c) / math.sqrt(6.0)
        else:
            expected = fuse_nonlinear(llr_a, llr_c, model.rho_tilde)
        np.testing.assert_allclose(s, expected, rtol=1e-12)

    @pytest.mark.parametrize("arch", ["mlp-mlp", "wcos-mlp"])
    @pytest.mark.parametrize("fusion,variant",
                             [("nonlinear", "v1"), ("linear", "v1"),
                              ("nonlinear", "v2")])
    def test_full_graph_gradients(self, arch, fusion, variant):
        cfg, asv, cm, train, _ = tiny_setup(arch=arch, fusion=fusion,
                                            loss_variant=variant)
        model = tiny_model(cfg, asv.dim, cm.dim)
        model.fusion_mode = fusion
        batch = []
        for label in TrialLabel:
            batch += [t for t in train if t.label is label][:4]
        e_enr = asv.matrix([t.enroll_id for t in batch])
        e_ta = asv.matrix([t.test_id for t in batch])
        e_tc = cm.matrix([t.test_id for t in batch])
        labels = [t.label for t in batch]
        assert len({l for l in labels}) == 3

        s, cache = forward_batch(model, e_enr, e_ta, e_tc)
        _, grads = _batch_loss_and_grads(model, cfg, s, cache, labels)

        def loss_at(pdict):
            probe = model.copy()
            apply_dict(probe, pdict)
            s2, cache2 = forward_batch(probe, e_enr, e_ta, e_tc)
            val, _ = _batch_loss_and_grads(probe, cfg, s2, cache2, labels)
            return val

        base = trainable_dict(model)
        h = 1e-6
        for key in base:
            flat = np.atleast_1d(np.asarray(base[key], dtype=np.float64))
            g_flat = np.atleast_1d(np.asarray(grads[key], dtype=np.float64))
            for idx in np.ndindex(flat.shape):
                probe = {k: np.copy(v) for k, v in base.items()}
                arr = np.atleast_1d(probe[key])
                arr[idx] += h
                probe[key] = arr if np.ndim(base[key]) else np.float64(arr[0])
                up = loss_at(probe)
                arr[idx] -= 2 * h
                probe[key] = arr if np.ndim(base[key]) else np.float64(arr[0])
                down = loss_at(probe)
                check_grad(g_flat[idx], (up - down) / (2 * h))


class TestStratifiedBatches:
    def test_every_batch_has_all_classes(self):
        labels = [TrialLabel.TARGET] * 50 + [TrialLabel.NONTARGET] * 7 + \
            [TrialLabel.SPOOF] * 5
        batches = _stratified_batches(labels, 16, make_rng(0))
        assert sum(len(b) for b in batches) == 62
        seen = np.zeros(62, dtype=int)
        for b in batches:
            present = {labels[i] for i in b}
            assert present == set(TrialLabel)
            seen[b] += 1
        assert np.all(seen == 1)

    def test_codes_give_the_same_batches_as_labels(self):
        labels = [list(TrialLabel)[i] for i in make_rng(1).integers(0, 3, 90)]
        by_label = _stratified_batches(labels, 16, make_rng(0))
        by_code = _stratified_batches(label_codes(labels), 16, make_rng(0))
        assert len(by_label) == len(by_code)
        for x, y in zip(by_label, by_code):
            np.testing.assert_array_equal(x, y)

    def test_batch_count_capped_by_smallest_class(self):
        labels = [TrialLabel.TARGET] * 100 + [TrialLabel.NONTARGET] * 100 + \
            [TrialLabel.SPOOF] * 2
        batches = _stratified_batches(labels, 10, make_rng(0))
        assert len(batches) == 2


class TestTrainJoint:
    def test_deterministic_runs(self):
        cfg, asv, cm, train, dev = tiny_setup(epochs=3, batch_size=16)
        ck1, log1 = train_joint(cfg, asv, cm, train, dev)
        ck2, log2 = train_joint(cfg, asv, cm, train, dev)
        assert log1 == log2
        np.testing.assert_array_equal(ck1.model.w_asv, ck2.model.w_asv)
        assert ck1.model.tau == ck2.model.tau

    def test_best_checkpoint_tracks_log(self):
        cfg, asv, cm, train, dev = tiny_setup(epochs=5, batch_size=16,
                                              optimizer="sgd", lr=0.2)
        ckpt, log = train_joint(cfg, asv, cm, train, dev)
        assert ckpt.dev_min_adcf == min(e["dev_min_adcf"] for e in log)
        assert any(e["epoch"] == ckpt.epoch
                   and e["dev_min_adcf"] == ckpt.dev_min_adcf for e in log)

    def test_training_reduces_dev_cost(self):
        cfg, asv, cm, train, dev = tiny_setup(epochs=20, batch_size=24,
                                              optimizer="sgd", lr=0.3)
        model0 = init_model(cfg, asv.dim, cm.dim)
        s0, _, _, labels0 = score_trials(model0, asv, cm, dev)
        before = min_adcf(s0, labels0, cfg.cost_model).min_adcf
        ckpt, _ = train_joint(cfg, asv, cm, train, dev)
        assert ckpt.dev_min_adcf <= before

    def test_zero_epochs_is_unevaluated(self):
        cfg, asv, cm, train, dev = tiny_setup(epochs=0)
        ckpt, log = train_joint(cfg, asv, cm, train, dev)
        assert log == []
        assert ckpt.epoch == 0
        assert ckpt.dev_min_adcf is None and ckpt.dev_threshold is None

    def test_missing_embedding_rejected(self):
        cfg, asv, cm, train, dev = tiny_setup()
        bad = train[0].__class__("ghost-enr", train[0].test_id,
                                 train[0].label)
        with pytest.raises(KeyError, match="unknown embedding"):
            train_joint(cfg, asv, cm, [bad] + train, dev)

    def test_missing_class_rejected(self):
        cfg, asv, cm, train, dev = tiny_setup()
        no_spoof = [t for t in train if t.label is not TrialLabel.SPOOF]
        with pytest.raises(ValueError, match="lacks"):
            train_joint(cfg, asv, cm, no_spoof, dev)

    def test_divergence_names_phase_epoch_and_batch(self):
        cfg, asv, cm, train, dev = tiny_setup(epochs=3, batch_size=16,
                                              optimizer="sgd", lr=1e300)
        with np.errstate(all="ignore"), pytest.raises(
                TrainingDiverged,
                match=r"^joint training diverged at epoch \d+, batch \d+: "):
            train_joint(cfg, asv, cm, train, dev)

    def test_divergence_carries_the_finished_epochs(self):
        cfg, asv, cm, train, dev = tiny_setup(seed=1, epochs=4,
                                              batch_size=24, optimizer="sgd",
                                              lr=1e4)
        with np.errstate(all="ignore"), pytest.raises(
                TrainingDiverged) as info:
            train_joint(cfg, asv, cm, train, dev)
        epoch = int(re.search(r"at epoch (\d+),", str(info.value)).group(1))
        assert epoch > 1
        assert [e["epoch"] for e in info.value.log] == \
            list(range(1, epoch))
        # the finished epochs are the ones a run that stops before the
        # diverging epoch logs
        with np.errstate(all="ignore"):
            _, log = train_joint(replace(cfg, epochs=epoch - 1), asv, cm,
                                 train, dev)
        assert info.value.log == log

    def test_a_weight_going_non_finite_is_named_at_its_batch(self,
                                                            monkeypatch):
        """A weight that turns infinite stops training at the batch that
        made it, before any loss is infinite or NaN."""
        cfg, asv, cm, train, dev = tiny_setup(epochs=3, batch_size=8,
                                              optimizer="sgd", lr=0.1)
        per_epoch = len(_stratified_batches(
            label_codes([t.label for t in train]), 8, make_rng(0)))
        assert per_epoch >= 3
        real, calls, losses = sasv.train._batch_loss_and_grads, [], []

        def poisoned(*args):
            loss, grads = real(*args)
            calls.append(None)
            losses.append(loss)
            if len(calls) == per_epoch + 3:  # epoch 2, batch 3
                grads["cm_mlp.w1"][0, 1] = -np.inf
            return loss, grads

        monkeypatch.setattr(sasv.train, "_batch_loss_and_grads", poisoned)
        with pytest.raises(TrainingDiverged) as info:
            train_joint(cfg, asv, cm, train, dev)
        assert str(info.value) == ("joint training diverged at epoch 2, "
                                   "batch 3: cm_mlp.w1 is inf")
        assert all(math.isfinite(loss) for loss in losses)
        assert [e["epoch"] for e in info.value.log] == [1]

    @pytest.mark.parametrize("outcome", ["returns", "diverges",
                                         "dev fails"])
    def test_no_thread_is_left(self, monkeypatch, outcome):
        """A slow dev pass is over when train_joint returns or raises."""
        cfg, asv, cm, train, dev = tiny_setup(seed=1, epochs=4,
                                              batch_size=24)
        if outcome == "diverges":  # after epoch 1, as tested above
            cfg = replace(cfg, optimizer="sgd", lr=1e4)

        def slow(*args, **kwargs):
            time.sleep(0.2)
            if outcome == "dev fails":
                raise ValueError("no dev score")
            return min_adcf(*args, **kwargs)

        monkeypatch.setattr(sasv.train, "min_adcf", slow)
        before = set(threading.enumerate())
        if outcome == "returns":
            train_joint(cfg, asv, cm, train, dev)
        else:
            with np.errstate(all="ignore"), pytest.raises(
                    TrainingDiverged if outcome == "diverges"
                    else ValueError) as info:
                train_joint(cfg, asv, cm, train, dev)
            if outcome == "diverges":
                assert info.value.log  # a dev pass was in flight
        assert set(threading.enumerate()) == before

    def test_dev_scoring_error_keeps_its_type_and_message(self,
                                                          monkeypatch):
        cfg, asv, cm, train, dev = tiny_setup(epochs=4, batch_size=16)
        calls = []

        def failing_second(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise KeyError("dev scoring failed at its second epoch")
            return min_adcf(*args, **kwargs)

        monkeypatch.setattr(sasv.train, "min_adcf", failing_second)
        with pytest.raises(KeyError) as info:
            train_joint(cfg, asv, cm, train, dev)
        assert info.value.args == ("dev scoring failed at its second epoch",)
        assert len(calls) == 2  # no epoch is scored after the failing one

    def test_dev_scoring_error_comes_before_the_next_divergence(
            self, monkeypatch):
        """As when each epoch was scored before the next began: the error
        in scoring epoch 1 is raised, not epoch 2's divergence."""
        cfg, asv, cm, train, dev = tiny_setup(epochs=3, batch_size=16)
        per_epoch = len(_stratified_batches(
            label_codes([t.label for t in train]), 16, make_rng(0)))
        real, calls = sasv.train._batch_loss_and_grads, []

        def nan_in_epoch_2(*args):
            loss, grads = real(*args)
            calls.append(None)
            return (math.nan if len(calls) > per_epoch else loss), grads

        def failing(*args, **kwargs):
            raise ValueError("dev scoring failed")

        monkeypatch.setattr(sasv.train, "_batch_loss_and_grads",
                            nan_in_epoch_2)
        monkeypatch.setattr(sasv.train, "min_adcf", failing)
        with pytest.raises(ValueError, match="^dev scoring failed$") as info:
            train_joint(cfg, asv, cm, train, dev)
        assert isinstance(info.value.__context__, TrainingDiverged)
        assert str(info.value.__context__).startswith(
            "joint training diverged at epoch 2, batch 1: loss is nan")

    def test_nan_dev_scores_are_a_divergence(self):
        """Finite weights so large that the dev forward pass overflows stop
        the run at their epoch, which is not logged."""
        cfg, asv, cm, train, dev = tiny_setup(seed=1, epochs=4,
                                              batch_size=24, optimizer="sgd",
                                              lr=1e4)
        with np.errstate(all="ignore"), pytest.raises(
                TrainingDiverged) as info:
            train_joint(cfg, asv, cm, train, dev)
        assert str(info.value) == ("joint training diverged at epoch 2, "
                                   "dev pass: a dev score is nan")
        assert [e["epoch"] for e in info.value.log] == [1]

    def test_dev_set_is_scored_under_the_callers_errstate(self,
                                                           monkeypatch):
        cfg, asv, cm, train, dev = tiny_setup(epochs=2, batch_size=16)
        seen = []

        def recording(*args, **kwargs):
            seen.append((np.geterr(), threading.current_thread()))
            return min_adcf(*args, **kwargs)

        monkeypatch.setattr(sasv.train, "min_adcf", recording)
        with np.errstate(all="raise"):
            train_joint(cfg, asv, cm, train, dev)
        assert len(seen) == 2
        for state, thread in seen:
            assert state == {"divide": "raise", "over": "raise",
                             "under": "raise", "invalid": "raise"}
            assert thread is not threading.main_thread()

    def test_resume_from_given_model_does_not_mutate_it(self):
        cfg, asv, cm, train, dev = tiny_setup(epochs=2, batch_size=16)
        model = init_model(cfg, asv.dim, cm.dim)
        snapshot = model.copy()
        train_joint(cfg, asv, cm, train, dev, model=model)
        np.testing.assert_array_equal(model.w_asv, snapshot.w_asv)
        assert model.tau == snapshot.tau


class TestScoreTrials:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_reproduces_the_checkpoints_dev_figure(self, arch):
        """Over a dev set of one full DEV_CHUNK_ROWS chunk and a partial
        one, score_trials gives the checkpoint's dev min a-DCF and
        threshold bit for bit."""
        cfg = TrainConfig(architecture=arch, epochs=2, batch_size=192)
        sim = EmbeddingSimConfig(n_speakers=5, d_asv=4, d_cm=3,
                                 n_target=400, n_nontarget=400,
                                 n_spoof=400, seed=0)
        asv, cm, trials = simulate_embeddings(sim)
        train, dev = split_trials(trials, 0.5, seed=0)
        assert len(dev) > sasv.train.DEV_CHUNK_ROWS
        assert len(dev) % sasv.train.DEV_CHUNK_ROWS
        ckpt, _ = train_joint(cfg, asv, cm, train, dev)
        s, _, _, labels = score_trials(ckpt.model, asv, cm, dev)
        report = min_adcf(s, labels, cfg.cost_model, normalized=True)
        assert report.min_adcf == ckpt.dev_min_adcf
        threshold = report.min_threshold
        assert (threshold if math.isfinite(threshold) else None) == \
            ckpt.dev_threshold

    def test_empty_trial_list_gives_three_empty_arrays(self):
        cfg, asv, cm, _, _ = tiny_setup(arch="mlp-mlp")
        model = init_model(cfg, asv.dim, cm.dim)
        *scores, labels = score_trials(model, asv, cm, [])
        assert [a.shape for a in scores] == [(0,)] * 3
        assert labels == []


class TestPretrain:
    def test_cm_branch_learns_spoof_detection(self):
        cfg, asv, cm, train, dev = tiny_setup(epochs=30, batch_size=24,
                                              optimizer="adam", lr=0.02)
        model = pretrain_heads(cfg, asv, cm, train)
        _, _, llr_c, labels = score_trials(model, asv, cm, dev)
        bona = llr_c[[l is not TrialLabel.SPOOF for l in labels]]
        spoof = llr_c[[l is TrialLabel.SPOOF for l in labels]]
        assert np.mean(bona) > np.mean(spoof)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("fusion", ["linear", "nonlinear"])
    def test_branch_gradients_match_backward_batch(self, arch, fusion):
        """Pretraining one branch alone gives backward_batch's gradients of
        that branch's keys, bit for bit."""
        cfg, asv, cm, train, _ = tiny_setup(arch=arch, fusion=fusion)
        model = init_model(cfg, asv.dim, cm.dim)
        model.asv_calib = CalibrationParams(0.3, 1.7)
        model.cm_calib = CalibrationParams(-0.2, 0.8)
        e_enr = asv.matrix([t.enroll_id for t in train])
        e_ta = asv.matrix([t.test_id for t in train])
        e_tc = cm.matrix([t.test_id for t in train])
        codes = label_codes([t.label for t in train])
        s, cache = forward_batch(model, e_enr, e_ta, e_tc)
        for branch, y, llr, aux in (
                ("asv", codes == TARGET, "llr_a", "grad_llr_a_aux"),
                ("cm", codes != SPOOF, "llr_c", "grad_llr_c_aux")):
            y = y.astype(np.float64)
            loss, grads = _pretrain_loss_and_grads(model, branch, e_enr,
                                                   e_ta, e_tc, y)
            full_loss, g = bce_logits_mean(cache[llr], y)
            full = backward_batch(model, cache, np.zeros_like(g), **{aux: g})
            assert loss == full_loss
            assert set(grads) == set(trainable_dict(model, branch))
            for key in grads:
                assert np.asarray(grads[key]).tobytes() == \
                    np.asarray(full[key]).tobytes(), key

    def test_pretrained_init_runs_in_train_joint(self):
        cfg, asv, cm, train, dev = tiny_setup(epochs=2, batch_size=16,
                                              init="pretrained")
        ckpt, log = train_joint(cfg, asv, cm, train, dev)
        assert len(log) == 2
        assert math.isfinite(ckpt.dev_min_adcf)


class TestTuneFusionRho:
    def test_finds_grid_optimum(self):
        rng = np.random.default_rng(6)
        n = 200
        llr_a = np.concatenate([rng.normal(4, 1, n), rng.normal(-4, 1, n),
                                rng.normal(4, 1, n)])
        llr_c = np.concatenate([rng.normal(4, 1, n), rng.normal(4, 1, n),
                                rng.normal(-4, 1, n)])
        labels = [TrialLabel.TARGET] * n + [TrialLabel.NONTARGET] * n + \
            [TrialLabel.SPOOF] * n
        rho, val = tune_fusion_rho(llr_a, llr_c, labels, DEFAULT_COST_MODEL)
        # exhaustive check against the same grid
        grid = np.linspace(0.01, 0.99, 99)
        vals = [min_adcf(fuse_nonlinear(llr_a, llr_c, float(r)), labels,
                         DEFAULT_COST_MODEL).min_adcf for r in grid]
        assert val == pytest.approx(min(vals), abs=1e-15)
        assert 0.0 < rho < 1.0

    @pytest.mark.parametrize("grid", [
        None, [0.0, 0.4, 1.0], [1.0, 0.0], np.linspace(0.0, 1.0, 11)])
    @pytest.mark.parametrize("cost_model", [
        DEFAULT_COST_MODEL, CostModel(2.0, 1.0, 5.0, 0.6, 0.3, 0.1)])
    def test_equals_the_fusion_loop_bit_for_bit(self, grid, cost_model):
        rng = np.random.default_rng(11)
        n = 150
        llr_a = np.concatenate([rng.normal(3, 2, n), rng.normal(-3, 2, n),
                                rng.normal(3, 2, n), [800.0, -800.0, 0.0]])
        llr_c = np.concatenate([rng.normal(3, 2, n), rng.normal(3, 2, n),
                                rng.normal(-3, 2, n), [-800.0, 800.0, 0.0]])
        llr_c[:20] = llr_a[:20]  # ties between the two LLRs
        codes = np.repeat(np.array([TARGET, NONTARGET, SPOOF],
                                   dtype=np.int8), n + 1)
        loop_grid = np.linspace(0.01, 0.99, 99) if grid is None else grid
        best = (None, math.inf)
        for r in loop_grid:
            val = min_adcf(fuse_nonlinear(llr_a, llr_c, float(r)), codes,
                           cost_model).min_adcf
            if val < best[1]:
                best = (float(r), val)
        assert tune_fusion_rho(llr_a, llr_c, codes, cost_model,
                               grid=grid) == best

    def test_nan_llr_rejected(self):
        labels = [TrialLabel.TARGET, TrialLabel.NONTARGET, TrialLabel.SPOOF]
        with pytest.raises(ValueError, match="^min a-DCF: a score is NaN$"):
            tune_fusion_rho([3.0, math.nan, 3.0], [3.0, 3.0, -3.0], labels,
                            DEFAULT_COST_MODEL)

    def test_grid_outside_unit_interval_is_rejected(self):
        labels = [TrialLabel.TARGET, TrialLabel.NONTARGET, TrialLabel.SPOOF]
        with pytest.raises(ValueError, match="rho_tilde"):
            tune_fusion_rho([3.0, -3.0, 3.0], [3.0, 3.0, -3.0], labels,
                            DEFAULT_COST_MODEL, grid=[0.5, 1.5])

    def test_custom_grid(self):
        labels = [TrialLabel.TARGET, TrialLabel.NONTARGET, TrialLabel.SPOOF]
        rho, _ = tune_fusion_rho([3.0, -3.0, 3.0], [3.0, 3.0, -3.0], labels,
                                 DEFAULT_COST_MODEL, grid=[0.25])
        assert rho == 0.25
