import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SNAN_EMBEDDING_FILE
from sasv import fileio
from sasv.cli import main
from sasv.core import TrialLabel
from sasv.decision import fuse_nonlinear
from sasv.nn import init_mlp
from sasv.sim import make_rng
from sasv.train import ModelParams


def write_worked_scores(path):
    rows = [
        ("e1", "t1", 1.0, TrialLabel.TARGET),
        ("e2", "t2", 3.0, TrialLabel.TARGET),
        ("e3", "t3", 0.0, TrialLabel.NONTARGET),
        ("e4", "t4", 2.0, TrialLabel.NONTARGET),
        ("e5", "t5", -1.0, TrialLabel.SPOOF),
        ("e6", "t6", 2.5, TrialLabel.SPOOF),
    ]
    fileio.write_scores(path, rows)
    return rows


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def make_train_sim(tmp_path, n_per_class=40):
    """Simulated embeddings split into train.tsv and dev.tsv; returns the
    train argv that reads them."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_target": n_per_class,
                               "n_nontarget": n_per_class,
                               "n_spoof": n_per_class, "n_speakers": 5,
                               "d_asv": 6, "d_cm": 4}))
    sim = tmp_path / "sim"
    main(["simulate", "--mode", "embeddings", "--config", str(cfg),
          "--out-dir", str(sim)])
    trials = fileio.read_protocol(sim / "protocol.tsv")
    from sasv.sim import split_trials
    train, dev = split_trials(trials, 0.5, seed=0)
    fileio.write_protocol(sim / "train.tsv", train)
    fileio.write_protocol(sim / "dev.tsv", dev)
    return ["train", "--asv-emb", str(sim / "asv_emb.bin"),
            "--cm-emb", str(sim / "cm_emb.bin"),
            "--train-proto", str(sim / "train.tsv"),
            "--dev-proto", str(sim / "dev.tsv")]


def repeat_first_train_trial(argv):
    """Append the first line of the train protocol argv names to it again;
    returns the warning message that repeat raises."""
    proto = argv[argv.index("--train-proto") + 1]
    with open(proto, encoding="utf-8") as f:
        lines = f.readlines()
    with open(proto, "a", encoding="utf-8") as f:
        f.write(lines[0])
    enroll, test = lines[0].split("\t")[:2]
    return f"{proto}:{len(lines) + 1}: duplicate trial {enroll}/{test}"


class TestTopLevel:
    def test_no_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_jobs_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", "0", "eval", "--scores", "x",
                  "--report", str(tmp_path / "r.json")])
        assert exc.value.code == 2

    def test_invalid_utf8_is_error_naming_line(self, tmp_path, capsys):
        path = tmp_path / "scores.tsv"
        path.write_bytes(b"e1\tt1\t1.0\ttarget\ne2\xff\tt2\t0.0\tspoof\n")
        rc = main(["eval", "--scores", str(path),
                   "--report", str(tmp_path / "r.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{path}:2: " in err and "Traceback" not in err

    def test_missing_file_is_error_not_crash(self, tmp_path, capsys):
        rc = main(["eval", "--scores", str(tmp_path / "nope.tsv"),
                   "--report", str(tmp_path / "r.json")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestSimulate:
    def test_scores_mode(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--mode", "scores", "--out-dir", str(out),
                     "--seed", "3"]) == 0
        asv = fileio.read_scores(out / "asv_scores.tsv")
        cm = fileio.read_scores(out / "cm_scores.tsv")
        assert len(asv) == 6000 and len(cm) == 6000
        assert [r[:2] for r in asv] == [r[:2] for r in cm]

    def test_scores_mode_deterministic(self, tmp_path):
        o1, o2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--mode", "scores", "--out-dir", str(o1),
              "--seed", "5"])
        main(["simulate", "--mode", "scores", "--out-dir", str(o2),
              "--seed", "5"])
        assert (o1 / "asv_scores.tsv").read_bytes() == \
            (o2 / "asv_scores.tsv").read_bytes()

    def test_embeddings_mode_with_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_target": 20, "n_nontarget": 20,
                                   "n_spoof": 20, "n_speakers": 5,
                                   "d_asv": 6, "d_cm": 4}))
        out = tmp_path / "sim"
        assert main(["simulate", "--mode", "embeddings", "--config",
                     str(cfg), "--out-dir", str(out)]) == 0
        trials = fileio.read_protocol(out / "protocol.tsv")
        assert len(trials) == 60
        asv = fileio.read_embeddings(out / "asv_emb.bin")
        assert asv.dim == 6


    def test_unwritable_cm_vectors_leave_no_file(self, tmp_path, capsys):
        """Both embedding files are checked before either is written."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cm_margin": 1e39}))
        out = tmp_path / "sim"
        rc, caught = run_quietly(["simulate", "--mode", "embeddings",
                                  "--config", str(cfg),
                                  "--out-dir", str(out)])
        assert (rc, caught) == (1, [])
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "cm_emb.bin: vector for" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("mode,config,message", [
        ("embeddings", {"bogus": 1}, "unknown field 'bogus'"),
        ("embeddings", {"seed": 3}, "unknown field 'seed'"),
        ("embeddings", [1, 2], "JSON object"),
        ("embeddings", {"n_target": 2.5}, "n_target"),
        ("embeddings", {"cm_margin": "x"}, "cm_margin"),
        ("scores", [1, 2], "JSON object"),
        ("scores", {"bogus": {}}, "unknown field 'bogus'"),
        ("scores", {"means": {"bogus": [0, 0]}},
         "unknown trial label 'bogus'"),
        ("scores", {"means": [0, 0]}, "means"),
        ("scores", {"means": {"target": 5}}, "target"),
        ("scores", {"covs": {"spoof": {"a": 1}}}, "spoof"),
        ("scores", {"counts": {"target": "x"}}, "count for target"),
        ("scores", {"counts": {"target": True}}, "count for target"),
        ("scores", {"means": {"target": [10 ** 400, 0]}}, "target"),
        ("scores", {"covs": {"nontarget": [[1, 1e308], [-1e308, 1]]}},
         "covariance for nontarget must be finite symmetric 2x2"),
        ("scores", {"covs": {"target": [[math.inf, 0], [0, 1]]}},
         "covariance for target must be finite symmetric 2x2"),
        # values the simulator computes but float32 cannot hold, or that
        # overflow float64 itself
        ("embeddings", {"cm_margin": 1e40},
         "cm_emb.bin: vector for 'utt000400' has entries beyond the "
         "float32 range"),
        ("embeddings", {"sigma_w": 1e308}, "has non-finite entries"),
        ("embeddings", {"n_nontarget": False}, "n_nontarget"),
    ])
    def test_bad_config_is_one_line_error(self, tmp_path, capsys, mode,
                                          config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        rc, caught = run_quietly(["simulate", "--mode", mode,
                                  "--config", str(cfg),
                                  "--out-dir", str(tmp_path / "sim")])
        assert (rc, caught) == (1, [])
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, err
        assert "Traceback" not in err


class TestCalibrateAndFuse:
    def make_sim(self, tmp_path, seed=2):
        out = tmp_path / "sim"
        main(["simulate", "--mode", "scores", "--out-dir", str(out),
              "--seed", str(seed)])
        return out

    def test_calibrate_writes_params(self, tmp_path):
        out = self.make_sim(tmp_path)
        calib = tmp_path / "asv_calib.json"
        assert main(["calibrate", "--scores", str(out / "asv_scores.tsv"),
                     "--task", "asv", "--out", str(calib)]) == 0
        doc = json.loads(calib.read_text())
        assert doc["task"] == "asv"
        assert doc["w1"] > 0  # targets score higher in the default geometry

    def test_fuse_rho_zero_copies_asv_llrs(self, tmp_path):
        out = self.make_sim(tmp_path)
        fused = tmp_path / "fused.tsv"
        assert main(["fuse", "--asv", str(out / "asv_scores.tsv"),
                     "--cm", str(out / "cm_scores.tsv"),
                     "--mode", "nonlinear", "--rho", "0.0",
                     "--out", str(fused)]) == 0
        asv_rows = fileio.read_scores(out / "asv_scores.tsv")
        fused_rows = fileio.read_scores(fused)
        for (_, _, a, _), (_, _, f, _) in zip(asv_rows, fused_rows):
            assert f == a

    def test_fuse_applies_calibrations(self, tmp_path):
        out = self.make_sim(tmp_path)
        ac = tmp_path / "ac.json"
        cc = tmp_path / "cc.json"
        fileio.write_report(ac, {"w0": 1.0, "w1": 2.0})
        fileio.write_report(cc, {"w0": -1.0, "w1": 0.5})
        fused = tmp_path / "fused.tsv"
        main(["fuse", "--asv", str(out / "asv_scores.tsv"),
              "--cm", str(out / "cm_scores.tsv"),
              "--asv-calib", str(ac), "--cm-calib", str(cc),
              "--mode", "nonlinear", "--rho", "0.4", "--out", str(fused)])
        asv_rows = fileio.read_scores(out / "asv_scores.tsv")
        cm_rows = fileio.read_scores(out / "cm_scores.tsv")
        fused_rows = fileio.read_scores(fused)
        for (_, _, a, _), (_, _, c, _), (_, _, f, _) in \
                zip(asv_rows, cm_rows, fused_rows):
            expected = fuse_nonlinear(1.0 + 2.0 * a, -1.0 + 0.5 * c, 0.4)
            assert f == pytest.approx(expected, rel=1e-12)

    def test_fuse_missing_trial_is_error(self, tmp_path, capsys):
        out = self.make_sim(tmp_path)
        short = tmp_path / "short.tsv"
        short.write_text("")
        rc = main(["fuse", "--asv", str(out / "asv_scores.tsv"),
                   "--cm", str(short), "--out",
                   str(tmp_path / "fused.tsv")])
        assert rc == 1
        assert "missing" in capsys.readouterr().err

    def test_fuse_label_mismatch_is_error(self, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        c = tmp_path / "c.tsv"
        fileio.write_scores(a, [("e1", "t1", 1.0, TrialLabel.TARGET)])
        fileio.write_scores(c, [("e1", "t1", 1.0, TrialLabel.SPOOF)])
        rc = main(["fuse", "--asv", str(a), "--cm", str(c),
                   "--out", str(tmp_path / "f.tsv")])
        assert rc == 1
        assert "label mismatch" in capsys.readouterr().err


    @pytest.mark.parametrize("text,field", [
        ("[1, 2]", None), ("nope", None), ("{}", "w0"),
        ('{"w0": null, "w1": 1}', "w0"), ('{"w0": "1", "w1": 1}', "w0"),
        ('{"w0": true, "w1": 1}', "w0"), ('{"w0": 1, "w1": NaN}', "w1"),
        ('{"w0": 1e400, "w1": 1}', "w0"),
        pytest.param('{"w0": 1, "w1": 1' + "0" * 400 + "}", "w1",
                     id="w1-too-large-for-a-float")])
    def test_bad_calibration_is_one_line_error(self, tmp_path, capsys, text,
                                               field):
        scores = tmp_path / "s.tsv"
        write_worked_scores(scores)
        calib = tmp_path / "calib.json"
        calib.write_text(text)
        rc = main(["fuse", "--asv", str(scores), "--cm", str(scores),
                   "--cm-calib", str(calib), "--out",
                   str(tmp_path / "f.tsv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{calib}: " in err
        if field is not None:
            assert field in err

    def test_fuse_joins_cm_rows_by_trial_not_position(self, tmp_path):
        out = self.make_sim(tmp_path)
        cm = fileio.read_scores(out / "cm_scores.tsv")
        shuffled = tmp_path / "cm_shuffled.tsv"
        fileio.write_scores(shuffled, list(cm)[::-1])
        fused = {}
        for name, cm_path in (("same", out / "cm_scores.tsv"),
                              ("shuffled", shuffled)):
            fused[name] = tmp_path / f"fused_{name}.tsv"
            assert main(["fuse", "--asv", str(out / "asv_scores.tsv"),
                         "--cm", str(cm_path), "--rho", "0.3",
                         "--out", str(fused[name])]) == 0
        assert fused["same"].read_bytes() == fused["shuffled"].read_bytes()

    def test_fuse_repeated_cm_trial_uses_last_row(self, tmp_path):
        a = tmp_path / "a.tsv"
        c = tmp_path / "c.tsv"
        fileio.write_scores(a, [("e1", "t1", 1.0, TrialLabel.TARGET),
                                ("e2", "t2", 2.0, TrialLabel.SPOOF)])
        fileio.write_scores(c, [("e2", "t2", 5.0, TrialLabel.SPOOF),
                                ("e1", "t1", 7.0, TrialLabel.TARGET),
                                ("e2", "t2", 3.0, TrialLabel.SPOOF)])
        fused = tmp_path / "f.tsv"
        assert main(["fuse", "--asv", str(a), "--cm", str(c), "--rho", "1",
                     "--out", str(fused)]) == 0
        assert list(fileio.read_scores(fused)) == [
            ("e1", "t1", 7.0, TrialLabel.TARGET),
            ("e2", "t2", 3.0, TrialLabel.SPOOF)]


class TestEval:
    def test_worked_instance_report(self, tmp_path):
        scores = tmp_path / "scores.tsv"
        write_worked_scores(scores)
        report = tmp_path / "report.json"
        assert main(["eval", "--scores", str(scores), "--unnormalized",
                     "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["min_adcf"] == pytest.approx(0.45, abs=1e-12)
        assert 2.5 < doc["min_threshold"] < 3.0
        assert doc["normalized"] is False
        assert doc["n_trials"] == 6
        assert doc["cost_model"]["rho"] == pytest.approx(0.5)

    def test_normalized_default(self, tmp_path):
        scores = tmp_path / "scores.tsv"
        write_worked_scores(scores)
        report = tmp_path / "report.json"
        main(["eval", "--scores", str(scores), "--report", str(report)])
        doc = json.loads(report.read_text())
        assert doc["min_adcf"] == pytest.approx(0.50, abs=1e-12)

    def test_actual_adcf_with_threshold(self, tmp_path):
        scores = tmp_path / "scores.tsv"
        write_worked_scores(scores)
        report = tmp_path / "report.json"
        main(["eval", "--scores", str(scores), "--threshold", "2.75",
              "--unnormalized", "--report", str(report)])
        doc = json.loads(report.read_text())
        assert doc["act_adcf"] == pytest.approx(0.45, abs=1e-12)
        assert doc["act_adcf"] >= doc["min_adcf"] - 1e-12

    def test_min_threshold_at_sentinel_is_null(self, tmp_path):
        # the spoof outscores the target: rejecting everything is cheapest,
        # so the minimum lies at the +inf sentinel threshold
        scores = tmp_path / "scores.tsv"
        fileio.write_scores(scores, [("e1", "t1", 0.5, TrialLabel.TARGET),
                                     ("e2", "t2", 0.4, TrialLabel.NONTARGET),
                                     ("e3", "t3", 0.6, TrialLabel.SPOOF)])
        report = tmp_path / "report.json"
        assert main(["eval", "--scores", str(scores),
                     "--report", str(report)]) == 0
        doc = json.loads(report.read_text(), parse_constant=reject_constant)
        assert doc["min_threshold"] is None
        assert doc["rates_at_min"]["p_miss_tar"] == 1.0

    def test_huge_scores_keep_the_threshold_between_them(self, tmp_path):
        # 1.6e308 + 1.7e308 overflows, so the plain midpoint of the top two
        # distinct scores is +inf; a threshold between them rejects the
        # high spoof and accepts both targets, for an a-DCF of 0
        scores = tmp_path / "scores.tsv"
        fileio.write_scores(scores, [
            ("e1", "t1", 1.7e308, TrialLabel.TARGET),
            ("e2", "t2", 1.75e308, TrialLabel.TARGET),
            ("e3", "t3", 1.0, TrialLabel.NONTARGET),
            ("e4", "t4", -1.0, TrialLabel.NONTARGET),
            ("e5", "t5", 1.6e308, TrialLabel.SPOOF),
            ("e6", "t6", 0.5, TrialLabel.SPOOF)])
        report = tmp_path / "report.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["eval", "--scores", str(scores),
                         "--report", str(report)]) == 0
        assert [str(w.message) for w in caught] == []
        doc = json.loads(report.read_text(), parse_constant=reject_constant)
        assert doc["min_adcf"] == 0.0
        assert 1.6e308 < doc["min_threshold"] <= 1.7e308
        assert doc["rates_at_min"] == {"p_miss_tar": 0.0, "p_fa_non": 0.0,
                                       "p_fa_spf": 0.0}

    def test_eer_threshold_between_far_apart_scores(self, tmp_path):
        # the SV EER crossing lies between thresholds 1.6e308 and -1.6e308,
        # whose difference overflows
        scores = tmp_path / "scores.tsv"
        fileio.write_scores(scores, [
            ("e1", "t1", 1.6e308, TrialLabel.TARGET),
            ("e2", "t2", -1.6e308, TrialLabel.TARGET),
            ("e3", "t3", -1.6e308, TrialLabel.NONTARGET),
            ("e4", "t4", -1.7e308, TrialLabel.NONTARGET),
            ("e5", "t5", 0.0, TrialLabel.SPOOF)])
        report = tmp_path / "report.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["eval", "--scores", str(scores),
                         "--report", str(report)]) == 0
        assert [str(w.message) for w in caught] == []
        doc = json.loads(report.read_text(), parse_constant=reject_constant)
        assert doc["sv_eer"] == 0.25
        assert -1.6e308 <= doc["sv_eer_threshold"] <= 1.6e308
        assert 0.0 <= doc["spf_eer_threshold"] <= 1.6e308

    def test_custom_cost_flags(self, tmp_path):
        scores = tmp_path / "scores.tsv"
        write_worked_scores(scores)
        report = tmp_path / "report.json"
        main(["eval", "--scores", str(scores), "--cmiss", "2",
              "--ptar", "0.5", "--pnon", "0.25", "--pspf", "0.25",
              "--report", str(report)])
        doc = json.loads(report.read_text())
        assert doc["cost_model"]["c_miss_tar"] == 2.0
        assert doc["cost_model"]["beta"] == pytest.approx(1.0)


class TestNonFiniteScores:
    """A nan/inf score is a format error at the reader, for every command."""

    @pytest.fixture(params=["nan", "inf", "-inf"])
    def bad_scores(self, request, tmp_path):
        path = tmp_path / "bad.tsv"
        write_worked_scores(path)
        lines = path.read_text().splitlines(keepends=True)
        e, t, _, label = lines[2].split("\t")
        lines[2] = f"{e}\t{t}\t{request.param}\t{label}"
        path.write_text("".join(lines))
        return path, request.param

    def assert_rejected(self, rc, capsys, path, text):
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{path}:3: non-finite score {text!r}" in err
        assert "Traceback" not in err

    def test_calibrate(self, tmp_path, capsys, bad_scores):
        path, text = bad_scores
        rc = main(["calibrate", "--scores", str(path), "--task", "cm",
                   "--out", str(tmp_path / "c.json")])
        self.assert_rejected(rc, capsys, path, text)

    def test_fuse(self, tmp_path, capsys, bad_scores):
        path, text = bad_scores
        good = tmp_path / "good.tsv"
        write_worked_scores(good)
        rc = main(["fuse", "--asv", str(good), "--cm", str(path),
                   "--out", str(tmp_path / "f.tsv")])
        self.assert_rejected(rc, capsys, path, text)

    def test_eval(self, tmp_path, capsys, bad_scores):
        path, text = bad_scores
        rc = main(["eval", "--scores", str(path),
                   "--report", str(tmp_path / "r.json")])
        self.assert_rejected(rc, capsys, path, text)

    def test_det(self, tmp_path, capsys, bad_scores):
        path, text = bad_scores
        rc = main(["det", "--scores", str(path), "--negatives", "spoof",
                   "--out", str(tmp_path / "d.csv")])
        self.assert_rejected(rc, capsys, path, text)


class TestDetAndGrid:
    def test_det_csv(self, tmp_path):
        scores = tmp_path / "scores.tsv"
        write_worked_scores(scores)
        out = tmp_path / "det.csv"
        assert main(["det", "--scores", str(scores), "--negatives",
                     "nontarget", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p_fa,p_miss"
        assert len(lines) > 2

    def test_grid_explicit_mode(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["grid", "--mode", "linear", "--amin", "-1", "--amax",
                     "1", "--cmin", "-1", "--cmax", "1", "--na", "3",
                     "--nc", "3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 9

    def test_grid_needs_mode_or_ckpt(self, tmp_path, capsys):
        rc = main(["grid", "--out", str(tmp_path / "g.csv")])
        assert rc == 1
        assert "either --ckpt or --mode" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["cm_mlp.w0", "w_asv"])
    def test_grid_rejects_a_non_finite_checkpoint_array(self, tmp_path,
                                                        capsys, name):
        ckpt = tmp_path / "ckpt.json"
        doc = json.loads(fileio.checkpoint_to_json(ModelParams(
            "wcos-mlp", "nonlinear", 2, 2, init_mlp(4, (3,), make_rng(0)),
            w_asv=np.ones(2))))
        if name == "w_asv":
            doc["w_asv"][0] = math.inf
        else:
            doc["cm_mlp"]["weights"][0][1] = math.nan
        ckpt.write_text(json.dumps(doc))  # writes NaN and Infinity
        out = tmp_path / "g.csv"
        rc, caught = run_quietly(["grid", "--ckpt", str(ckpt),
                                  "--out", str(out)])
        assert (rc, caught) == (1, [])
        assert capsys.readouterr().err == (
            f"sasv grid: error: {ckpt}: malformed checkpoint field: "
            f"{name} must be finite\n")
        assert not out.exists()


class TestTrainCommand:
    def test_end_to_end(self, tmp_path):
        train = make_train_sim(tmp_path)
        ckpt = tmp_path / "ckpt.json"
        log = tmp_path / "log.jsonl"
        rc = main([*train, "--arch", "wcos-mlp", "--loss", "v1",
                   "--optimizer", "sgd", "--lr", "0.3",
                   "--epochs", "4", "--batch", "32",
                   "--out", str(ckpt), "--log", str(log)])
        assert rc == 0
        model, meta = fileio.read_checkpoint(ckpt)
        assert model.architecture == "wcos-mlp"
        assert math.isfinite(meta["dev_min_adcf"])
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert [e["epoch"] for e in entries] == [1, 2, 3, 4]
        assert meta["dev_min_adcf"] == min(e["dev_min_adcf"]
                                           for e in entries)
        # the checkpoint's fusion parameters drive the grid subcommand
        grid = tmp_path / "grid.csv"
        assert main(["grid", "--ckpt", str(ckpt), "--na", "3", "--nc", "3",
                     "--out", str(grid)]) == 0
        assert grid.read_text().startswith("llr_asv,llr_cm,s_sasv,accept")

    def test_zero_epochs_writes_strict_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_target": 10, "n_nontarget": 10,
                                   "n_spoof": 10, "n_speakers": 3,
                                   "d_asv": 4, "d_cm": 3}))
        sim = tmp_path / "sim"
        main(["simulate", "--mode", "embeddings", "--config", str(cfg),
              "--out-dir", str(sim)])
        ckpt = tmp_path / "ckpt.json"
        log = tmp_path / "log.jsonl"
        proto = str(sim / "protocol.tsv")
        assert main(["train", "--epochs", "0",
                     "--asv-emb", str(sim / "asv_emb.bin"),
                     "--cm-emb", str(sim / "cm_emb.bin"),
                     "--train-proto", proto, "--dev-proto", proto,
                     "--out", str(ckpt), "--log", str(log)]) == 0

        doc = json.loads(ckpt.read_text(), parse_constant=reject_constant)
        assert doc["dev_min_adcf"] is None
        assert doc["config"]["best_epoch"] == 0
        assert log.read_text() == ""

    def test_sentinel_thresholds_are_null(self, tmp_path):
        # plain SGD at the default rate barely moves the random init, whose
        # dev min a-DCF lies at the +inf sentinel in every epoch
        ckpt = tmp_path / "ckpt.json"
        log = tmp_path / "log.jsonl"
        assert main([*make_train_sim(tmp_path), "--optimizer", "sgd",
                     "--epochs", "4", "--out", str(ckpt),
                     "--log", str(log)]) == 0
        entries = [json.loads(line, parse_constant=reject_constant)
                   for line in log.read_text().splitlines()]
        assert [e["dev_threshold"] for e in entries] == [None] * 4
        doc = json.loads(ckpt.read_text(), parse_constant=reject_constant)
        assert doc["dev_threshold"] is None
        assert doc["dev_min_adcf"] == entries[0]["dev_min_adcf"]

    @pytest.mark.parametrize("batch", ["0", "-3"])
    def test_bad_batch_is_one_line_error(self, tmp_path, capsys, batch):
        rc = main([*make_train_sim(tmp_path, 10), "--batch", batch,
                   "--epochs", "1", "--out", str(tmp_path / "ckpt.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == ("sasv train: error: batch size must be a positive "
                       f"integer, got {batch}\n")
        assert not (tmp_path / "ckpt.json").exists()

    @pytest.mark.parametrize("init,lr,phase", [
        ("random", "1e6", "joint training diverged at epoch "),
        ("pretrained", "1e300", "ASV pretraining diverged at epoch ")])
    def test_divergence_names_phase_epoch_and_batch(self, tmp_path, capsys,
                                                    init, lr, phase):
        with np.errstate(all="ignore"):
            rc = main([*make_train_sim(tmp_path), "--optimizer", "sgd",
                       "--lr", lr, "--init", init, "--epochs", "4",
                       "--out", str(tmp_path / "ckpt.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"sasv train: error: {phase}")
        assert ", batch " in err and err.count("\n") == 1

    def test_divergence_keeps_the_log_of_finished_epochs(self, tmp_path,
                                                         capsys):
        log = tmp_path / "log.jsonl"
        with np.errstate(all="ignore"):
            rc = main([*make_train_sim(tmp_path), "--optimizer", "sgd",
                       "--lr", "1e6", "--epochs", "4",
                       "--out", str(tmp_path / "ckpt.json"),
                       "--log", str(log)])
        assert rc == 1
        err = capsys.readouterr().err
        epoch = int(err.split("diverged at epoch ")[1].split(",")[0])
        assert epoch > 1
        entries = [json.loads(line, parse_constant=reject_constant)
                   for line in log.read_text().splitlines()]
        assert [e["epoch"] for e in entries] == list(range(1, epoch))
        assert not (tmp_path / "ckpt.json").exists()

    @pytest.mark.parametrize("init,lr,phase", [
        ("random", "1e6", "joint training diverged at epoch "),
        ("pretrained", "1e300", "ASV pretraining diverged at epoch ")])
    def test_divergence_prints_no_warning(self, tmp_path, capsys, init, lr,
                                          phase):
        # the finite check names the divergence; numpy stays quiet before it
        argv = make_train_sim(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([*argv, "--optimizer", "sgd", "--lr", lr,
                       "--init", init, "--epochs", "4",
                       "--out", str(tmp_path / "ckpt.json")])
        assert rc == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith(f"sasv train: error: {phase}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("epochs", ["-5", "-1"])
    def test_negative_epochs_is_one_line_error(self, tmp_path, capsys,
                                               epochs):
        rc = main([*make_train_sim(tmp_path, 10), "--epochs", epochs,
                   "--out", str(tmp_path / "ckpt.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == ("sasv train: error: epochs must be a non-negative "
                       f"integer, got {epochs}\n")
        assert not (tmp_path / "ckpt.json").exists()


def run_quietly(argv):
    """main(argv) with every warning recorded; returns (rc, warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    return rc, [str(w.message) for w in caught]


class TestZeroDefaultSystemCost:
    """The normalized a-DCF divides by the default system's cost, so a
    cost model that makes it 0 is a one-line error, not a traceback."""

    @pytest.mark.parametrize("flags", [
        ["--cmiss", "0"], ["--cmiss", "0", "--threshold", "0.5"],
        ["--cfa-non", "0", "--cfa-spf", "0"],
        ["--cfa-non", "0", "--cfa-spf", "0", "--threshold", "0.5"]])
    def test_eval_is_one_line_error(self, tmp_path, capsys, flags):
        scores = tmp_path / "scores.tsv"
        write_worked_scores(scores)
        report = tmp_path / "r.json"
        rc, caught = run_quietly(["eval", "--scores", str(scores), *flags,
                                  "--report", str(report)])
        assert (rc, caught) == (1, [])
        err = capsys.readouterr().err
        assert err.startswith("sasv eval: error: the default system's "
                              "cost is 0")
        assert err.count("\n") == 1
        assert not report.exists()

    def test_eval_unnormalized_still_works(self, tmp_path):
        scores = tmp_path / "scores.tsv"
        write_worked_scores(scores)
        report = tmp_path / "r.json"
        rc, caught = run_quietly(["eval", "--scores", str(scores),
                                  "--cmiss", "0", "--unnormalized",
                                  "--threshold", "0.5",
                                  "--report", str(report)])
        assert (rc, caught) == (0, [])
        doc = json.loads(report.read_text(), parse_constant=reject_constant)
        assert doc["normalized"] is False and doc["min_adcf"] == 0.0

    def test_train_is_one_line_error(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        rc, caught = run_quietly([*make_train_sim(tmp_path, 10),
                                  "--cmiss", "0", "--epochs", "1",
                                  "--out", str(ckpt)])
        assert (rc, caught) == (1, [])
        err = capsys.readouterr().err
        assert err.startswith("sasv train: error: the default system's "
                              "cost is 0")
        assert err.count("\n") == 1
        assert not ckpt.exists()

    def test_eval_tiny_cost_is_quiet(self, tmp_path, capsys):
        """A default cost of 5e-324 overflows the normalized a-DCF of the
        other score-blind system; the minimum is still 1 or less."""
        scores = tmp_path / "scores.tsv"
        write_worked_scores(scores)
        report = tmp_path / "r.json"
        rc, caught = run_quietly(["eval", "--scores", str(scores),
                                  "--cmiss", "5e-324",
                                  "--report", str(report)])
        assert (rc, caught) == (0, [])
        doc = json.loads(report.read_text(), parse_constant=reject_constant)
        assert doc["min_adcf"] <= 1.0
        rc, caught = run_quietly(["eval", "--scores", str(scores),
                                  "--cmiss", "5e-324", "--threshold", "0.5",
                                  "--report", str(report)])
        assert (rc, caught) == (1, [])
        assert capsys.readouterr().err.startswith(
            "sasv eval: error: the normalized a-DCF overflows")


def write_far_apart_scores(path, magnitude):
    rows = [("e1", "t1", magnitude, TrialLabel.TARGET),
            ("e2", "t2", -magnitude, TrialLabel.NONTARGET),
            ("e3", "t3", -magnitude, TrialLabel.SPOOF),
            ("e4", "t4", magnitude / 2, TrialLabel.TARGET)]
    fileio.write_scores(path, rows)


class TestNonFiniteResults:
    """fuse and grid name the first trial or node whose result overflows
    instead of writing nan or inf; numpy prints nothing on the way."""

    def test_fuse_with_capped_calibration(self, tmp_path, capsys):
        scores = tmp_path / "s.tsv"
        write_far_apart_scores(scores, 1e307)
        calib = tmp_path / "c.json"
        calib.write_text('{"w0": 0, "w1": 50}')
        out = tmp_path / "f.tsv"
        rc, caught = run_quietly(["fuse", "--asv", str(scores), "--cm",
                                  str(scores), "--asv-calib", str(calib),
                                  "--cm-calib", str(calib),
                                  "--out", str(out)])
        assert (rc, caught) == (1, [])
        assert capsys.readouterr().err == (
            "sasv fuse: error: the fused score of trial e1/t1 is nan\n")
        assert not out.exists()

    def test_fuse_linear_overflow(self, tmp_path, capsys):
        scores = tmp_path / "s.tsv"
        write_far_apart_scores(scores, 1e308)
        rc, caught = run_quietly(["fuse", "--asv", str(scores), "--cm",
                                  str(scores), "--mode", "linear",
                                  "--out", str(tmp_path / "f.tsv")])
        assert (rc, caught) == (1, [])
        assert capsys.readouterr().err == (
            "sasv fuse: error: the fused score of trial e1/t1 is inf\n")

    def test_fuse_far_apart_finite_llrs_is_quiet(self, tmp_path):
        asv, cm = tmp_path / "a.tsv", tmp_path / "c.tsv"
        write_far_apart_scores(asv, 1e308)
        write_far_apart_scores(cm, -1e308)
        out = tmp_path / "f.tsv"
        rc, caught = run_quietly(["fuse", "--asv", str(asv), "--cm", str(cm),
                                  "--out", str(out)])
        assert (rc, caught) == (0, [])
        with np.errstate(over="ignore"):
            expected = fuse_nonlinear(fileio.read_scores(asv).scores,
                                      fileio.read_scores(cm).scores, 0.5)
        assert np.isfinite(expected).all()
        np.testing.assert_array_equal(fileio.read_scores(out).scores,
                                      expected)

    def test_grid_overflow(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        rc, caught = run_quietly(["grid", "--mode", "linear",
                                  "--amin=-1e308", "--amax=1e308",
                                  "--cmin=-1e308", "--cmax=1e308",
                                  "--na", "3", "--nc", "3",
                                  "--out", str(out)])
        assert (rc, caught) == (1, [])
        assert capsys.readouterr().err == (
            "sasv grid: error: grid node 0 (llr_asv -1e+308, llr_cm -1e+308) "
            "is not finite: s_sasv is -inf\n")
        assert not out.exists()

    def test_grid_nodes_at_extreme_bounds(self, tmp_path):
        # stop - start overflows, yet every node is a finite double
        out = tmp_path / "g.csv"
        rc, caught = run_quietly(["grid", "--mode", "linear",
                                  "--amin=-1e308", "--amax=1e308",
                                  "--na", "3", "--nc", "3",
                                  "--out", str(out)])
        assert (rc, caught) == (0, [])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[0] for r in rows[::3]] == ["-1e+308", "0", "1e+308"]
        assert [r[1] for r in rows[:3]] == ["-8", "0", "8"]

    def test_grid_fused_overflow(self, tmp_path, capsys):
        rc, caught = run_quietly(["grid", "--mode", "linear",
                                  "--amin=1e308", "--amax=1.5e308",
                                  "--cmin=1e308", "--cmax=1.5e308",
                                  "--na", "2", "--nc", "2",
                                  "--out", str(tmp_path / "g.csv")])
        assert (rc, caught) == (1, [])
        assert capsys.readouterr().err == (
            "sasv grid: error: grid node 0 (llr_asv 1e+308, llr_cm 1e+308) "
            "is not finite: s_sasv is inf\n")

    def test_calibrate_separable_huge_scores(self, tmp_path, capsys):
        scores = tmp_path / "s.tsv"
        write_far_apart_scores(scores, 1e200)
        rc, caught = run_quietly(["calibrate", "--scores", str(scores),
                                  "--task", "asv",
                                  "--out", str(tmp_path / "c.json")])
        assert (rc, caught) == (1, [])
        assert capsys.readouterr().err == (
            "sasv calibrate: error: calibration scores are too large: the "
            "Newton step overflows\n")


COST_FLAGS = ("--cmiss", "--cfa-non", "--cfa-spf", "--ptar", "--pnon",
              "--pspf")
EDGE_VALUES = ("0", "5e-324", "1", "1e308")
MAGNITUDES = (5e-324, 1e-300, 1.0, 1e200, 1e308, 1.7976931348623157e308)
SIGNS = st.tuples(*[st.sampled_from((-1.0, -0.5, 0.5, 1.0))] * 6)


def write_signed_scores(path, magnitude, signs):
    labels = [TrialLabel.TARGET, TrialLabel.NONTARGET, TrialLabel.SPOOF] * 2
    fileio.write_scores(path, [(f"e{i}", f"t{i}", magnitude * sign, label)
                               for i, (sign, label)
                               in enumerate(zip(signs, labels))])


def run_captured(argv):
    """main(argv) quietly; returns (rc, warnings, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc, caught = run_quietly(argv)
    return rc, caught, err.getvalue()


def assert_clean_exit(rc, caught, err):
    assert rc in (0, 1)
    assert caught == []
    assert err.count("\n") <= 1 and "Traceback" not in err
    assert (rc == 0) == (err == "")


class TestEdgeValueProperties:
    """eval and fuse either write finite numbers or fail with one line,
    whatever the cost flags and score magnitudes."""

    @settings(max_examples=50, deadline=None)
    @given(costs=st.dictionaries(st.sampled_from(COST_FLAGS),
                                 st.sampled_from(EDGE_VALUES)),
           magnitude=st.sampled_from(MAGNITUDES), signs=SIGNS,
           threshold=st.sampled_from((None, "0.5", "-1e308", "1e308")),
           unnormalized=st.booleans())
    def test_eval(self, costs, magnitude, signs, threshold, unnormalized):
        with tempfile.TemporaryDirectory() as tmp:
            scores = os.path.join(tmp, "s.tsv")
            report = os.path.join(tmp, "r.json")
            write_signed_scores(scores, magnitude, signs)
            argv = ["eval", "--scores", scores, "--report", report]
            for flag, value in costs.items():
                argv += [f"{flag}={value}"]
            if threshold is not None:
                argv += [f"--threshold={threshold}"]
            if unnormalized:
                argv += ["--unnormalized"]
            rc, caught, err = run_captured(argv)
            assert_clean_exit(rc, caught, err)
            if rc == 0:
                with open(report, encoding="utf-8") as f:
                    json.load(f, parse_constant=reject_constant)

    @settings(max_examples=50, deadline=None)
    @given(asv_magnitude=st.sampled_from(MAGNITUDES), asv_signs=SIGNS,
           cm_magnitude=st.sampled_from(MAGNITUDES), cm_signs=SIGNS,
           mode=st.sampled_from(("linear", "nonlinear")),
           rho=st.sampled_from(("0", "0.5", "1")),
           w1=st.sampled_from((None, "1", "50")))
    def test_fuse(self, asv_magnitude, asv_signs, cm_magnitude, cm_signs,
                  mode, rho, w1):
        with tempfile.TemporaryDirectory() as tmp:
            asv, cm, out = (os.path.join(tmp, name)
                            for name in ("a.tsv", "c.tsv", "f.tsv"))
            write_signed_scores(asv, asv_magnitude, asv_signs)
            write_signed_scores(cm, cm_magnitude, cm_signs)
            argv = ["fuse", "--asv", asv, "--cm", cm, "--mode", mode,
                    "--rho", rho, "--out", out]
            if w1 is not None:
                calib = os.path.join(tmp, "calib.json")
                with open(calib, "w", encoding="utf-8") as f:
                    f.write(f'{{"w0": 0, "w1": {w1}}}')
                argv += ["--asv-calib", calib, "--cm-calib", calib]
            rc, caught, err = run_captured(argv)
            assert_clean_exit(rc, caught, err)
            if rc == 0:
                with open(out, encoding="utf-8") as f:
                    fused = [float(line.split("\t")[2]) for line in f]
                assert len(fused) == 6
                assert all(map(math.isfinite, fused))


class TestInputFaults:
    """Inputs the program cannot use end in one line and no warning."""

    def test_train_on_a_signalling_nan_embedding(self, tmp_path, capsys):
        emb = tmp_path / "emb.bin"
        emb.write_bytes(SNAN_EMBEDDING_FILE)
        rc, caught = run_quietly([
            "train", "--asv-emb", str(emb), "--cm-emb", str(emb),
            "--train-proto", str(tmp_path / "p.tsv"),
            "--dev-proto", str(tmp_path / "p.tsv"),
            "--out", str(tmp_path / "ckpt.json")])
        assert (rc, caught) == (1, [])
        assert capsys.readouterr().err == (
            f"sasv train: error: {emb}: entry 0: vector for 'a' has "
            "non-finite entries\n")

    def test_duplicate_trial_is_a_one_line_warning(self, tmp_path):
        # the warning machinery only prints outside a recorder, so run the
        # command as its own process, as a user would
        argv = make_train_sim(tmp_path, 10)
        message = repeat_first_train_trial(argv)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (
            os.path.dirname(os.path.dirname(fileio.__file__)),
            env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "sasv.cli", *argv, "--epochs", "1",
             "--out", str(tmp_path / "ckpt.json")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == f"sasv train: warning: {message}\n"

    def test_warnings_are_still_recorded(self, tmp_path):
        argv = make_train_sim(tmp_path, 10)
        message = repeat_first_train_trial(argv)
        formatwarning = warnings.formatwarning
        rc, caught = run_quietly([*argv, "--epochs", "1",
                                  "--out", str(tmp_path / "ckpt.json")])
        assert (rc, caught) == (0, [message])
        assert warnings.formatwarning is formatwarning

    def test_unknown_enrolment_is_printed_without_quotes(self, tmp_path,
                                                         capsys):
        argv = make_train_sim(tmp_path, 10)
        proto = tmp_path / "ghost.tsv"
        proto.write_text("ghost\tutt000000\ttarget\n")
        argv[argv.index("--train-proto") + 1] = str(proto)
        rc = main([*argv, "--out", str(tmp_path / "ckpt.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "sasv train: error: trial references unknown embedding: "
            "ghost/utt000000\n")


# Every integer a generated JSON value holds lies in [-50, 50], so no count
# or dimension asks for a large array.
JSON_WORDS = ("target", "nontarget", "spoof", "wcos-mlp", "mlp-mlp",
              "linear", "nonlinear", "w0", "w1", "means", "covs", "counts",
              "n_target", "d_asv", "sasv-checkpoint")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-50, 50) | st.floats()
    | st.text(max_size=4) | st.sampled_from(JSON_WORDS),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(JSON_WORDS) | st.text(max_size=4),
                      kids, max_size=4),
    max_leaves=12)

JSON_TARGETS = {
    "calibration": ({"w0": 0.5, "w1": 2.0}, "fuse"),
    "scores-config": ({"means": {"target": [3.0, 3.0]},
                       "covs": {"spoof": [[1.0, 0.5], [0.5, 2.0]]},
                       "counts": {"target": 5, "nontarget": 4,
                                  "spoof": 3}}, "scores"),
    "embeddings-config": ({"n_speakers": 3, "d_asv": 4, "d_cm": 3,
                           "n_target": 5, "n_nontarget": 4, "n_spoof": 3,
                           "sigma_w": 0.2, "delta": 0.5, "cm_margin": 1.5},
                          "embeddings"),
    # a wcos-mlp checkpoint with a 3-unit CM MLP, small enough to edit
    "checkpoint": (json.loads(fileio.checkpoint_to_json(ModelParams(
        "wcos-mlp", "nonlinear", 2, 2, init_mlp(4, (3,), make_rng(0)),
        w_asv=np.ones(2), rho_logit=0.5, tau=-0.25))), "grid"),
}


@st.composite
def json_file(draw, valid):
    """Bytes of a random JSON value, random bytes, a valid document with one
    entry replaced or deleted, or its text with a few bytes replaced."""
    kind = draw(st.sampled_from(["value", "bytes", "entry", "text"]))
    if kind == "value":
        return json.dumps(draw(JSON_VALUES)).encode()
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    if kind == "text":
        text = json.dumps(valid).encode()
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(start + 4, len(text))))
        return text[:start] + draw(st.binary(max_size=4)) + text[stop:]
    doc = copy.deepcopy(valid)
    node = doc
    while True:
        key = draw(st.sampled_from(
            list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child
                and draw(st.booleans())):
            break
        node = child
    if isinstance(node, dict) and draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(JSON_VALUES)
    return json.dumps(doc).encode()


@settings(max_examples=50, deadline=None)
@given(data=st.data(), target=st.sampled_from(sorted(JSON_TARGETS)))
def test_json_inputs_exit_cleanly(data, target):
    """Whatever a JSON input holds, the command exits 0 or 1 with at most
    one line on stderr and no warning."""
    valid, use = JSON_TARGETS[target]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "wb") as f:
            f.write(data.draw(json_file(valid)))
        if use == "fuse":
            scores = os.path.join(tmp, "s.tsv")
            write_worked_scores(scores)
            argv = ["fuse", "--asv", scores, "--cm", scores,
                    "--asv-calib", path, "--out", os.path.join(tmp, "f.tsv")]
        elif use == "grid":
            argv = ["grid", "--ckpt", path, "--na", "3", "--nc", "3",
                    "--out", os.path.join(tmp, "g.csv")]
        else:
            argv = ["simulate", "--mode", use, "--config", path,
                    "--out-dir", os.path.join(tmp, "sim")]
        rc, caught, err = run_captured(argv)
    assert_clean_exit(rc, caught, err)


SCORE_INSERTS = (b"\t", b"\n", b"\r", b"\x00", b"\xff", b"\xef\xbb\xbf",
                 b"1e999", b"nan")


@st.composite
def mutated_bytes(draw, data):
    """data after one to three deletions, insertions from SCORE_INSERTS,
    truncations or repeats of a span."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["delete", "insert", "truncate",
                                     "repeat"]))
        i = draw(st.integers(0, len(data)))
        if kind == "insert":
            data = data[:i] + draw(st.sampled_from(SCORE_INSERTS)) + data[i:]
        elif kind == "truncate":
            data = data[:i]
        else:
            j = draw(st.integers(i, min(i + 40, len(data))))
            data = data[:i] + data[j:] if kind == "delete" \
                else data[:j] + data[i:j] + data[j:]
    return data


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       use=st.sampled_from(["eval", "calibrate-asv", "calibrate-cm",
                            "fuse-asv", "fuse-cm"]))
def test_score_files_exit_cleanly(data, use):
    """Whatever bytes a score TSV holds, eval, calibrate and fuse exit 0 or
    1 with at most one line on stderr and no warning."""
    with tempfile.TemporaryDirectory() as tmp:
        good, bad, out = (os.path.join(tmp, name)
                          for name in ("good.tsv", "bad.tsv", "out"))
        write_worked_scores(good)
        with open(good, "rb") as f:
            text = f.read()
        with open(bad, "wb") as f:
            f.write(data.draw(mutated_bytes(text)))
        if use == "eval":
            argv = ["eval", "--scores", bad, "--report", out]
        elif use.startswith("calibrate"):
            argv = ["calibrate", "--scores", bad, "--task", use[10:],
                    "--out", out]
        else:
            asv, cm = (bad, good) if use == "fuse-asv" else (good, bad)
            argv = ["fuse", "--asv", asv, "--cm", cm, "--out", out]
        rc, caught, err = run_captured(argv)
    assert_clean_exit(rc, caught, err)
