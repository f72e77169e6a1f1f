import json
import math
import warnings

import numpy as np
import pytest

from sasv import fileio
from sasv.cli import main
from sasv.core import TrialLabel
from sasv.decision import fuse_nonlinear


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
    ])
    def test_bad_config_is_one_line_error(self, tmp_path, capsys, mode,
                                          config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        rc = main(["simulate", "--mode", mode, "--config", str(cfg),
                   "--out-dir", str(tmp_path / "sim")])
        assert rc == 1
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
