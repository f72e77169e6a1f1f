"""Each output check passes on a correct output and rejects a perturbed copy.

    python3 -m pytest bench/test_checks.py

The correct outputs come from the program itself, at small sizes.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import run  # noqa: E402
from checks import Costs, Mismatch, Unreadable  # noqa: E402
from sasv.cli import main as sasv  # noqa: E402

COUNTS = {label: 400 for label in checks.LABELS}
GRID = {"amin": -8.0, "amax": 8.0, "cmin": -8.0, "cmax": 8.0,
        "na": 41, "nc": 41}
EMBEDDINGS = dict(run.EMBEDDING_SIM, n_target=120, n_nontarget=120,
                  n_spoof=120)
EPOCHS = 4


def _cli(*argv):
    assert sasv([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def scores(tmp_path_factory):
    d = tmp_path_factory.mktemp("scores")
    config = d / "sim.json"
    config.write_text(json.dumps({"counts": COUNTS, "means": run.SCORE_MEANS,
                                  "covs": run.SCORE_COVS}))
    _cli("simulate", "--mode", "scores", "--config", config,
         "--out-dir", d, "--seed", 7)
    for task in ("asv", "cm"):
        _cli("calibrate", "--scores", d / f"{task}_scores.tsv",
             "--task", task, "--out", d / f"{task}.json")
    _cli("fuse", "--asv", d / "asv_scores.tsv", "--cm", d / "cm_scores.tsv",
         "--asv-calib", d / "asv.json", "--cm-calib", d / "cm.json",
         "--rho", 0.5, "--out", d / "fused.tsv")
    _cli("eval", "--scores", d / "fused.tsv", "--threshold", 0.0,
         "--report", d / "report.json")
    _cli("det", "--scores", d / "fused.tsv", "--negatives", "spoof",
         "--out", d / "det.csv")
    _cli("grid", "--mode", "nonlinear", "--rho", 0.5, "--na", GRID["na"],
         "--nc", GRID["nc"], "--out", d / "grid.csv")
    return d


def _table(d, name="fused.tsv"):
    return checks.read_scores(d / name)


def test_score_simulation(scores):
    asv, cm = _table(scores, "asv_scores.tsv"), _table(scores, "cm_scores.tsv")
    checks.check_score_simulation(asv, cm, COUNTS, run.SCORE_MEANS,
                                  run.SCORE_COVS)
    shifted = checks.ScoreTable(asv.enroll, asv.test, asv.scores + 0.5,
                                asv.labels)
    with pytest.raises(Mismatch):
        checks.check_score_simulation(shifted, cm, COUNTS, run.SCORE_MEANS,
                                      run.SCORE_COVS)


@pytest.mark.parametrize("task", ["asv", "cm"])
def test_calibration(scores, task):
    table = _table(scores, f"{task}_scores.tsv")
    calib = checks.read_json(scores / f"{task}.json")
    checks.check_calibration(table, calib, task)
    with pytest.raises(Mismatch):
        checks.check_calibration(table, dict(calib, w1=calib["w1"] * 1.01),
                                 task)


def test_fusion(scores):
    args = (_table(scores, "asv_scores.tsv"), _table(scores, "cm_scores.tsv"),
            checks.read_json(scores / "asv.json"),
            checks.read_json(scores / "cm.json"))
    fused = _table(scores)
    checks.check_fusion(*args, fused, 0.5)
    fused.scores[17] += 1e-6
    with pytest.raises(Mismatch):
        checks.check_fusion(*args, fused, 0.5)


def test_eval(scores):
    table, report = _table(scores), checks.read_json(scores / "report.json")
    checks.check_eval(table, report, Costs(), 0.0)
    for key, value in (("min_adcf", report["min_adcf"] * 1.001),
                       ("sv_eer", report["sv_eer"] + 3.0 / 400)):
        with pytest.raises(Mismatch):
            checks.check_eval(table, dict(report, **{key: value}), Costs(),
                              0.0)


def test_det(scores):
    points = checks.read_csv(scores / "det.csv", "p_fa,p_miss", 2)
    checks.check_det(_table(scores), points, "spoof")
    swapped = points.copy()
    k = int(np.flatnonzero(np.any(points[1:-1] != points[2:], axis=1))[0]) + 1
    swapped[[k, k + 1]] = swapped[[k + 1, k]]
    with pytest.raises(Mismatch):
        checks.check_det(_table(scores), swapped, "spoof")


def test_grid(scores):
    grid = checks.read_csv(scores / "grid.csv",
                           "llr_asv,llr_cm,s_sasv,accept", 4)
    checks.check_grid(grid, GRID, 0.5, Costs())
    grid[0, 3] = 1.0 - grid[0, 3]   # (-8, -8) is far from the boundary
    with pytest.raises(Mismatch):
        checks.check_grid(grid, GRID, 0.5, Costs())


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    d = tmp_path_factory.mktemp("train")
    config = d / "sim.json"
    config.write_text(json.dumps(EMBEDDINGS))
    _cli("simulate", "--mode", "embeddings", "--config", config,
         "--out-dir", d, "--seed", 3)
    run.split_protocol(str(d))
    _cli("train", *run.TRAIN_FLAGS, "--asv-emb", d / "asv_emb.bin",
         "--cm-emb", d / "cm_emb.bin", "--train-proto", d / "train.tsv",
         "--dev-proto", d / "dev.tsv", "--epochs", EPOCHS, "--seed", 3,
         "--out", d / "ckpt.json", "--log", d / "log.jsonl")
    return d


def _training_inputs(d):
    return (checks.read_embeddings(d / "asv_emb.bin"),
            checks.read_embeddings(d / "cm_emb.bin"),
            checks.read_protocol(d / "dev.tsv"))


def test_embedding_simulation(trained):
    asv, cm, _ = _training_inputs(trained)
    protocol = checks.read_protocol(trained / "protocol.tsv")
    checks.check_embedding_simulation(asv, cm, protocol, EMBEDDINGS)
    with pytest.raises(Mismatch):
        checks.check_embedding_simulation(
            asv, cm, protocol, dict(EMBEDDINGS, cm_margin=2.5))


def test_training(trained):
    ckpt = checks.read_json(trained / "ckpt.json")
    log = (trained / "log.jsonl").read_text()
    asv, cm, dev = _training_inputs(trained)
    checks.check_training(ckpt, log, asv, cm, dev, EPOCHS, Costs())
    ckpt["cm_mlp"]["weights"][0][0] += 0.05
    with pytest.raises(Mismatch):
        checks.check_training(ckpt, log, asv, cm, dev, EPOCHS, Costs())


def test_zero_epoch_checkpoint_is_not_json(trained):
    # The fault the joint-train workload counts as a failed operation.
    _cli("train", *run.TRAIN_FLAGS, "--asv-emb", trained / "asv_emb.bin",
         "--cm-emb", trained / "cm_emb.bin",
         "--train-proto", trained / "train.tsv",
         "--dev-proto", trained / "dev.tsv", "--epochs", 0,
         "--out", trained / "zero.json")
    with pytest.raises(Unreadable):
        checks.read_json(trained / "zero.json")


def test_rho_sweep():
    import sasv.core
    import sasv.sim
    import sasv.train
    counts = {label: 300 for label in sasv.core.TrialLabel}
    llr_asv, llr_cm, labels = sasv.sim.simulate_scores(
        sasv.sim.ScoreSimConfig(counts=counts, seed=5))
    codes = checks.label_codes([label.value for label in labels], "labels")
    for costs in run.RhoSweep.cost_models.values():
        model = sasv.core.CostModel(costs.c_miss, costs.c_fa_non,
                                    costs.c_fa_spf, costs.pi_tar,
                                    costs.pi_non, costs.pi_spf)
        result = sasv.train.tune_fusion_rho(llr_asv, llr_cm, labels, model)
        expected = checks.rho_sweep_expectation(llr_asv, llr_cm, codes, costs)
        checks.check_rho_sweep(result, expected)
        with pytest.raises(Mismatch):
            checks.check_rho_sweep((result[0] + 0.01, result[1]), expected)


def test_benchmark_json_names_every_metric():
    from tracing import Tracer

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    layer = run.layer_metrics(Tracer(), 1.0, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: metric["unit"] for name, metric in layer.items()}
