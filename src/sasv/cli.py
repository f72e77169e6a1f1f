"""Command-line surface: simulate | calibrate | fuse | eval | train | det | grid."""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
import warnings

import numpy as np

from . import fileio
from .core import NONTARGET, SPOOF, TARGET, CostModel, ScoreTable, \
    TrialLabel, label_codes, subsystem_task
from .decision import CalibrationParams, FusionConfig, calibrate, \
    fit_calibration, fuse
from .metrics import actual_adcf, eer, det_points, min_adcf, split_by_class
from .sim import EmbeddingSimConfig, GridSpec, ScoreSimConfig, \
    boundary_grid, simulate_embeddings, simulate_scores
from .train import ARCHITECTURES, TrainConfig, TrainingDiverged, \
    train_joint


def _add_cost_flags(parser):
    parser.add_argument("--cmiss", type=float, default=1.0)
    parser.add_argument("--cfa-non", type=float, default=10.0)
    parser.add_argument("--cfa-spf", type=float, default=20.0)
    parser.add_argument("--ptar", type=float, default=0.9)
    parser.add_argument("--pnon", type=float, default=0.05)
    parser.add_argument("--pspf", type=float, default=0.05)


def _cost_model(args):
    return CostModel(args.cmiss, args.cfa_non, args.cfa_spf,
                     args.ptar, args.pnon, args.pspf)


def _cost_model_json(cm):
    return {**dataclasses.asdict(cm), "rho": cm.rho, "beta": cm.beta}


def _load_calibration(path):
    """CalibrationParams from a JSON object with finite numbers w0 and w1."""
    doc = fileio.read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: calibration must be a JSON object")
    for key in ("w0", "w1"):
        if key not in doc:
            raise ValueError(f"{path}: missing field {key!r}")
        value = doc[key]
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            raise ValueError(f"{path}: {key} must be a finite number, "
                             f"got {json.dumps(value)}")
    return CalibrationParams(float(doc["w0"]), float(doc["w1"]))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sasv",
        description="Spoofing-robust speaker verification back-end")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic trials")
    p.add_argument("--mode", choices=["scores", "embeddings"], required=True)
    p.add_argument("--config", help="JSON file overriding simulator defaults")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("calibrate", help="fit an affine score-to-LLR map")
    p.add_argument("--scores", required=True)
    p.add_argument("--task", choices=["asv", "cm"], required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fuse", help="calibrate and fuse ASV and CM scores")
    p.add_argument("--asv", required=True)
    p.add_argument("--cm", required=True)
    p.add_argument("--mode", choices=["linear", "nonlinear"],
                   default="nonlinear")
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--asv-calib")
    p.add_argument("--cm-calib")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="a-DCF / EER report for fused scores")
    p.add_argument("--scores", required=True)
    _add_cost_flags(p)
    p.add_argument("--threshold", type=float,
                   help="fixed (development-set) threshold for actual a-DCF")
    p.add_argument("--unnormalized", action="store_true")
    p.add_argument("--report", required=True)

    p = sub.add_parser("train", help="jointly train a scoring back-end")
    p.add_argument("--arch", choices=ARCHITECTURES, default="wcos-mlp")
    p.add_argument("--fusion", choices=["linear", "nonlinear"],
                   default="nonlinear")
    p.add_argument("--loss", choices=["v1", "v2"], default="v1")
    p.add_argument("--optimizer", choices=["sgd", "adam"], default="adam")
    p.add_argument("--init", choices=["random", "pretrained"],
                   default="random")
    p.add_argument("--asv-emb", required=True)
    p.add_argument("--cm-emb", required=True)
    p.add_argument("--train-proto", required=True)
    p.add_argument("--dev-proto", required=True)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=192)
    p.add_argument("--lr", type=float, default=0.000861)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=1.0)
    _add_cost_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="per-epoch training log (JSON lines)")

    p = sub.add_parser("det", help="DET curve vertices as CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--negatives", choices=["nontarget", "spoof"],
                   required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("grid", help="fused score + decision over an LLR grid")
    p.add_argument("--ckpt", help="use a checkpoint's fusion parameters")
    p.add_argument("--mode", choices=["linear", "nonlinear"])
    p.add_argument("--rho", type=float, default=0.5)
    _add_cost_flags(p)
    p.add_argument("--amin", type=float, default=-8.0)
    p.add_argument("--amax", type=float, default=8.0)
    p.add_argument("--cmin", type=float, default=-8.0)
    p.add_argument("--cmax", type=float, default=8.0)
    p.add_argument("--na", type=int, default=81)
    p.add_argument("--nc", type=int, default=81)
    p.add_argument("--out", required=True)
    return parser


def _load_sim_overrides(path, fields):
    """The simulator fields a --config JSON object sets."""
    doc = fileio.read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    for key in doc:
        if key not in fields:
            raise ValueError(f"{path}: unknown field {key!r} "
                             f"(expected one of: {', '.join(fields)})")
    return doc


def _cmd_simulate(args):
    os.makedirs(args.out_dir, exist_ok=True)
    if args.mode == "scores":
        cfg = ScoreSimConfig(seed=args.seed)
        if args.config:
            overrides = _load_sim_overrides(args.config,
                                            ("means", "covs", "counts"))
            for field_name, per_label in overrides.items():
                if not isinstance(per_label, dict):
                    raise ValueError(f"{args.config}: {field_name} must map "
                                     "trial labels to values")
                getattr(cfg, field_name).update(
                    {TrialLabel.from_string(k): v
                     for k, v in per_label.items()})
            cfg = ScoreSimConfig(cfg.means, cfg.covs, cfg.counts, args.seed)
        llr_asv, llr_cm, labels = simulate_scores(cfg)
        enroll = [f"e{i:06d}" for i in range(len(labels))]
        test = [f"t{i:06d}" for i in range(len(labels))]
        codes = label_codes(labels)
        fileio.write_scores(os.path.join(args.out_dir, "asv_scores.tsv"),
                            ScoreTable(enroll, test, llr_asv, codes))
        fileio.write_scores(os.path.join(args.out_dir, "cm_scores.tsv"),
                            ScoreTable(enroll, test, llr_cm, codes))
    else:
        fields = [f.name for f in dataclasses.fields(EmbeddingSimConfig)
                  if f.name != "seed"]
        overrides = _load_sim_overrides(args.config, fields) \
            if args.config else {}
        cfg = EmbeddingSimConfig(**overrides, seed=args.seed)
        with np.errstate(all="ignore"):  # the store names a non-finite row
            asv_store, cm_store, trials = simulate_embeddings(cfg)
        paths = [os.path.join(args.out_dir, name)
                 for name in ("asv_emb.bin", "cm_emb.bin")]
        # both files are checked before either is written
        blobs = [fileio.embedding_bytes(path, store)
                 for path, store in zip(paths, (asv_store, cm_store))]
        for path, blob in zip(paths, blobs):
            fileio._atomic_write(path, blob, mode="wb")
        fileio.write_protocol(os.path.join(args.out_dir, "protocol.tsv"),
                              trials)
    return 0


def _cmd_calibrate(args):
    table = fileio.read_scores(args.scores)
    rows, y = subsystem_task(table.codes, args.task)
    scores, labels = table.scores[rows], y[rows]
    if not scores.size:
        raise ValueError("no usable trials for calibration task "
                         f"{args.task!r}")
    with np.errstate(all="ignore"):  # overflows end in a one-line error
        params = fit_calibration(scores, labels)
    fileio.write_report(args.out, {"w0": params.w0, "w1": params.w1,
                                   "task": args.task})
    return 0


def _cmd_fuse(args):
    asv = fileio.read_scores(args.asv)
    cm = fileio.read_scores(args.cm)
    # a repeated CM trial resolves to its last row
    cm_row = dict(zip(zip(cm.enroll, cm.test), range(len(cm))))
    asv_calib = _load_calibration(args.asv_calib) if args.asv_calib \
        else CalibrationParams(0.0, 1.0)
    cm_calib = _load_calibration(args.cm_calib) if args.cm_calib \
        else CalibrationParams(0.0, 1.0)
    config = FusionConfig(args.mode, args.rho)
    rows = np.fromiter(map(cm_row.get, zip(asv.enroll, asv.test),
                           itertools.repeat(-1)), np.intp, len(asv))
    bad = rows < 0
    bad[~bad] = asv.codes[~bad] != cm.codes[rows[~bad]]
    if bad.any():
        i = int(np.argmax(bad))
        trial = f"{asv.enroll[i]}/{asv.test[i]}"
        if rows[i] < 0:
            raise ValueError(f"trial {trial} missing from CM scores")
        raise ValueError(f"label mismatch for trial {trial}")
    with np.errstate(all="ignore"):  # a non-finite score is named below
        fused = fuse(calibrate(asv.scores, asv_calib),
                     calibrate(cm.scores[rows], cm_calib), config)
    bad = ~np.isfinite(fused)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"the fused score of trial {asv.enroll[i]}/"
                         f"{asv.test[i]} is {fused[i]}")
    fileio.write_scores(args.out,
                        ScoreTable(asv.enroll, asv.test, fused, asv.codes))
    return 0


def _cmd_eval(args):
    table = fileio.read_scores(args.scores)
    scores, codes = table.scores, table.codes
    cm = _cost_model(args)
    normalized = not args.unnormalized
    report = min_adcf(scores, codes, cm, normalized=normalized)
    tar, non, spf = split_by_class(scores, codes)
    sv_eer, sv_tau = eer(tar, non)
    spf_eer, spf_tau = eer(tar, spf)
    doc = {
        "cost_model": _cost_model_json(cm),
        "normalized": normalized,
        "min_adcf": report.min_adcf,
        # null where the minimum lies at a +-inf sentinel threshold
        "min_threshold": report.min_threshold
        if math.isfinite(report.min_threshold) else None,
        "rates_at_min": {
            "p_miss_tar": report.rates_at_min.p_miss_tar,
            "p_fa_non": report.rates_at_min.p_fa_non,
            "p_fa_spf": report.rates_at_min.p_fa_spf,
        },
        "sv_eer": sv_eer,
        "sv_eer_threshold": sv_tau,
        "spf_eer": spf_eer,
        "spf_eer_threshold": spf_tau,
        "n_trials": len(table),
    }
    if args.threshold is not None:
        doc["act_adcf"] = actual_adcf(scores, codes, args.threshold, cm,
                                      normalized=normalized)
        doc["act_threshold"] = args.threshold
    fileio.write_report(args.report, doc)
    return 0


def _cmd_train(args):
    asv_store = fileio.read_embeddings(args.asv_emb)
    cm_store = fileio.read_embeddings(args.cm_emb)
    train_trials = fileio.read_protocol(args.train_proto)
    dev_trials = fileio.read_protocol(args.dev_proto)
    cfg = TrainConfig(
        architecture=args.arch,
        fusion_mode=args.fusion,
        loss_variant=args.loss,
        optimizer=args.optimizer,
        init=args.init,
        epochs=args.epochs,
        batch_size=args.batch,
        lr=args.lr,
        seed=args.seed,
        alpha=args.alpha,
        cost_model=_cost_model(args),
    )
    try:
        ckpt, log = train_joint(cfg, asv_store, cm_store, train_trials,
                                dev_trials)
    except TrainingDiverged as exc:
        if args.log:  # keep the epochs that finished
            _write_log(args.log, exc.log)
        raise
    config_echo = {**dataclasses.asdict(cfg),
                   "cost_model": _cost_model_json(cfg.cost_model),
                   "best_epoch": ckpt.epoch}
    fileio.write_checkpoint(args.out, ckpt.model, config=config_echo,
                            dev_min_adcf=ckpt.dev_min_adcf,
                            dev_threshold=ckpt.dev_threshold)
    if args.log:
        _write_log(args.log, log)
    return 0


def _write_log(path, entries):
    """The training log: one sorted-key strict JSON line per epoch."""
    fileio._atomic_write(path, "".join(
        json.dumps(entry, sort_keys=True, allow_nan=False) + "\n"
        for entry in entries))


def _cmd_det(args):
    table = fileio.read_scores(args.scores)
    neg_code = NONTARGET if args.negatives == "nontarget" else SPOOF
    pos = table.scores[table.codes == TARGET]
    neg = table.scores[table.codes == neg_code]
    fileio.write_det_csv(args.out, det_points(pos, neg))
    return 0


def _cmd_grid(args):
    cm = _cost_model(args)
    if args.ckpt:
        fusion = fileio.read_checkpoint(args.ckpt)[0].fusion
    elif args.mode:
        fusion = FusionConfig(args.mode, args.rho)
    else:
        raise ValueError("grid needs either --ckpt or --mode")
    spec = GridSpec(args.amin, args.amax, args.cmin, args.cmax,
                    args.na, args.nc)
    fileio.write_grid_csv(args.out, boundary_grid(fusion, cm, spec))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "calibrate": _cmd_calibrate,
    "fuse": _cmd_fuse,
    "eval": _cmd_eval,
    "train": _cmd_train,
    "det": _cmd_det,
    "grid": _cmd_grid,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    # a printed warning is one line, as an error is; a recorder of warnings
    # still receives each one
    formatwarning = warnings.formatwarning
    warnings.formatwarning = \
        lambda message, *_: f"sasv {args.command}: warning: {message}\n"
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        # str(KeyError) is the repr of its message: print the message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"sasv {args.command}: error: {message}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
