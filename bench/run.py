#!/usr/bin/env python3
"""Seeded benchmark of the SASV back-end.

    python3 bench/run.py --workload score-pipeline --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  `--trace 0` times the workload as a
user runs it (each CLI command its own `python -m sasv.cli` process) and
prints the end-to-end metrics; `--trace 1` runs it in this process, once
with spans around the program's functions, and prints the per-layer
metrics.  Every output is checked by `checks.py`.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
`--workload all` runs every workload in both modes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# One process at a time and one BLAS thread in it: steady on a shared host,
# and never more threads than the machine has cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
CHILD_ENV = dict(os.environ, PYTHONPATH=SRC)

import numpy as np  # noqa: E402  (after the BLAS thread settings)

import checks  # noqa: E402
from checks import Costs, Mismatch, Unreadable  # noqa: E402

STARTUP_PROBES = 5
# Each timed operation is bracketed by reference probes, each lasting the
# larger of REFERENCE_MIN_S and REFERENCE_SHARE of the operation's time (its
# previous time, for the probe before it).
REFERENCE_MIN_S = 0.15
REFERENCE_SHARE = 0.1

# Reference computations: fixed work, independent of the program.  This
# host's speed changes by a third from one minute to the next, with CPU time
# following wall time, so a round's time in seconds spreads between runs
# more than any bound could allow; its time as a multiple of a reference's
# time measured beside it does not.  A slow spell slows Python object code
# about twice as much as dense numpy, so each workload is measured against
# the reference that resembles its own work.
_REFERENCE_LINES = [f"t{i:06d}\t{(i * 7919) % 10007 / 997.0:.6f}\t"
                    f"{('target', 'nontarget', 'spoof')[i % 3]}\n"
                    for i in range(12000)]
_REFERENCE_ARRAY = np.random.default_rng(0).standard_normal(200_000)
_REFERENCE_X, _REFERENCE_W1, _REFERENCE_W2 = (
    np.random.default_rng(1).standard_normal(shape)
    for shape in ((192, 64), (256, 64), (256, 256)))


def python_reference():
    """Parse TSV-like lines in a Python loop."""
    total = 0.0
    for line in _REFERENCE_LINES:
        _, score, label = line.rstrip("\n").split("\t")
        if label != "spoof":
            total += float(score)
    return total


def numpy_reference():
    """Sort an array; run leaky-ReLU MLP layers forward and back."""
    total = float(np.sort(_REFERENCE_ARRAY)[0])
    for _ in range(2):
        h = _REFERENCE_X @ _REFERENCE_W1.T
        h = np.where(h > 0, h, 0.01 * h)
        z = h @ _REFERENCE_W2.T
        total += float((z.T @ h)[0, 0] + (z @ _REFERENCE_W2)[0, 0])
    return total


def mixed_reference():
    return python_reference() + numpy_reference()


def reference_probe(work, min_seconds):
    """Repeat `work` for at least `min_seconds`; returns (seconds, n)."""
    n, t0 = 0, time.perf_counter()
    while True:
        work()
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_seconds:
            return elapsed, n


@dataclass
class Op:
    """One operation: a command or library call plus the check of its output."""

    name: str
    seconds: float
    rss_kb: int
    timed: bool
    failed: bool
    note: str = ""
    ref_s: float = 0.0  # mean reference time around it (timed, untraced)


class Context:
    """Runs the program's operations for one pass and records them.

    Out of process, each command is a `python -m sasv.cli` process; in
    process, it is a `sasv.cli.main(argv)` call.  With a tracer, operations
    outside the timed part run with tracing paused.
    """

    def __init__(self, in_process, tracer=None, check=True, reference=None):
        self.in_process = in_process
        self.reference = reference
        self.last_seconds = {}
        self.tracer = tracer
        self.check = check
        self.ops = []
        self.problems = []

    def command(self, argv):
        """Run one sasv command; returns (seconds, peak RSS kB, ok, note)."""
        if self.in_process:
            import sasv.cli
            t0 = time.perf_counter()
            try:
                code = sasv.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            return time.perf_counter() - t0, 0, code == 0, f"exit {code}"
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "sasv.cli", *argv],
                                cwd=ROOT, env=CHILD_ENV,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        try:
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stderr.close()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        note = err.decode("utf-8", "replace").strip()[-300:]
        return seconds, usage.ru_maxrss, proc.returncode == 0, note

    def setup_command(self, argv):
        seconds, _, ok, note = self.command(argv)
        if not ok:
            raise RuntimeError(f"set-up command {argv[0]} failed: {note}")
        return seconds

    def op(self, name, run, check, timed=True):
        paused = self.tracer is not None and not timed
        if paused:
            self.tracer.active = False
        probe = self.reference is not None and timed
        if probe:
            previous = self.last_seconds.get(name, 0.0)
            before = reference_probe(
                self.reference,
                max(REFERENCE_MIN_S, REFERENCE_SHARE * previous))
        try:
            seconds, rss_kb, ok, note = run()
        finally:
            if paused:
                self.tracer.active = True
        ref_s = 0.0
        if probe:
            after = reference_probe(
                self.reference, max(REFERENCE_MIN_S, REFERENCE_SHARE * seconds))
            ref_s = (before[0] + after[0]) / (before[1] + after[1])
            self.last_seconds[name] = seconds
        failed = not ok
        if ok and self.check:
            try:
                check()
            except Unreadable as exc:
                failed, note = True, str(exc)
            except (KeyError, TypeError) as exc:
                failed, note = True, f"malformed output: {exc!r}"
            except Mismatch as exc:
                self.problems.append(f"{name}: {exc}")
        self.ops.append(Op(name, seconds, rss_kb, timed, failed,
                           note if failed else "", ref_s))


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def _tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


# --------------------------------------------------------------- workloads

LABELS = checks.LABELS
SCORE_MEANS = {"target": [3.0, 3.0], "nontarget": [-3.0, 3.0],
               "spoof": [0.0, -3.0]}
SCORE_COVS = {label: [[1.0, 0.0], [0.0, 1.0]] for label in LABELS}


class ScorePipeline:
    """The evaluator's CLI path over a challenge-sized score list."""

    setup_repeats = 3
    # Per-row Python loops, but also interpreter start-up, numpy sorts and
    # file writes.
    reference = staticmethod(mixed_reference)
    counts = {label: 100_000 for label in LABELS}
    rho = 0.5
    threshold = 0.0
    grid = {"amin": -8.0, "amax": 8.0, "cmin": -8.0, "cmax": 8.0,
            "na": 401, "nc": 401}

    def __init__(self, seed, work, fixed):
        self.seed, self.work = seed, work
        self.sim = os.path.join(work, "sim")
        self.config = os.path.join(work, "score_sim.json")
        _write_json(self.config, {"counts": self.counts, "means": SCORE_MEANS,
                                  "covs": SCORE_COVS})

    def path(self, name):
        return os.path.join(self.work, name)

    def setup(self, ctx):
        return ctx.setup_command(["simulate", "--mode", "scores", "--config",
                                  self.config, "--out-dir", self.sim,
                                  "--seed", str(self.seed)])

    def check_setup(self):
        checks.check_score_simulation(
            checks.read_scores(os.path.join(self.sim, "asv_scores.tsv")),
            checks.read_scores(os.path.join(self.sim, "cm_scores.tsv")),
            self.counts, SCORE_MEANS, SCORE_COVS)

    def prepare(self, ctx):
        pass

    def round(self, ctx):
        tables = {}

        def table(path):
            if path not in tables:
                tables[path] = checks.read_scores(path)
            return tables[path]

        def cli(argv):
            return lambda: ctx.command(argv)

        scores = {task: os.path.join(self.sim, f"{task}_scores.tsv")
                  for task in ("asv", "cm")}
        calib = {task: self.path(f"{task}_calib.json") for task in scores}
        fused = self.path("fused.tsv")
        for task in ("asv", "cm"):
            ctx.op(f"calibrate-{task}",
                   cli(["calibrate", "--scores", scores[task], "--task", task,
                        "--out", calib[task]]),
                   lambda t=task: checks.check_calibration(
                       table(scores[t]), checks.read_json(calib[t]), t))
        ctx.op("fuse",
               cli(["fuse", "--asv", scores["asv"], "--cm", scores["cm"],
                    "--asv-calib", calib["asv"], "--cm-calib", calib["cm"],
                    "--mode", "nonlinear", "--rho", str(self.rho),
                    "--out", fused]),
               lambda: checks.check_fusion(
                   table(scores["asv"]), table(scores["cm"]),
                   checks.read_json(calib["asv"]),
                   checks.read_json(calib["cm"]), table(fused), self.rho))
        report = self.path("report.json")
        ctx.op("eval",
               cli(["eval", "--scores", fused, "--threshold",
                    str(self.threshold), "--report", report]),
               lambda: checks.check_eval(table(fused),
                                         checks.read_json(report), Costs(),
                                         self.threshold))
        for negatives in ("spoof", "nontarget"):
            det = self.path(f"det_{negatives}.csv")
            ctx.op(f"det-{negatives}",
                   cli(["det", "--scores", fused, "--negatives", negatives,
                        "--out", det]),
                   lambda d=det, n=negatives: checks.check_det(
                       table(fused), checks.read_csv(d, "p_fa,p_miss", 2), n))
        grid = self.path("grid.csv")
        g = self.grid
        ctx.op("grid",
               cli(["grid", "--mode", "nonlinear", "--rho", str(self.rho),
                    "--amin", str(g["amin"]), "--amax", str(g["amax"]),
                    "--cmin", str(g["cmin"]), "--cmax", str(g["cmax"]),
                    "--na", str(g["na"]), "--nc", str(g["nc"]),
                    "--out", grid]),
               lambda: checks.check_grid(
                   checks.read_csv(grid, "llr_asv,llr_cm,s_sasv,accept", 4),
                   g, self.rho, Costs()))

    def outputs(self):
        return _tree_bytes(self.work)


EMBEDDING_SIM = {"n_speakers": 20, "d_asv": 16, "d_cm": 8, "sigma_w": 0.1,
                 "delta": 1.0, "cm_margin": 2.0, "n_target": 2000,
                 "n_nontarget": 2000, "n_spoof": 2000}
# Inputs of the zero-epoch operation do not depend on the workload seed.
FIXED_SIM = dict(EMBEDDING_SIM, n_target=30, n_nontarget=30, n_spoof=30)
TRAIN_FLAGS = ["--arch", "wcos-mlp", "--loss", "v2", "--init", "pretrained",
               "--optimizer", "adam"]


def split_protocol(directory):
    """Split protocol.tsv 1:1 within each class: alternate rows go to dev."""
    by_class = {}
    with open(os.path.join(directory, "protocol.tsv"), encoding="utf-8") as f:
        for line in f:
            by_class.setdefault(line.rsplit("\t", 1)[-1], []).append(line)
    for name, start in (("train.tsv", 0), ("dev.tsv", 1)):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as f:
            for lines in by_class.values():
                f.writelines(lines[start::2])


class JointTrain:
    """Training the weighted-cosine + MLP back-end through `sasv train`."""

    setup_repeats = 2
    reference = staticmethod(numpy_reference)  # MLP forward and backward
    epochs = 16

    def __init__(self, seed, work, fixed):
        self.seed, self.work, self.fixed = seed, work, fixed
        self.sim = os.path.join(work, "sim")
        self.config = os.path.join(work, "embedding_sim.json")
        _write_json(self.config, EMBEDDING_SIM)
        self._inputs = None

    def _simulate(self, ctx, config, out, seed):
        seconds = ctx.setup_command(["simulate", "--mode", "embeddings",
                                     "--config", config, "--out-dir", out,
                                     "--seed", str(seed)])
        t0 = time.perf_counter()
        split_protocol(out)
        return seconds + time.perf_counter() - t0

    def setup(self, ctx):
        return self._simulate(ctx, self.config, self.sim, self.seed)

    def inputs(self):
        if self._inputs is None:
            self._inputs = (
                checks.read_embeddings(os.path.join(self.sim, "asv_emb.bin")),
                checks.read_embeddings(os.path.join(self.sim, "cm_emb.bin")),
                checks.read_protocol(os.path.join(self.sim, "protocol.tsv")),
                checks.read_protocol(os.path.join(self.sim, "dev.tsv")))
        return self._inputs

    def check_setup(self):
        asv, cm, protocol, _ = self.inputs()
        checks.check_embedding_simulation(asv, cm, protocol, EMBEDDING_SIM)

    def prepare(self, ctx):
        if not os.path.exists(os.path.join(self.fixed, "dev.tsv")):
            config = os.path.join(self.fixed, "fixed_sim.json")
            _write_json(config, FIXED_SIM)
            self._simulate(ctx, config, self.fixed, 0)

    def _train_argv(self, directory, epochs, out, seed):
        return ["train", *TRAIN_FLAGS,
                "--asv-emb", os.path.join(directory, "asv_emb.bin"),
                "--cm-emb", os.path.join(directory, "cm_emb.bin"),
                "--train-proto", os.path.join(directory, "train.tsv"),
                "--dev-proto", os.path.join(directory, "dev.tsv"),
                "--epochs", str(epochs), "--seed", str(seed), "--out", out]

    def round(self, ctx):
        ckpt, log = (os.path.join(self.work, n)
                     for n in ("ckpt.json", "train_log.jsonl"))

        def check_train():
            asv, cm, _, dev = self.inputs()
            with open(log, encoding="utf-8") as f:
                log_text = f.read()
            checks.check_training(checks.read_json(ckpt), log_text, asv, cm,
                                  dev, self.epochs, Costs())

        argv = self._train_argv(self.sim, self.epochs, ckpt, self.seed)
        ctx.op("train", lambda: ctx.command(argv + ["--log", log]),
               check_train)
        # Known fault: zero epochs writes "dev_min_adcf":Infinity, which is
        # not JSON.  Counted as a failed operation until it is fixed.
        zero = os.path.join(self.work, "ckpt_epochs0.json")
        ctx.op("train-epochs-0",
               lambda: ctx.command(self._train_argv(self.fixed, 0, zero, 0)),
               lambda: checks.read_json(zero), timed=False)

    def outputs(self):
        return _tree_bytes(self.work)


class RhoSweep:
    """Dev-set tuning of the fusion weight through the library."""

    setup_repeats = 15
    # A Python loop over labels, then numpy masks and sorts.
    reference = staticmethod(mixed_reference)
    counts = {label: 10_000 for label in LABELS}
    cost_models = {"default": Costs(),
                   "spoof-heavy": Costs(pi_tar=0.9, pi_non=0.01, pi_spf=0.09)}

    def __init__(self, seed, work, fixed):
        import sasv.core
        self.seed = seed
        self.results = []
        self._expected = {}
        self._labels = {label.value: label for label in sasv.core.TrialLabel}

    def setup(self, ctx):
        import sasv.sim
        by = self._labels
        t0 = time.perf_counter()
        cfg = sasv.sim.ScoreSimConfig(
            means={by[k]: v for k, v in SCORE_MEANS.items()},
            covs={by[k]: v for k, v in SCORE_COVS.items()},
            counts={by[k]: v for k, v in self.counts.items()},
            seed=self.seed)
        self.data = sasv.sim.simulate_scores(cfg)
        return time.perf_counter() - t0

    def codes(self):
        return checks.label_codes([label.value for label in self.data[2]],
                                  "labels")

    def check_setup(self):
        llr_asv, llr_cm, _ = self.data
        codes = self.codes()
        checks.check_class_counts(codes, self.counts)
        checks.check_class_means(llr_asv, llr_cm, codes, SCORE_MEANS,
                                 SCORE_COVS)

    def prepare(self, ctx):
        pass

    def expected(self, name):
        if name not in self._expected:
            llr_asv, llr_cm, _ = self.data
            self._expected[name] = checks.rho_sweep_expectation(
                llr_asv, llr_cm, self.codes(), self.cost_models[name])
        return self._expected[name]

    def round(self, ctx):
        import sasv.core
        import sasv.train
        llr_asv, llr_cm, labels = self.data
        for name, c in self.cost_models.items():
            model = sasv.core.CostModel(c.c_miss, c.c_fa_non, c.c_fa_spf,
                                        c.pi_tar, c.pi_non, c.pi_spf)
            out = []

            def run(model=model, out=out):
                t0 = time.perf_counter()
                out.append(sasv.train.tune_fusion_rho(llr_asv, llr_cm, labels,
                                                      model))
                seconds = time.perf_counter() - t0
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                return seconds, rss, True, ""

            ctx.op(f"tune-{name}", run,
                   lambda n=name, o=out: checks.check_rho_sweep(
                       o[0], self.expected(n)))
            self.results.extend(out)

    def outputs(self):
        return {"tune_fusion_rho": self.results}


WORKLOADS = {"score-pipeline": ScorePipeline, "joint-train": JointTrain,
             "rho-sweep": RhoSweep}


# ------------------------------------------------------------- measurement

END_TO_END = {"setup_s": "s", "round_rel": "x", "peak_rss_mb": "MB"}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _check_setup(workload, ctx):
    try:
        workload.check_setup()
    except Mismatch as exc:
        ctx.problems.append(f"set-up: {exc}")


def measure(workload, seconds):
    """End-to-end metrics: whole rounds within `seconds` of timed work.

    Rounds run while the timed work so far plus the mean round fits in
    `seconds`, and at least one, so a run's length is bounded by the larger
    of `seconds` and one round.

    Each round is preceded by `setup_repeats` set-ups (identical inputs), so
    that the set-up samples spread over the run like the rounds do.
    """
    ctx = Context(in_process=False, reference=workload.reference)
    setups, rounds, timed = [], [], 0.0
    while not rounds or timed + timed / len(rounds) <= seconds:
        setups += [workload.setup(ctx) for _ in range(workload.setup_repeats)]
        if not rounds:
            _check_setup(workload, ctx)
            workload.prepare(ctx)
        start = len(ctx.ops)
        workload.round(ctx)
        ops = [op for op in ctx.ops[start:] if op.timed]
        rounds.append(ops)
        timed += sum(op.seconds for op in ops)
    metrics = {
        "setup_s": statistics.median(setups),
        "round_rel": statistics.median(sum(op.seconds / op.ref_s for op in r)
                                       for r in rounds),
        "peak_rss_mb": max(op.rss_kb for r in rounds for op in r) / 1024.0,
    }
    round_s = statistics.median(sum(op.seconds for op in r) for r in rounds)
    ref_s = statistics.median(op.ref_s for r in rounds for op in r)
    for name, value in metrics.items():
        print(f"  {name:<12} {value:12.4f} {END_TO_END[name]}")
    print(f"  round in seconds {round_s:.4f} s, reference {ref_s * 1e3:.3f} ms")
    print(f"  rounds {len(rounds)}, set-ups {len(setups)}")
    per_op = {}
    for op in ctx.ops:
        if op.timed:
            per_op.setdefault(op.name, []).append(op)
    for name, ops in per_op.items():
        print(f"  op {name:<18} median "
              f"{statistics.median(op.seconds for op in ops):9.4f} s, "
              f"{statistics.median(op.seconds / op.ref_s for op in ops):9.2f} x "
              f"over {len(ops)}")
    return ctx, {k: _metric(v, END_TO_END[k]) for k, v in metrics.items()}


def startup_seconds():
    """Median wall time of a process that only imports sasv.cli."""
    times = []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sasv.cli"], cwd=ROOT,
                       env=CHILD_ENV, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _pass(workload, ctx):
    wall = workload.setup(ctx)
    if ctx.check:
        _check_setup(workload, ctx)
    workload.round(ctx)
    return wall + sum(op.seconds for op in ctx.ops if op.timed)


def layer_metrics(tracer, wall, plain_wall, startup):
    def pct(seconds):
        return _metric(100.0 * seconds / wall, "%")

    def own(*names):
        return pct(sum(tracer.self_s(n) for n in names))

    def calls(name):
        return _metric(tracer.calls(name), "count")

    def counter(name, unit):
        return _metric(tracer.counters.get(name, 0), unit)

    mlp_s = tracer.self_s("nn.mlp_forward") + tracer.self_s("nn.mlp_backward")
    gflop = tracer.counters.get("nn.mlp_flop", 0) / 1e9
    dev_eval = tracer.total_s("train.score_trials") + \
        tracer.total_s("metrics.min_adcf", parent="train.train_joint")
    return {
        "trace.wall_s": _metric(wall, "s"),
        "trace.untraced_wall_s": _metric(plain_wall, "s"),
        "trace.overhead_s": _metric(wall - plain_wall, "s"),
        "cli.startup_s": _metric(startup, "s"),
        **{f"cli.{cmd}_self_pct": own(f"cli.{cmd}")
           for cmd in ("simulate", "calibrate", "fuse", "eval", "det", "grid",
                       "train")},
        "fileio.read_scores_pct": own("fileio.read_scores"),
        "fileio.read_scores_rows": counter("fileio.read_scores_rows", "count"),
        "fileio.write_scores_pct": own("fileio.write_scores"),
        "fileio.write_det_csv_pct": own("fileio.write_det_csv"),
        "fileio.write_grid_csv_pct": own("fileio.write_grid_csv"),
        "fileio.read_embeddings_pct": own("fileio.read_embeddings"),
        "fileio.read_protocol_pct": own("fileio.read_protocol"),
        "fileio.write_checkpoint_pct": own("fileio.write_checkpoint"),
        "fileio.bytes_read": counter("fileio.bytes_read", "bytes"),
        "fileio.bytes_written": counter("fileio.bytes_written", "bytes"),
        "core.label_decode_pct": own("core.label_decode"),
        "core.label_decode_calls": calls("core.label_decode"),
        "core.embedding_lookup_pct": own("core.embedding_lookup"),
        "core.embedding_lookup_calls": calls("core.embedding_lookup"),
        "decision.fit_calibration_pct": own("decision.fit_calibration"),
        "decision.calibrate_pct": own("decision.calibrate"),
        "decision.calibrate_calls": calls("decision.calibrate"),
        "decision.fuse_pct": own("decision.fuse"),
        "decision.fuse_calls": calls("decision.fuse"),
        "decision.bayes_accept_pct": own("decision.bayes_accept"),
        "decision.bayes_accept_calls": calls("decision.bayes_accept"),
        "metrics.min_adcf_pct": own("metrics.min_adcf"),
        "metrics.min_adcf_calls": calls("metrics.min_adcf"),
        "metrics.split_by_class_pct": own("metrics.split_by_class"),
        "metrics.split_by_class_calls": calls("metrics.split_by_class"),
        "metrics.eer_pct": own("metrics.eer"),
        "metrics.actual_adcf_pct": own("metrics.actual_adcf"),
        "metrics.det_points_pct": own("metrics.det_points"),
        "sim.simulate_scores_pct": own("sim.simulate_scores"),
        "sim.simulate_embeddings_pct": own("sim.simulate_embeddings"),
        "sim.boundary_grid_pct": own("sim.boundary_grid"),
        "nn.mlp_forward_pct": own("nn.mlp_forward"),
        "nn.mlp_backward_pct": own("nn.mlp_backward"),
        "nn.weighted_cosine_pct": own("nn.weighted_cosine"),
        "nn.mlp_gflop": _metric(gflop, "GFLOP"),
        "nn.mlp_gflop_per_s": _metric(gflop / mlp_s if mlp_s else 0.0,
                                      "GFLOP/s"),
        "losses.combined_loss_pct": own("losses.combined_loss"),
        "losses.soft_adcf_pct": own("losses.soft_adcf"),
        "losses.bce_pct": own("losses.bce"),
        "train.pretrain_pct": own("train.pretrain"),
        "train.forward_pct": own("train.forward"),
        "train.backward_pct": own("train.backward"),
        "train.optimizer_pct": own("train.optimizer"),
        "train.dev_eval_pct": pct(dev_eval),
        "train.param_copy_pct": own("train.param_copy"),
        "train.steps": calls("train.optimizer"),
        "train.tune_fusion_rho_pct": own("train.tune_fusion_rho"),
    }


def measure_traced(factory, seed, work, spans_path):
    """Per-layer metrics from three in-process passes.

    A warm-up pass whose outputs the traced pass must reproduce byte for
    byte, the traced pass, then an untraced pass for the tracing overhead
    (timed after the traced one, so that neither pays the warm-up).
    """
    from tracing import Tracer

    startup = startup_seconds()
    fixed = os.path.join(work, "fixed")
    os.makedirs(fixed)

    def run_pass(name, tracer=None):
        directory = os.path.join(work, name)
        os.makedirs(directory)
        workload = factory(seed, directory, fixed)
        workload.prepare(Context(in_process=True, check=False))
        ctx = Context(in_process=True, tracer=tracer, check=tracer is not None)
        if tracer is None:
            return workload, ctx, _pass(workload, ctx)
        tracer.install()
        tracer.active = True
        try:
            return workload, ctx, _pass(workload, ctx)
        finally:
            tracer.active = False
            tracer.uninstall()

    warm, _, _ = run_pass("warm")
    tracer = Tracer()
    traced, ctx, wall = run_pass("traced", tracer)
    if warm.outputs() != traced.outputs():
        ctx.problems.append("traced outputs differ from untraced outputs")
    shutil.rmtree(os.path.join(work, "warm"))
    _, _, plain_wall = run_pass("plain")
    tracer.write(spans_path)
    print(f"  traced wall {wall:.4f} s, untraced {plain_wall:.4f} s, "
          f"spans in {os.path.relpath(spans_path, ROOT)}")
    return ctx, layer_metrics(tracer, wall, plain_wall, startup)


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return (f"env: {platform.machine()} nproc={os.cpu_count()} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas} blas_threads={BLAS_THREADS}")


def run_one(name, seed, seconds, trace):
    sys.path.insert(0, SRC)
    work = os.path.join(BENCH_DIR, ".work", f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    print(environment())
    print(f"workload {name} seed {seed} seconds {seconds} trace {trace}")
    try:
        if trace:
            results = os.path.join(BENCH_DIR, "results")
            os.makedirs(results, exist_ok=True)
            spans = os.path.join(results, f"{name}-seed{seed}.spans.jsonl")
            ctx, metrics = measure_traced(WORKLOADS[name], seed, work, spans)
        else:
            fixed = os.path.join(work, "fixed")
            os.makedirs(fixed)
            ctx, metrics = measure(WORKLOADS[name](seed, work, fixed), seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for op in ctx.ops:
        if op.failed:
            print(f"  failed: {op.name}: {op.note}")
    for problem in ctx.problems:
        print(f"  INCORRECT: {problem}")
    return {"correct": not ctx.problems, "attempted": len(ctx.ops),
            "failed": sum(op.failed for op in ctx.ops), "metrics": metrics}


def run_all(seed, seconds):
    """Every workload, untraced and traced, each in its own process."""
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"{name} --trace {trace} failed")
            *lines, last = proc.stdout.splitlines()
            result = summary[f"{name}/trace{trace}"] = json.loads(last)
            print("\n".join(lines))
            for key, metric in result["metrics"].items():
                print(f"  {key:<32} {metric['value']:14.6g} {metric['unit']}")
    return summary


def _non_negative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _positive(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("seconds must be > 0")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=_non_negative, default=1)
    parser.add_argument("--seconds", type=_positive, default=25.0,
                        help="timed work per run (untraced runs only)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sasv", "cli.py")):
        print(f"error: no program source at {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
