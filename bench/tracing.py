"""Spans around the program's public functions, recorded from outside `src/`.

Each listed function is replaced, where its caller looks it up, by a wrapper
that records a span (name, start, end, parent).  Self time is a span's
duration minus the time its child spans cover.  Per-row functions are called
hundreds of thousands of times a run, so their spans are only aggregated
(calls, total, self per name and parent), not kept one by one.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from time import perf_counter

# Per-row functions: aggregated only, never stored as single spans.
AGGREGATED = frozenset({"core.label_decode", "core.embedding_lookup",
                        "decision.calibrate", "decision.fuse",
                        "decision.bayes_accept"})

COMMANDS = ("simulate", "calibrate", "fuse", "eval", "train", "det", "grid")


def _add(tracer, key, amount):
    tracer.counters[key] = tracer.counters.get(key, 0) + amount


def _bytes_read(tracer, args, kwargs, result):
    _add(tracer, "fileio.bytes_read", os.path.getsize(args[0]))


def _rows_read(tracer, args, kwargs, result):
    _bytes_read(tracer, args, kwargs, result)
    _add(tracer, "fileio.read_scores_rows", len(result))


def _bytes_written(tracer, args, kwargs, result):
    _add(tracer, "fileio.bytes_written", os.path.getsize(args[0]))


def _mlp_size(params):
    return sum(w.shape[0] * w.shape[1] for w in params.weights)


def _mlp_forward_flop(tracer, args, kwargs, result):
    params, x = args[0], args[1]
    n = 1 if x.ndim == 1 else x.shape[0]
    _add(tracer, "nn.mlp_flop", 2 * n * _mlp_size(params))


def _mlp_backward_flop(tracer, args, kwargs, result):
    # weight gradients plus the delta (and input) products: 2 matmuls a layer
    params, tape = args[0], args[1]
    _add(tracer, "nn.mlp_flop", 4 * tape[0][0].shape[0] * _mlp_size(params))


# (where the caller looks the function up, attribute, span name, count hook)
SPANS = [
    ("sasv.cli", "main", "cli.main", None),
    *[("sasv.cli:_COMMANDS", cmd, f"cli.{cmd}", None) for cmd in COMMANDS],
    ("sasv.fileio", "read_scores", "fileio.read_scores", _rows_read),
    ("sasv.fileio", "write_scores", "fileio.write_scores", None),
    ("sasv.fileio", "read_protocol", "fileio.read_protocol", _bytes_read),
    ("sasv.fileio", "write_protocol", "fileio.write_protocol", None),
    ("sasv.fileio", "read_embeddings", "fileio.read_embeddings", _bytes_read),
    ("sasv.fileio", "write_embeddings", "fileio.write_embeddings", None),
    ("sasv.fileio", "read_checkpoint", "fileio.read_checkpoint", _bytes_read),
    ("sasv.fileio", "write_checkpoint", "fileio.write_checkpoint", None),
    ("sasv.fileio", "write_det_csv", "fileio.write_det_csv", None),
    ("sasv.fileio", "write_grid_csv", "fileio.write_grid_csv", None),
    ("sasv.fileio", "write_report", "fileio.write_report", None),
    ("sasv.core:TrialLabel", "from_string", "core.label_decode", None),
    ("sasv.core:EmbeddingStore", "get", "core.embedding_lookup", None),
    ("sasv.cli", "fit_calibration", "decision.fit_calibration", None),
    ("sasv.cli", "calibrate", "decision.calibrate", None),
    ("sasv.cli", "fuse", "decision.fuse", None),
    ("sasv.decision", "fuse", "decision.fuse", None),
    ("sasv.decision", "fuse_nonlinear", "decision.fuse", None),
    ("sasv.sim", "bayes_accept", "decision.bayes_accept", None),
    ("sasv.cli", "min_adcf", "metrics.min_adcf", None),
    ("sasv.train", "min_adcf", "metrics.min_adcf", None),
    ("sasv.metrics", "split_by_class", "metrics.split_by_class", None),
    ("sasv.cli", "eer", "metrics.eer", None),
    ("sasv.cli", "actual_adcf", "metrics.actual_adcf", None),
    ("sasv.cli", "det_points", "metrics.det_points", None),
    ("sasv.cli", "simulate_scores", "sim.simulate_scores", None),
    ("sasv.sim", "simulate_scores", "sim.simulate_scores", None),
    ("sasv.cli", "simulate_embeddings", "sim.simulate_embeddings", None),
    ("sasv.cli", "boundary_grid", "sim.boundary_grid", None),
    ("sasv.train", "mlp_forward", "nn.mlp_forward", _mlp_forward_flop),
    ("sasv.train", "mlp_backward", "nn.mlp_backward", _mlp_backward_flop),
    ("sasv.train", "weighted_cosine_score", "nn.weighted_cosine", None),
    ("sasv.train", "weighted_cosine_backward", "nn.weighted_cosine", None),
    ("sasv.train", "combined_loss_v1", "losses.combined_loss", None),
    ("sasv.train", "combined_loss_v2", "losses.combined_loss", None),
    ("sasv.losses", "soft_adcf", "losses.soft_adcf", None),
    ("sasv.losses", "bce_logits_mean", "losses.bce", None),
    ("sasv.cli", "train_joint", "train.train_joint", None),
    ("sasv.train", "pretrain_heads", "train.pretrain", None),
    ("sasv.train", "forward_batch", "train.forward", None),
    ("sasv.train", "backward_batch", "train.backward", None),
    ("sasv.train:OptimizerState", "step", "train.optimizer", None),
    ("sasv.train", "trainable_dict", "train.param_copy", None),
    ("sasv.train", "apply_dict", "train.param_copy", None),
    ("sasv.train", "score_trials", "train.score_trials", None),
    ("sasv.train", "tune_fusion_rho", "train.tune_fusion_rho", None),
]

# Not spans: counted only, so that write_* self time keeps the write itself.
COUNTERS = [("sasv.fileio", "_atomic_write", _bytes_written)]


def _resolve(where):
    module, _, attr = where.partition(":")
    target = importlib.import_module(module)
    return getattr(target, attr) if attr else target


def _get(target, attr):
    if isinstance(target, dict):
        return target[attr]
    if isinstance(target, type):
        return target.__dict__[attr]
    return getattr(target, attr)


def _set(target, attr, value):
    if isinstance(target, dict):
        target[attr] = value
    else:
        setattr(target, attr, value)


class Tracer:
    """Span recorder; `install` patches the program, `uninstall` restores it."""

    def __init__(self):
        self.active = False
        self.stack = []        # open spans: [name, child seconds, span id]
        self.stats = {}        # (name, parent name) -> [calls, total s, self s]
        self.spans = []        # (id, name, start, end, parent id)
        self.counters = {}
        self._next_id = 0
        self._patches = []

    def _span(self, name, fn, hook):
        stack, stats, spans = self.stack, self.stats, self.spans
        keep = name not in AGGREGATED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a function of the same span calling another (fuse ->
            # fuse_nonlinear) stays one span
            if not self.active or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [name, 0.0, None]
            if keep:
                self._next_id += 1
                frame[2] = self._next_id
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                if parent is not None:
                    parent[1] += duration
                key = (name, parent[0] if parent else None)
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if keep:
                    spans.append((frame[2], name, t0, t1,
                                  parent[2] if parent else None))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return traced

    def _counter(self, fn, hook):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                hook(self, args, kwargs, result)
            return result
        return counted

    def _patch(self, where, attr, make):
        target = _resolve(where)
        original = _get(target, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((target, attr, original))
        _set(target, attr, replacement)

    def install(self):
        for where, attr, name, hook in SPANS:
            self._patch(where, attr,
                        lambda fn, n=name, h=hook: self._span(n, fn, h))
        for where, attr, hook in COUNTERS:
            self._patch(where, attr, lambda fn, h=hook: self._counter(fn, h))

    def uninstall(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            _set(target, attr, original)

    # ------------------------------------------------------------ reading

    def self_s(self, name):
        return sum(v[2] for (n, _), v in self.stats.items() if n == name)

    def total_s(self, name, parent=...):
        return sum(v[1] for (n, p), v in self.stats.items()
                   if n == name and parent in (..., p))

    def calls(self, name):
        return sum(v[0] for (n, _), v in self.stats.items() if n == name)

    def write(self, path):
        """Spans as JSON lines, then one line per aggregate (name, parent)."""
        with open(path, "w", encoding="utf-8") as f:
            for span_id, name, start, end, parent in self.spans:
                f.write(json.dumps({"id": span_id, "name": name,
                                    "start": start, "end": end,
                                    "parent": parent}) + "\n")
            for (name, parent), (calls, total, own) in sorted(
                    self.stats.items(), key=lambda kv: (kv[0][0],
                                                        str(kv[0][1]))):
                f.write(json.dumps({"aggregate": name, "parent": parent,
                                    "calls": calls, "total_s": total,
                                    "self_s": own}) + "\n")
