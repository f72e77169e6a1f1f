"""Optimizers, joint training of the scoring back-end, checkpoint selection."""

from __future__ import annotations

import contextvars
import math
import numbers
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .core import DEFAULT_COST_MODEL, NONTARGET, SPOOF, TARGET, \
    CostModel, label_codes, subsystem_task
from .decision import CalibrationParams, FusionConfig, calibrate, fuse, \
    fuse_vjp, logit, sigmoid, _fuse_nonlinear, _lse_terms
from .losses import LossWeights, SoftAdcfConfig, combined_loss_v1, \
    combined_loss_v2
from .metrics import min_adcf
from .nn import DEFAULT_HIDDEN, MlpParams, MlpWork, cosine_score, \
    init_mlp, mlp_backward, mlp_forward, weighted_cosine_backward, \
    weighted_cosine_score
from .sim import make_rng

ARCHITECTURES = ("mlp-mlp", "cosine-mlp", "wcos-mlp")


# ------------------------------------------------------------------- model

@dataclass
class ModelParams:
    """All trainables of one back-end: heads, calibrations, fusion, tau."""

    architecture: str
    fusion_mode: str
    d_asv: int
    d_cm: int
    cm_mlp: MlpParams
    asv_mlp: MlpParams | None = None
    w_asv: np.ndarray | None = None
    asv_calib: CalibrationParams = field(
        default_factory=lambda: CalibrationParams(0.0, 1.0))
    cm_calib: CalibrationParams = field(
        default_factory=lambda: CalibrationParams(0.0, 1.0))
    rho_logit: float = 0.0
    tau: float = 0.0

    def validate(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.fusion_mode not in ("linear", "nonlinear"):
            raise ValueError(f"unknown fusion mode {self.fusion_mode!r}")
        if not all(isinstance(d, numbers.Integral) and d > 0
                   for d in (self.d_asv, self.d_cm)):
            raise ValueError("d_asv and d_cm must be positive integers")
        if self.architecture == "mlp-mlp":
            if self.asv_mlp is None or \
                    self.asv_mlp.input_dim != 2 * self.d_asv:
                raise ValueError("mlp-mlp needs an ASV MLP over "
                                 "[e_enr, e_tst]")
        if self.architecture == "wcos-mlp":
            if self.w_asv is None or self.w_asv.shape != (self.d_asv,):
                raise ValueError("wcos-mlp needs a weight vector of ASV dim")
        if self.cm_mlp is None or \
                self.cm_mlp.input_dim != self.d_asv + self.d_cm:
            raise ValueError("CM MLP input dim must be d_asv + d_cm")
        if not (math.isfinite(self.rho_logit) and math.isfinite(self.tau)):
            raise ValueError("rho_logit and tau must be finite")
        for key, value in _param_refs(self).items():
            if not np.isfinite(value).all():
                raise ValueError(f"{key} must be finite")

    @property
    def rho_tilde(self):
        return sigmoid(self.rho_logit)

    @property
    def fusion(self):
        return FusionConfig(self.fusion_mode, self.rho_tilde)

    def copy(self):
        """A copy that shares no array with this model."""
        return replace(
            self, cm_mlp=self.cm_mlp.copy(),
            asv_mlp=None if self.asv_mlp is None else self.asv_mlp.copy(),
            w_asv=None if self.w_asv is None else self.w_asv.copy())


@dataclass
class TrainConfig:
    architecture: str = "wcos-mlp"
    fusion_mode: str = "nonlinear"
    loss_variant: str = "v1"            # "v1" | "v2"
    optimizer: str = "adam"             # "adam" | "sgd"
    init: str = "random"                # "random" | "pretrained"
    epochs: int = 100
    batch_size: int = 192
    lr: float = 8.61e-4
    seed: int = 0
    cost_model: CostModel = DEFAULT_COST_MODEL
    alpha: float = 1.0

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.loss_variant not in ("v1", "v2"):
            raise ValueError(f"unknown loss variant {self.loss_variant!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.init not in ("random", "pretrained"):
            raise ValueError(f"unknown init {self.init!r}")
        if not (isinstance(self.batch_size, numbers.Integral)
                and self.batch_size > 0):
            raise ValueError(f"batch size must be a positive integer, "
                             f"got {self.batch_size!r}")
        if not (isinstance(self.epochs, numbers.Integral)
                and self.epochs >= 0):
            raise ValueError(f"epochs must be a non-negative integer, "
                             f"got {self.epochs!r}")


@dataclass
class Checkpoint:
    """Best model so far; the dev fields are None if it was never scored.

    dev_threshold is also None when the dev min a-DCF lies at one of the
    sweep's +-inf sentinel thresholds (accept everything or nothing).
    """

    epoch: int
    model: ModelParams
    dev_min_adcf: float | None
    dev_threshold: float | None


def init_model(cfg, d_asv, d_cm, rng=None):
    if rng is None:
        rng = make_rng(cfg.seed)
    asv_mlp = None
    w_asv = None
    if cfg.architecture == "mlp-mlp":
        asv_mlp = init_mlp(2 * d_asv, DEFAULT_HIDDEN, rng)
    elif cfg.architecture == "wcos-mlp":
        w_asv = np.ones(d_asv)
    cm_mlp = init_mlp(d_asv + d_cm, DEFAULT_HIDDEN, rng)
    model = ModelParams(
        architecture=cfg.architecture,
        fusion_mode=cfg.fusion_mode,
        d_asv=d_asv,
        d_cm=d_cm,
        cm_mlp=cm_mlp,
        asv_mlp=asv_mlp,
        w_asv=w_asv,
        rho_logit=logit(min(max(cfg.cost_model.rho, 1e-6), 1.0 - 1e-6)),
        tau=0.0,
    )
    model.validate()
    return model


# -------------------------------------------------------------- optimizers

def _check_shapes(p, g):
    if np.shape(g) != np.shape(p):
        raise ValueError(f"gradient shape {np.shape(g)} does not match "
                         f"parameter shape {np.shape(p)}")


def sgd_step(p, g, lr):
    """p -= lr * g over a float64 array, in place; returns p."""
    _check_shapes(p, g)
    p -= lr * g
    return p


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class OptimizerState:
    """SGD or Adam over one float64 parameter array and its gradient."""

    def __init__(self, kind, lr):
        if kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {kind!r}")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.kind = kind
        self.lr = lr
        self.step_count = 0
        self.buffers = None  # Adam's m and v, and two work arrays

    def step(self, p, g):
        """Update p in place from its gradient g; returns p."""
        if self.kind == "sgd":
            return sgd_step(p, g, self.lr)
        return adam_step(p, g, self)


def adam_step(p, g, state):
    """Standard bias-corrected Adam update of p, in place; returns p.

    m, v and the step are computed in place, in the operation order of
    m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g and
    p -= (lr m_hat) / (sqrt(v_hat) + eps).
    """
    _check_shapes(p, g)
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    if state.buffers is None:
        state.buffers = tuple(np.zeros_like(p) for _ in range(4))
    m, v, step, denom = state.buffers
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=step)
    v *= b2
    np.multiply(g, 1.0 - b2, out=denom)
    denom *= g
    v += denom
    np.divide(m, 1.0 - b1 ** t, out=step)
    step *= state.lr
    np.divide(v, 1.0 - b2 ** t, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    p -= step
    return p


# ------------------------------------------------------------- parameters

def _mlp_into_dict(prefix, mlp, out):
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        out[f"{prefix}.w{i}"] = w
        out[f"{prefix}.b{i}"] = b


def _mlp_arrays(named, prefix, n_layers):
    """(weights, biases) of an MLP from a dict `_mlp_into_dict` filled."""
    return ([named[f"{prefix}.w{i}"] for i in range(n_layers)],
            [named[f"{prefix}.b{i}"] for i in range(n_layers)])


def _param_refs(model, branch="all"):
    """Flat name->parameter dict holding the model's own arrays.

    Scalars (calibrations, rho_logit, tau) are float64 copies.  branch
    selects "all", "asv" (ASV head + its calibration) or "cm" (CM MLP + its
    calibration), the latter two for pretraining.  The order of the entries
    is the layout of a `_ParamVector`.
    """
    out = {}
    if branch in ("all", "asv"):
        if model.architecture == "mlp-mlp":
            _mlp_into_dict("asv_mlp", model.asv_mlp, out)
        elif model.architecture == "wcos-mlp":
            out["w_asv"] = model.w_asv
        out["asv_calib.w0"] = np.float64(model.asv_calib.w0)
        out["asv_calib.w1"] = np.float64(model.asv_calib.w1)
    if branch in ("all", "cm"):
        _mlp_into_dict("cm_mlp", model.cm_mlp, out)
        out["cm_calib.w0"] = np.float64(model.cm_calib.w0)
        out["cm_calib.w1"] = np.float64(model.cm_calib.w1)
    if branch == "all":
        if model.fusion_mode == "nonlinear":
            out["rho_logit"] = np.float64(model.rho_logit)
        out["tau"] = np.float64(model.tau)
    return out


def trainable_dict(model, branch="all"):
    """A copy of the trainables, named as in `_param_refs`, for a branch."""
    return {key: value.copy()
            for key, value in _param_refs(model, branch).items()}


def _store_scalars(model, pdict):
    """Set the calibrations, rho_logit and tau that pdict holds."""
    for calib in ("asv_calib", "cm_calib"):
        if f"{calib}.w0" in pdict:
            setattr(model, calib, CalibrationParams(
                float(pdict[f"{calib}.w0"]), float(pdict[f"{calib}.w1"])))
    for key in ("rho_logit", "tau"):
        if key in pdict:
            setattr(model, key, float(pdict[key]))


def apply_dict(model, pdict):
    """Write a parameter dict into the model; keys it lacks are untouched.

    Arrays are copied into the model's own arrays (an entry that already is
    one is skipped), so the model shares no array with the dict; a shape
    mismatch raises ValueError before the scalars are stored.
    """
    for key, own in _param_refs(model).items():
        value = pdict.get(key, own)
        if np.ndim(own) and value is not own:
            if np.shape(value) != own.shape:
                raise ValueError(f"shape mismatch for {key!r}")
            own[...] = value
    _store_scalars(model, pdict)
    return model


class _ParamVector:
    """A training phase's trainables in one float64 vector p, and a gradient
    vector g of the same layout (`_param_refs(model, branch)` order).

    params and grads map each name to its view of p and of g.  The model's
    MLP weights and biases and its w_asv become the views into p, so an
    update of p is an update of the model; the scalars get slots of p that
    `_store_scalars` writes back.  mlp_grads maps each branch whose MLP the
    vector holds to that MLP's (weights, biases) views into g.
    """

    def __init__(self, model, branch="all"):
        refs = _param_refs(model, branch)
        self.p = np.concatenate([np.ravel(v) for v in refs.values()])
        self.g = np.zeros_like(self.p)
        self.params, self.grads, start = {}, {}, 0
        for key, value in refs.items():
            stop = start + np.size(value)
            self.params[key] = self.p[start:stop].reshape(np.shape(value))
            self.grads[key] = self.g[start:stop].reshape(np.shape(value))
            start = stop
        self.mlp_grads = {}
        for side in ("asv", "cm"):
            mlp, prefix = _branch_mlp(model, side), f"{side}_mlp"
            if f"{prefix}.w0" in refs:
                n = len(mlp.weights)
                mlp.weights, mlp.biases = _mlp_arrays(self.params, prefix, n)
                self.mlp_grads[side] = _mlp_arrays(self.grads, prefix, n)
        if "w_asv" in refs:
            model.w_asv = self.params["w_asv"]

    def works(self, model, rows):
        """branch -> MlpWork for up to rows inputs, for each MLP the vector
        holds, whose weight and bias gradients are written into g."""
        return {branch: MlpWork(_branch_mlp(model, branch), rows, grads)
                for branch, grads in self.mlp_grads.items()}


# ----------------------------------------------------------------- forward

def _branch_mlp(model, branch):
    """The MLP a branch runs, or None for the (weighted) cosine heads."""
    return model.cm_mlp if branch == "cm" else model.asv_mlp


def _mlp_works(model, rows):
    """branch -> MlpWork for batches of up to rows, for each branch's MLP."""
    return {branch: MlpWork(_branch_mlp(model, branch), rows)
            for branch in ("asv", "cm")
            if _branch_mlp(model, branch) is not None}


def _branch_forward(model, branch, e_enr, e_tst_asv, e_tst_cm, work=None):
    """One branch's raw scores and tape (None for the plain cosine head).

    An MLP branch runs in work (an MlpWork, or None for fresh buffers).
    """
    if branch == "cm":
        return mlp_forward(model.cm_mlp,
                           np.concatenate([e_tst_asv, e_tst_cm], axis=1),
                           work)
    if model.architecture == "mlp-mlp":
        return mlp_forward(model.asv_mlp,
                           np.concatenate([e_enr, e_tst_asv], axis=1), work)
    if model.architecture == "cosine-mlp":
        return cosine_score(e_enr, e_tst_asv), None
    return weighted_cosine_score(model.w_asv, e_enr, e_tst_asv)


def _branch_backward(model, branch, s, tape, g_llr, grads, work=None):
    """Add one branch's gradients, given g_llr on its LLR, to grads.

    s and tape are what `_branch_forward` returned, and work is the one it
    ran in.  MLP gradients alias work's buffers.
    """
    grads[f"{branch}_calib.w0"] = np.float64(np.sum(g_llr))
    grads[f"{branch}_calib.w1"] = np.float64(np.sum(g_llr * s))
    calib = model.asv_calib if branch == "asv" else model.cm_calib
    g_s = g_llr * calib.w1
    mlp = _branch_mlp(model, branch)
    if mlp is not None:
        grads_mlp, _ = mlp_backward(mlp, tape, g_s, work, input_grad=False)
        _mlp_into_dict(f"{branch}_mlp", grads_mlp, grads)
    elif model.architecture == "wcos-mlp":
        grads["w_asv"] = weighted_cosine_backward(tape, g_s)


def forward_batch(model, e_enr, e_tst_asv, e_tst_cm, works=None):
    """Score a batch; returns (s_sasv, cache) with everything backward needs.

    works maps a branch to the MlpWork its MLP runs in (see `_mlp_works`);
    a branch without one gets fresh buffers.  The cache stays valid until
    the next call with the same works.
    """
    works = {} if works is None else works
    cache = {"works": works}
    s_asv, cache["asv_tape"] = _branch_forward(
        model, "asv", e_enr, e_tst_asv, e_tst_cm, works.get("asv"))
    s_cm, cache["cm_tape"] = _branch_forward(
        model, "cm", e_enr, e_tst_asv, e_tst_cm, works.get("cm"))
    llr_a = calibrate(s_asv, model.asv_calib)
    llr_c = calibrate(s_cm, model.cm_calib)
    cache["s_asv"], cache["s_cm"] = s_asv, s_cm
    cache["llr_a"], cache["llr_c"] = llr_a, llr_c
    return fuse(llr_a, llr_c, model.fusion), cache


def backward_batch(model, cache, grad_s, grad_llr_a_aux=None,
                   grad_llr_c_aux=None):
    """Chain loss gradients down to every trainable; returns a grad dict.

    grad_llr_a_aux and grad_llr_c_aux are auxiliary loss gradients on the
    two LLRs, if the loss has them.
    """
    grads = {}
    fusion = model.fusion
    g_a, g_c, g_rho = fuse_vjp(cache["llr_a"], cache["llr_c"], fusion,
                               grad_s)
    if fusion.mode == "nonlinear":
        r = fusion.rho_tilde
        grads["rho_logit"] = np.float64(g_rho * r * (1.0 - r))
    if grad_llr_a_aux is not None:
        g_a = g_a + grad_llr_a_aux
    if grad_llr_c_aux is not None:
        g_c = g_c + grad_llr_c_aux
    works = cache["works"]
    _branch_backward(model, "asv", cache["s_asv"], cache["asv_tape"], g_a,
                     grads, works.get("asv"))
    _branch_backward(model, "cm", cache["s_cm"], cache["cm_tape"], g_c,
                     grads, works.get("cm"))
    return grads


def _embeddings(asv_store, cm_store, trials):
    """(e_enr, e_tst_asv, e_tst_cm) matrices of a trial list."""
    return (asv_store.matrix([t.enroll_id for t in trials]),
            asv_store.matrix([t.test_id for t in trials]),
            cm_store.matrix([t.test_id for t in trials]))


def score_trials(model, asv_store, cm_store, trials):
    """Full forward over a trial list; returns (s_sasv, llr_a, llr_c, labels)."""
    s, cache = forward_batch(model, *_embeddings(asv_store, cm_store,
                                                 trials))
    labels = [t.label for t in trials]
    return s, cache["llr_a"], cache["llr_c"], labels


# ---------------------------------------------------------------- training

def _stratified_batches(labels, batch_size, rng):
    """Deterministic batches with at least one trial of each class.

    labels: TrialLabels or their codes.
    """
    codes = label_codes(labels)
    by_class = [np.flatnonzero(codes == code)
                for code in (TARGET, NONTARGET, SPOOF)]
    by_class = [idxs for idxs in by_class if idxs.size]
    n_batches = max(1, -(-codes.size // batch_size))
    n_batches = min(n_batches, *(idxs.size for idxs in by_class))
    batches = [[] for _ in range(n_batches)]
    for idxs in by_class:
        rng.shuffle(idxs)
        for b, chunk in enumerate(np.array_split(idxs, n_batches)):
            batches[b].append(chunk)
    return [np.concatenate(b) for b in batches]


LOSS_WEIGHTS = LossWeights()  # every term of the combined losses weighs 1


def _batch_loss_and_grads(model, cfg, s, cache, labels):
    sa_cfg = SoftAdcfConfig(cost_model=cfg.cost_model, tau=model.tau,
                            alpha=cfg.alpha)
    if cfg.loss_variant == "v1":
        loss, grad_s, grad_tau = combined_loss_v1(
            s, labels, LOSS_WEIGHTS, sa_cfg)
        grads = backward_batch(model, cache, grad_s)
    else:
        loss, grad_s, grad_la, grad_lc, grad_tau = combined_loss_v2(
            cache["llr_a"], cache["llr_c"], s, labels, LOSS_WEIGHTS, sa_cfg)
        grads = backward_batch(model, cache, grad_s, grad_la, grad_lc)
    grads["tau"] = np.float64(grad_tau)
    return loss, grads


class TrainingDiverged(RuntimeError):
    """A batch loss or a parameter came out infinite or NaN, or a dev
    score NaN.

    log holds the entries of the epochs `train_joint` finished before it,
    as it would have returned them (none if pretraining diverged).
    """

    log = ()


def _train_step(model, optimizer, vector, grads, loss, phase, epoch, batch):
    """Update the `_ParamVector` vector from grads and store its scalars.

    grads maps every name of vector to its gradient; the MLP gradients
    already are views into vector.g.  Raises TrainingDiverged, naming the
    phase, epoch and batch, if the batch loss or any parameter after the
    update is not finite.
    """
    bad = None if math.isfinite(loss) else ("loss", loss)
    if bad is None:
        for key, view in vector.grads.items():
            if grads[key] is not view:
                view[...] = grads[key]
        optimizer.step(vector.p, vector.g)
        if not np.isfinite(vector.p).all():
            bad = next((key, v[~np.isfinite(v)][0])
                       for key, v in vector.params.items()
                       if not np.isfinite(v).all())
    if bad is not None:
        raise TrainingDiverged(f"{phase} diverged at epoch {epoch}, batch "
                               f"{batch}: {bad[0]} is {float(bad[1])}")
    _store_scalars(model, vector.params)


# Dev-set rows scored per forward pass.  On OpenBLAS, MLP scores in chunks
# of 64, 128, 500 or 512 rows were bit-identical to one pass over 3000 rows;
# chunks of 510 or 511 rows were not.
DEV_CHUNK_ROWS = 512


def _train_epoch(model, cfg, optimizer, vector, embeddings, codes, batches,
                 works, epoch):
    """One epoch of joint training over batches; returns its mean loss."""
    losses = []
    for number, batch in enumerate(batches, 1):
        # a diverging step makes infs and NaNs: _train_step names it
        with np.errstate(all="ignore"):
            s, cache = forward_batch(model, *(e[batch] for e in embeddings),
                                     works)
            loss, grads = _batch_loss_and_grads(model, cfg, s, cache,
                                                codes[batch])
            _train_step(model, optimizer, vector, grads, loss,
                        "joint training", epoch, number)
        losses.append(loss)
    return float(np.mean(losses))


def _dev_result(epoch, model, embeddings, codes, works, scores,
                cost_model):
    """(min a-DCF, threshold) of the dev set after epoch, scored into
    scores chunk by chunk; the threshold is None at one of the sweep's
    sentinels.  Embeddings are finite, so a NaN dev score means weights so
    large that the forward pass overflows: that is a divergence."""
    for start in range(0, codes.size, DEV_CHUNK_ROWS):
        rows = slice(start, start + DEV_CHUNK_ROWS)
        scores[rows] = forward_batch(model, *(e[rows] for e in embeddings),
                                     works)[0]
    if np.isnan(scores).any():
        raise TrainingDiverged(f"joint training diverged at epoch {epoch}, "
                               f"dev pass: a dev score is nan")
    report = min_adcf(scores, codes, cost_model, normalized=True)
    threshold = report.min_threshold
    return report.min_adcf, threshold if math.isfinite(threshold) else None


def _start_thread(fn, *args):
    """Run fn(*args) on a new thread; returns a function that joins it.

    The thread runs in a copy of the caller's context, where numpy keeps
    its np.errstate.  The join function returns fn's result or raises the
    exception fn raised.
    """
    outcome = []

    def run():
        try:
            outcome.append((fn(*args), None))
        except BaseException as exc:
            outcome.append((None, exc))

    thread = threading.Thread(target=contextvars.copy_context().run,
                              args=(run,))
    thread.start()

    def join():
        thread.join()
        result, exc = outcome[0]
        if exc is not None:
            raise exc
        return result
    return join


def train_joint(cfg, asv_store, cm_store, train_trials, dev_trials,
                model=None):
    """Joint training loop; returns (best Checkpoint, per-epoch log list).

    The dev set is scored on a snapshot of each epoch's model, on a second
    thread while the next epoch trains; the log and the checkpoint are
    those of scoring it in turn.  A non-finite batch loss or parameter
    raises TrainingDiverged; an error in scoring an epoch is raised before
    anything that goes wrong in the next one.
    """
    for t in train_trials + dev_trials:
        if t.enroll_id not in asv_store or t.test_id not in asv_store \
                or t.test_id not in cm_store:
            raise KeyError(f"trial references unknown embedding: "
                           f"{t.enroll_id}/{t.test_id}")
    for split_name, split in (("train", train_trials), ("dev", dev_trials)):
        present = {t.label for t in split}
        if len(present) != 3:
            raise ValueError(f"{split_name} split lacks some classes")

    embeddings = _embeddings(asv_store, cm_store, train_trials)
    codes = label_codes([t.label for t in train_trials])
    dev_codes = label_codes([t.label for t in dev_trials])

    rng = make_rng(cfg.seed)
    if model is None:
        if cfg.init == "pretrained":
            model = pretrain_heads(cfg, asv_store, cm_store, train_trials,
                                   embeddings)
        else:
            model = init_model(cfg, asv_store.dim, cm_store.dim, rng)
    else:
        model = model.copy()

    vector = _ParamVector(model)
    optimizer = OptimizerState(cfg.optimizer, cfg.lr)
    works = None
    # _dev_result's arguments after the epoch and the model
    dev = (_embeddings(asv_store, cm_store, dev_trials), dev_codes,
           _mlp_works(model, min(DEV_CHUNK_ROWS, dev_codes.size)),
           np.empty(dev_codes.size), cfg.cost_model)
    log = []
    best = None
    scoring = None  # (epoch, train loss, snapshot, join) in flight

    def log_dev(epoch, train_loss, snapshot, join):
        nonlocal best
        dev_min_adcf, threshold = join()
        log.append({"epoch": epoch, "train_loss": train_loss,
                    "dev_min_adcf": dev_min_adcf, "dev_threshold": threshold})
        if best is None or dev_min_adcf < best.dev_min_adcf:
            best = Checkpoint(epoch, snapshot, dev_min_adcf, threshold)

    try:
        for epoch in range(1, cfg.epochs + 1):
            try:
                batches = _stratified_batches(codes, cfg.batch_size, rng)
                if works is None:  # every epoch splits each class the same
                    works = vector.works(model,
                                         max(b.size for b in batches))
                train_loss = _train_epoch(model, cfg, optimizer, vector,
                                          embeddings, codes, batches, works,
                                          epoch)
            finally:  # the previous epoch's scoring comes first
                if scoring is not None:
                    log_dev(*scoring)
            snapshot = model.copy()
            scoring = (epoch, train_loss, snapshot,
                       _start_thread(_dev_result, epoch, snapshot, *dev))
        if scoring is not None:
            log_dev(*scoring)
    except TrainingDiverged as exc:
        exc.log = log
        raise
    if best is None:  # zero epochs: return the initial state unevaluated
        best = Checkpoint(0, model.copy(), None, None)
    return best, log


def _pretrain_loss_and_grads(model, branch, e_enr, e_tst_asv, e_tst_cm, y,
                             work=None):
    """One branch's BCE on its own LLR; returns (loss, grads of its keys).

    Only that branch is scored and back-propagated, in work if it is an MLP.
    backward_batch would add the fused path's zero gradient (+0.0) to the
    BCE gradient, which changes no bit: a BCE gradient (sigmoid(x) - y) / n
    is never -0.0.
    """
    from .losses import bce_logits_mean

    s, tape = _branch_forward(model, branch, e_enr, e_tst_asv, e_tst_cm,
                              work)
    calib = model.asv_calib if branch == "asv" else model.cm_calib
    loss, g = bce_logits_mean(calibrate(s, calib), y)
    grads = {}
    _branch_backward(model, branch, s, tape, g, grads, work)
    return loss, grads


def pretrain_heads(cfg, asv_store, cm_store, trials, embeddings=None):
    """Train each branch alone with its auxiliary BCE; returns ModelParams.

    embeddings: the trials' (e_enr, e_tst_asv, e_tst_cm) matrices, if the
    caller has already gathered them.
    """
    rng = make_rng(cfg.seed)
    model = init_model(cfg, asv_store.dim, cm_store.dim, rng)
    if embeddings is None:
        embeddings = _embeddings(asv_store, cm_store, trials)
    codes = label_codes([t.label for t in trials])
    for branch in ("asv", "cm"):
        keep, y = subsystem_task(codes, branch)
        vector = _ParamVector(model, branch)
        optimizer = OptimizerState(cfg.optimizer, cfg.lr)
        idx_all = np.nonzero(keep)[0]
        n_batches = max(1, -(-idx_all.size // cfg.batch_size))
        # np.array_split's first chunk is the largest
        work = vector.works(model, -(-idx_all.size // n_batches)).get(branch)
        for epoch in range(1, cfg.epochs + 1):
            order = idx_all.copy()
            rng.shuffle(order)
            chunks = np.array_split(order, n_batches)
            for number, chunk in enumerate(chunks, 1):
                with np.errstate(all="ignore"):  # as in train_joint
                    loss, grads = _pretrain_loss_and_grads(
                        model, branch, *(e[chunk] for e in embeddings),
                        y[chunk], work)
                    _train_step(model, optimizer, vector, grads, loss,
                                f"{branch.upper()} pretraining", epoch,
                                number)
    return model


def tune_fusion_rho(llr_asv, llr_cm, labels, cost_model, grid=None):
    """Pick the nonlinear fusion weight minimizing dev min a-DCF on a grid."""
    if grid is None:
        grid = np.linspace(0.01, 0.99, 99)
    a = np.asarray(llr_asv, dtype=np.float64)
    b = np.asarray(llr_cm, dtype=np.float64)
    terms = _lse_terms(a, b)  # the same at every rho
    codes = label_codes(labels)
    best_rho, best_val = None, math.inf
    for rho in grid:
        fused = _fuse_nonlinear(a, b, float(rho), terms)
        val = min_adcf(fused, codes, cost_model).min_adcf
        if val < best_val:
            best_rho, best_val = float(rho), val
    return best_rho, best_val
