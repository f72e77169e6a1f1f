"""Optimizers, joint training of the scoring back-end, checkpoint selection."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .core import NONTARGET, SPOOF, TARGET, label_codes
from .decision import CalibrationParams, FusionConfig, calibrate, fuse, \
    fuse_vjp, sigmoid, _fuse_nonlinear, _lse_terms
from .losses import LossWeights, SoftAdcfConfig, combined_loss_v1, \
    combined_loss_v2
from .metrics import min_adcf
from .nn import DEFAULT_HIDDEN, MlpParams, MlpWork, cosine_score, \
    init_mlp, mlp_backward, mlp_forward, weighted_cosine_backward, \
    weighted_cosine_score
from .sim import make_rng

ARCHITECTURES = ("mlp-mlp", "cosine-mlp", "wcos-mlp")


def _logit(p):
    return math.log(p) - math.log1p(-p)


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
        if self.architecture == "mlp-mlp":
            if self.asv_mlp is None or \
                    self.asv_mlp.input_dim != 2 * self.d_asv:
                raise ValueError("mlp-mlp needs an ASV MLP over "
                                 "[e_enr, e_tst]")
        if self.architecture == "wcos-mlp":
            if self.w_asv is None or self.w_asv.shape != (self.d_asv,):
                raise ValueError("wcos-mlp needs a weight vector of ASV dim")
        if self.cm_mlp.input_dim != self.d_asv + self.d_cm:
            raise ValueError("CM MLP input dim must be d_asv + d_cm")

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
    cost_model: object = None
    loss_weights: LossWeights = field(default_factory=LossWeights)
    alpha: float = 1.0
    normalized_loss: bool = True
    # which loss paths feed the calibration parameters
    calib_gradients: str = "both"       # "both" | "fused_only" | "aux_only"

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
        if self.cost_model is None:
            from .core import DEFAULT_COST_MODEL
            object.__setattr__(self, "cost_model", DEFAULT_COST_MODEL)


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
        rho_logit=_logit(min(max(cfg.cost_model.rho, 1e-6), 1.0 - 1e-6)),
        tau=0.0,
    )
    model.validate()
    return model


# -------------------------------------------------------------- optimizers

def _descend(params, key, step):
    """params[key] -= step: in place for an array, rebinding a scalar."""
    p = params[key]
    if isinstance(p, np.ndarray):
        p -= step
    else:
        params[key] = p - step


def sgd_step(params, grads, lr):
    """p <- p - lr * g over a name->array dict; arrays change in place."""
    for key, p in params.items():
        g = grads[key]
        if np.shape(g) != np.shape(p):
            raise ValueError(f"gradient shape mismatch for {key!r}")
        _descend(params, key, lr * g)
    return params


class OptimizerState:
    """SGD or Adam over a flat name->array parameter dict."""

    def __init__(self, kind, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        if kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {kind!r}")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.kind = kind
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {}
        self.v = {}
        self.scratch = {}   # two work arrays per parameter for adam_step

    def step(self, params, grads):
        if self.kind == "sgd":
            return sgd_step(params, grads, self.lr)
        return adam_step(params, grads, self)


def adam_step(params, grads, state):
    """Standard bias-corrected Adam update; arrays change in place.

    m, v and the step are computed in place, in the operation order of
    m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g and
    p -= (lr m_hat) / (sqrt(v_hat) + eps).
    """
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    for key, p in params.items():
        g = np.asarray(grads[key], dtype=np.float64)
        if g.shape != np.shape(p):
            raise ValueError(f"gradient shape mismatch for {key!r}")
        if key not in state.m:
            state.m[key] = np.zeros_like(g)
            state.v[key] = np.zeros_like(g)
            state.scratch[key] = (np.empty_like(g), np.empty_like(g))
        m, v = state.m[key], state.v[key]
        step, denom = state.scratch[key]
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
        denom += state.eps
        step /= denom
        _descend(params, key, step)
    return params


# --------------------------------------------------- parameter dict plumbing

def _mlp_into_dict(prefix, mlp, out):
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        out[f"{prefix}.w{i}"] = w
        out[f"{prefix}.b{i}"] = b


def _mlp_from_dict(prefix, mlp, pdict):
    weights = [pdict[f"{prefix}.w{i}"] for i in range(len(mlp.weights))]
    biases = [pdict[f"{prefix}.b{i}"] for i in range(len(mlp.biases))]
    return MlpParams(weights, biases, list(mlp.activations))


def _param_refs(model, branch="all"):
    """Flat name->parameter dict holding the model's own arrays.

    Scalars (calibrations, rho_logit, tau) are float64 copies; after an
    optimizer step `_store_scalars` writes them back.  branch selects "all",
    "asv" (ASV head + its calibration) or "cm" (CM MLP + its calibration),
    the latter two for pretraining.
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


_SCALARS = ("asv_calib.w0", "asv_calib.w1", "cm_calib.w0", "cm_calib.w1",
            "rho_logit", "tau")


def _store_scalars(model, pdict):
    """Write the scalar parameters of a dict into the model."""
    for calib in ("asv_calib", "cm_calib"):
        if f"{calib}.w0" in pdict:
            setattr(model, calib,
                    CalibrationParams(float(pdict[f"{calib}.w0"]),
                                      float(pdict[f"{calib}.w1"])))
    for key in ("rho_logit", "tau"):
        if key in pdict:
            setattr(model, key, float(pdict[key]))


def trainable_dict(model, branch="all"):
    """A copy of the trainables as a flat name->array dict.

    branch selects "all", "asv" (ASV head + its calibration) or
    "cm" (CM MLP + its calibration).
    """
    return {key: value.copy()
            for key, value in _param_refs(model, branch).items()}


def apply_dict(model, pdict):
    """Write a parameter dict back into the model (missing keys untouched)."""
    if "asv_mlp.w0" in pdict:
        model.asv_mlp = _mlp_from_dict("asv_mlp", model.asv_mlp, pdict)
    if "w_asv" in pdict:
        model.w_asv = np.asarray(pdict["w_asv"], dtype=np.float64)
    if "cm_mlp.w0" in pdict:
        model.cm_mlp = _mlp_from_dict("cm_mlp", model.cm_mlp, pdict)
    _store_scalars(model, pdict)
    return model


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


def _branch_backward(model, branch, s, tape, g_calib, g_llr, grads,
                     work=None):
    """Add one branch's gradients to grads.

    g_calib feeds its calibration and g_llr (the gradient on its LLR) its
    head; s and tape are what `_branch_forward` returned, and work is the
    one it ran in.  MLP gradients alias work's buffers.
    """
    grads[f"{branch}_calib.w0"] = np.float64(np.sum(g_calib))
    grads[f"{branch}_calib.w1"] = np.float64(np.sum(g_calib * s))
    calib = model.asv_calib if branch == "asv" else model.cm_calib
    g_s = g_llr * calib.w1
    if branch == "cm":
        _mlp_into_dict("cm_mlp",
                       mlp_backward(model.cm_mlp, tape, g_s, work)[0], grads)
    elif model.architecture == "mlp-mlp":
        _mlp_into_dict("asv_mlp",
                       mlp_backward(model.asv_mlp, tape, g_s, work)[0], grads)
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
                   grad_llr_c_aux=None, calib_gradients="both"):
    """Chain loss gradients down to every trainable; returns a grad dict."""
    grads = {}
    fusion = model.fusion
    g_a_fused, g_c_fused, g_rho = fuse_vjp(cache["llr_a"], cache["llr_c"],
                                           fusion, grad_s)
    if fusion.mode == "nonlinear":
        r = fusion.rho_tilde
        grads["rho_logit"] = np.float64(g_rho * r * (1.0 - r))

    g_a_aux = np.zeros_like(g_a_fused) if grad_llr_a_aux is None \
        else grad_llr_a_aux
    g_c_aux = np.zeros_like(g_c_fused) if grad_llr_c_aux is None \
        else grad_llr_c_aux
    g_a_total = g_a_fused + g_a_aux
    g_c_total = g_c_fused + g_c_aux
    if calib_gradients == "both":
        g_a_calib, g_c_calib = g_a_total, g_c_total
    elif calib_gradients == "fused_only":
        g_a_calib, g_c_calib = g_a_fused, g_c_fused
    elif calib_gradients == "aux_only":
        g_a_calib, g_c_calib = g_a_aux, g_c_aux
    else:
        raise ValueError(f"unknown calib_gradients {calib_gradients!r}")

    works = cache["works"]
    _branch_backward(model, "asv", cache["s_asv"], cache["asv_tape"],
                     g_a_calib, g_a_total, grads, works.get("asv"))
    _branch_backward(model, "cm", cache["s_cm"], cache["cm_tape"],
                     g_c_calib, g_c_total, grads, works.get("cm"))
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


def _batch_loss_and_grads(model, cfg, s, cache, labels):
    sa_cfg = SoftAdcfConfig(cost_model=cfg.cost_model, tau=model.tau,
                            alpha=cfg.alpha, normalized=cfg.normalized_loss)
    if cfg.loss_variant == "v1":
        loss, grad_s, grad_tau = combined_loss_v1(
            s, labels, cfg.loss_weights, sa_cfg)
        grads = backward_batch(model, cache, grad_s,
                               calib_gradients=cfg.calib_gradients)
    else:
        loss, grad_s, grad_la, grad_lc, grad_tau = combined_loss_v2(
            cache["llr_a"], cache["llr_c"], s, labels, cfg.loss_weights,
            sa_cfg)
        grads = backward_batch(model, cache, grad_s, grad_la, grad_lc,
                               calib_gradients=cfg.calib_gradients)
    grads["tau"] = np.float64(grad_tau)
    return loss, grads


class TrainingDiverged(RuntimeError):
    """A batch loss or a scalar parameter came out infinite or NaN.

    log holds the entries of the epochs `train_joint` finished before it,
    as it would have returned them (none if pretraining diverged).
    """

    log = ()


def _train_step(model, optimizer, params, grads, loss, phase, epoch, batch):
    """Update params (the model's own arrays) and store the scalars.

    Raises TrainingDiverged, naming the phase, epoch and batch, if the batch
    loss or a scalar parameter after the update is not finite; the arrays
    are not scanned.
    """
    bad = None if math.isfinite(loss) else ("loss", loss)
    if bad is None:
        optimizer.step(params, grads)
        bad = next(((key, params[key]) for key in _SCALARS
                    if key in params and not math.isfinite(params[key])),
                   None)
    if bad is not None:
        raise TrainingDiverged(f"{phase} diverged at epoch {epoch}, batch "
                               f"{batch}: {bad[0]} is {float(bad[1])}")
    _store_scalars(model, params)


def train_joint(cfg, asv_store, cm_store, train_trials, dev_trials,
                model=None):
    """Joint training loop; returns (best Checkpoint, per-epoch log list).

    The model's arrays are updated in place; a non-finite batch loss or
    scalar parameter raises TrainingDiverged.
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
    e_enr, e_tst_asv, e_tst_cm = embeddings
    dev_embeddings = _embeddings(asv_store, cm_store, dev_trials)
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

    params = _param_refs(model)
    optimizer = OptimizerState(cfg.optimizer, cfg.lr)
    works = None
    log = []
    best = None
    for epoch in range(1, cfg.epochs + 1):
        epoch_losses = []
        batches = _stratified_batches(codes, cfg.batch_size, rng)
        if works is None:  # every epoch splits each class the same way
            works = _mlp_works(model, max(batch.size for batch in batches))
        for number, batch in enumerate(batches, 1):
            # a diverging step makes infs and NaNs: _train_step names it
            with np.errstate(all="ignore"):
                s, cache = forward_batch(model, e_enr[batch],
                                         e_tst_asv[batch], e_tst_cm[batch],
                                         works)
                loss, grads = _batch_loss_and_grads(model, cfg, s, cache,
                                                    codes[batch])
                try:
                    _train_step(model, optimizer, params, grads, loss,
                                "joint training", epoch, number)
                except TrainingDiverged as exc:
                    exc.log = log
                    raise
            epoch_losses.append(loss)
        # [0]: the dev tape is not kept past the call
        report = min_adcf(forward_batch(model, *dev_embeddings)[0],
                          dev_codes, cfg.cost_model, normalized=True)
        threshold = report.min_threshold \
            if math.isfinite(report.min_threshold) else None
        log.append({
            "epoch": epoch,
            "train_loss": float(np.mean(epoch_losses)),
            "dev_min_adcf": report.min_adcf,
            "dev_threshold": threshold,
        })
        if best is None or report.min_adcf < best.dev_min_adcf:
            best = Checkpoint(epoch, model.copy(), report.min_adcf,
                              threshold)
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
    _branch_backward(model, branch, s, tape, g, g, grads, work)
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
    bonafide = codes != SPOOF
    # the ASV branch learns target vs nontarget on bonafide trials only
    for branch, keep, y in (("asv", bonafide, codes == TARGET),
                            ("cm", np.ones(codes.size, bool), bonafide)):
        params = _param_refs(model, branch)
        optimizer = OptimizerState(cfg.optimizer, cfg.lr)
        idx_all = np.nonzero(keep)[0]
        n_batches = max(1, -(-idx_all.size // cfg.batch_size))
        mlp = _branch_mlp(model, branch)
        # np.array_split's first chunk is the largest
        work = None if mlp is None else \
            MlpWork(mlp, -(-idx_all.size // n_batches))
        for epoch in range(1, cfg.epochs + 1):
            order = idx_all.copy()
            rng.shuffle(order)
            chunks = np.array_split(order, n_batches)
            for number, chunk in enumerate(chunks, 1):
                with np.errstate(all="ignore"):  # as in train_joint
                    loss, grads = _pretrain_loss_and_grads(
                        model, branch, *(e[chunk] for e in embeddings),
                        y[chunk].astype(np.float64), work)
                    _train_step(model, optimizer, params, grads, loss,
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
