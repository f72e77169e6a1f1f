"""Scoring heads with exact reverse-mode gradients: MLP, cosine, weighted cosine.

All forwards accept either a single input vector or a batch (n, dim); the
batch axis is the leading one.  Backwards consume the tape produced by the
matching forward call and return parameter gradients of the same shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_HIDDEN = (384, 160)
DEFAULT_ACTIVATION = "leaky_relu"
LEAKY_SLOPE = 0.3


# Each activation is (forward, slope).  forward(z, out) writes the layer
# output into out; slope(h, out) writes the derivative at that layer's
# pre-activation, read off its output h, into out.  Both return out.

def _leaky(z, out):
    # max(z, 0.3 z) is z for z > 0 and 0.3 z otherwise, -0.0 and NaN included
    np.multiply(z, LEAKY_SLOPE, out=out)
    return np.maximum(z, out, out=out)


def _leaky_slope(h, out):
    # h > 0 exactly where z > 0 (NaN included: neither is), so this is the
    # derivative np.where(z > 0, 1.0, LEAKY_SLOPE) bit for bit
    np.greater(h, 0.0, out=out)
    return np.maximum(out, LEAKY_SLOPE, out=out)


def _tanh_slope(h, out):
    # 1 - tanh(z)^2 with tanh(z) = h
    np.square(h, out=out)
    return np.subtract(1.0, out, out=out)


def _identity(z, out):
    np.copyto(out, z)
    return out


def _ones(h, out):
    out.fill(1.0)
    return out


_ACTIVATIONS = {
    "leaky_relu": (_leaky, _leaky_slope),
    "tanh": (np.tanh, _tanh_slope),
    "identity": (_identity, _ones),
}


@dataclass
class MlpParams:
    """Affine layers (out x in weights, out biases) + per-hidden activation.

    The final layer is linear and emits a single scalar per input.
    """

    weights: list
    biases: list
    activations: list

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weights/biases length mismatch")
        if len(self.activations) != len(self.weights) - 1:
            raise ValueError("need one activation per hidden layer")
        for act in self.activations:
            if act not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        prev = None
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError("layer shape mismatch")
            if prev is not None and w.shape[1] != prev:
                raise ValueError("layer input dim does not chain")
            prev = w.shape[0]
        if self.weights[-1].shape[0] != 1:
            raise ValueError("final layer must emit a single scalar")

    @property
    def input_dim(self):
        return self.weights[0].shape[1]

    def copy(self):
        return MlpParams([w.copy() for w in self.weights],
                         [b.copy() for b in self.biases],
                         list(self.activations))


def init_mlp(input_dim, hidden=DEFAULT_HIDDEN, rng=None,
             activation=DEFAULT_ACTIVATION):
    """Uniform fan-in initialization (+-sqrt(1/fan_in)) from a seeded rng."""
    if rng is None:
        rng = np.random.default_rng(0)
    sizes = [input_dim, *hidden, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(1.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=(fan_out,)))
    return MlpParams(weights, biases, [activation] * len(hidden))


class MlpWork:
    """Buffers for `mlp_forward`/`mlp_backward` on up to `rows` inputs.

    One set holds the pre-activation scratch, every layer's output, the
    deltas, the activation slope and the weight and bias gradients of one
    MLP shape.  A call on n inputs works in views of
    the first n rows, so one set serves every batch of a training phase.
    What a call returns (scores, tape, gradients) lives in these buffers and
    stays valid until the next call with the same work.  grads, if given, is
    a (weights, biases) pair of lists of float64 arrays shaped as params'
    that take the gradients instead of fresh buffers.
    """

    def __init__(self, params, rows, grads=None):
        widths = [w.shape[0] for w in params.weights]
        hidden = max(widths[:-1], default=0)
        self.rows = rows
        self.outputs = [np.empty((rows, k)) for k in widths]
        self.deltas = [np.empty((rows, k)) for k in widths]
        # flat, so that an (n, k) view of the first n * k values is
        # C-contiguous for every hidden width k
        self.pre = np.empty(rows * hidden)
        self.slope = np.empty(rows * hidden)
        if grads is None:
            grads = ([np.empty_like(w) for w in params.weights],
                     [np.empty_like(b) for b in params.biases])
        self.grad_w, self.grad_b = grads


def _work_for(params, n, work):
    """work, or a fresh MlpWork for n rows if it is None."""
    if work is None:
        return MlpWork(params, n)
    if n > work.rows:
        raise ValueError(f"{n} rows exceed the work's {work.rows}")
    return work


def _rows(flat, n, k):
    """The first n * k values of a flat buffer as a C-contiguous (n, k)."""
    return flat[:n * k].reshape(n, k)


def mlp_forward(params, x, work=None):
    """Affine-activation chain; returns (scores, tape) for backprop.

    For a single vector input the score is a float; for a batch (n, d) it is
    an (n,) array.  Every layer writes into `work` (an `MlpWork`; None
    builds one sized to x), so the batch scores and the tape alias its
    buffers.  The tape holds the input and each hidden layer's output.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    h = x[None, :] if single else x
    if h.shape[1] != params.input_dim:
        raise ValueError(f"input dim {h.shape[1]} != expected "
                         f"{params.input_dim}")
    n = h.shape[0]
    work = _work_for(params, n, work)
    posts = [h]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        out = work.outputs[i][:n]
        if i < last:
            z = np.matmul(h, w.T, out=_rows(work.pre, n, w.shape[0]))
            z += b
            h = _ACTIVATIONS[params.activations[i]][0](z, out)
            posts.append(h)
        else:
            h = np.matmul(h, w.T, out=out)
            h += b
    score = h[:, 0]
    return (float(score[0]) if single else score), (posts, single)


def mlp_backward(params, tape, upstream, work=None):
    """Gradients of sum(upstream * score) w.r.t. params, as an MlpParams.

    Each activation's derivative is computed from its output on the tape.
    The gradients are written into `work` (None builds a fresh one) and
    alias its buffers until the next call with the same work.
    """
    posts, _ = tape
    if len(posts) != len(params.weights):
        raise ValueError("tape does not match parameters")
    up = np.atleast_1d(np.asarray(upstream, dtype=np.float64))
    n = posts[0].shape[0]
    if up.shape not in ((n,), (1,)):
        raise ValueError("upstream shape does not match tape batch")
    work = _work_for(params, n, work)

    delta = work.deltas[-1][:n]
    delta[:, 0] = up
    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(delta.T, posts[i], out=work.grad_w[i])
        np.sum(delta, axis=0, out=work.grad_b[i])
        if i > 0:
            delta = np.matmul(delta, params.weights[i],
                              out=work.deltas[i - 1][:n])
            slope = _ACTIVATIONS[params.activations[i - 1]][1]
            delta *= slope(posts[i], _rows(work.slope, n, delta.shape[1]))
    return MlpParams(list(work.grad_w), list(work.grad_b),
                     list(params.activations))


def cosine_score(e1, e2):
    """Plain cosine similarity of two equal-length vectors or batches: the
    weighted cosine with unit weights, as 1.0 * x is x exactly."""
    a = np.asarray(e1, dtype=np.float64)
    return weighted_cosine_score(np.ones(a.shape[-1]), a, e2)[0]


def weighted_cosine_score(w, e_enr, e_tst):
    """Cosine of element-wise-weighted embeddings; returns (score, tape)."""
    w = np.asarray(w, dtype=np.float64)
    a = np.asarray(e_enr, dtype=np.float64)
    b = np.asarray(e_tst, dtype=np.float64)
    single = a.ndim == 1
    a2 = a[None, :] if single else a
    b2 = b[None, :] if single else b
    u = w * a2
    v = w * b2
    nu = np.linalg.norm(u, axis=1)
    nv = np.linalg.norm(v, axis=1)
    if np.any(nu == 0) or np.any(nv == 0):
        raise ValueError("cosine undefined for zero-norm (weighted) vectors")
    s = np.sum(u * v, axis=1) / (nu * nv)
    tape = (w, a2, b2, nu, nv, s)
    return (float(s[0]) if single else s), tape


def weighted_cosine_backward(tape, upstream):
    """Exact gradient of sum(upstream * score) w.r.t. the weight vector."""
    w, a, b, nu, nv, s = tape
    up = np.atleast_1d(np.asarray(upstream, dtype=np.float64))
    if up.shape == (1,) and a.shape[0] > 1:
        up = np.full(a.shape[0], up[0])
    if up.shape != (a.shape[0],):
        raise ValueError("upstream shape does not match tape batch")
    inv = 1.0 / (nu * nv)
    # d s / d w_i = 2 w e1 e2 / (|u||v|) - s w (e1^2/|u|^2 + e2^2/|v|^2)
    term1 = (up * inv)[:, None] * (2.0 * w * a * b)
    term2 = (up * s)[:, None] * (w * a * a / (nu ** 2)[:, None]
                                 + w * b * b / (nv ** 2)[:, None])
    return np.sum(term1 - term2, axis=0)
