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


def _leaky(z):
    # max(z, 0.3 z) is z for z > 0 and 0.3 z otherwise, -0.0 and NaN included
    return np.maximum(z, LEAKY_SLOPE * z)


def _leaky_grad(z):
    return np.where(z > 0, 1.0, LEAKY_SLOPE)


_ACTIVATIONS = {
    "leaky_relu": (_leaky, _leaky_grad),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "identity": (lambda z: z, lambda z: np.ones_like(z)),
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


def mlp_forward(params, x):
    """Affine-activation chain; returns (scores, tape) for backprop.

    For a single vector input the score is a float; for a batch (n, d) it is
    an (n,) array.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    h = x[None, :] if single else x
    if h.shape[1] != params.input_dim:
        raise ValueError(f"input dim {h.shape[1]} != expected "
                         f"{params.input_dim}")
    posts = [h]
    pres = []
    n_layers = len(params.weights)
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T
        z += b
        pres.append(z)
        if i < n_layers - 1:
            h = _ACTIVATIONS[params.activations[i]][0](z)
            posts.append(h)
        else:
            h = z
    score = h[:, 0]
    tape = (posts, pres, single)
    return (float(score[0]) if single else score), tape


def mlp_backward(params, tape, upstream):
    """Gradients of sum(upstream * score) w.r.t. params and input."""
    posts, pres, single = tape
    if len(pres) != len(params.weights):
        raise ValueError("tape does not match parameters")
    up = np.atleast_1d(np.asarray(upstream, dtype=np.float64))
    n = posts[0].shape[0]
    if up.shape not in ((n,), (1,)):
        raise ValueError("upstream shape does not match tape batch")
    if up.shape == (1,) and n > 1:
        up = np.full(n, up[0])

    delta = np.zeros_like(pres[-1])
    delta[:, 0] = up
    grad_w = [None] * len(params.weights)
    grad_b = [None] * len(params.biases)
    for i in range(len(params.weights) - 1, -1, -1):
        grad_w[i] = delta.T @ posts[i]
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ params.weights[i]
            delta *= _ACTIVATIONS[params.activations[i - 1]][1](pres[i - 1])
    input_grad = delta @ params.weights[0]
    if single:
        input_grad = input_grad[0]
    return MlpParams(grad_w, grad_b, list(params.activations)), input_grad


def cosine_score(e1, e2):
    """Plain cosine similarity of two equal-length vectors or batches."""
    a = np.asarray(e1, dtype=np.float64)
    b = np.asarray(e2, dtype=np.float64)
    single = a.ndim == 1
    a2 = a[None, :] if single else a
    b2 = b[None, :] if single else b
    na = np.linalg.norm(a2, axis=1)
    nb = np.linalg.norm(b2, axis=1)
    if np.any(na == 0) or np.any(nb == 0):
        raise ValueError("cosine undefined for zero-norm vectors")
    s = np.sum(a2 * b2, axis=1) / (na * nb)
    return float(s[0]) if single else s


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
        raise ValueError("zero norm after weighting")
    s = np.sum(u * v, axis=1) / (nu * nv)
    tape = (w, a2, b2, nu, nv, s, single)
    return (float(s[0]) if single else s), tape


def weighted_cosine_backward(tape, upstream, with_embedding_grads=False):
    """Exact gradient of sum(upstream * score) w.r.t. the weight vector."""
    w, a, b, nu, nv, s, single = tape
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
    grad_w = np.sum(term1 - term2, axis=0)
    if not with_embedding_grads:
        return grad_w
    # d s / d e1 = w v / (|u||v|) - s w^2 e1 / |u|^2  (and symmetrically e2)
    grad_a = (up * inv)[:, None] * (w * w * b) \
        - (up * s / (nu ** 2))[:, None] * (w * w * a)
    grad_b = (up * inv)[:, None] * (w * w * a) \
        - (up * s / (nv ** 2))[:, None] * (w * w * b)
    if single:
        grad_a, grad_b = grad_a[0], grad_b[0]
    return grad_w, grad_a, grad_b
