import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import check_grad
from sasv.nn import (DEFAULT_HIDDEN, LEAKY_SLOPE, MlpParams, MlpWork,
                     _ACTIVATIONS, cosine_score, init_mlp, mlp_backward,
                     mlp_forward, weighted_cosine_backward,
                     weighted_cosine_score)

ACTIVATIONS = ["leaky_relu", "tanh", "identity"]

# The activations and derivatives as functions of the pre-activation z, in
# the allocating form the MLP used before it computed derivatives from
# layer outputs into reused buffers.
REFERENCE = {
    "leaky_relu": (lambda z: np.maximum(z, LEAKY_SLOPE * z),
                   lambda z: np.where(z > 0, 1.0, LEAKY_SLOPE)),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "identity": (lambda z: z, np.ones_like),
}


def reference_forward_backward(params, x, upstream):
    """Allocating forward and backward that keep every pre-activation."""
    posts, pres = [x], []
    h = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T
        z += b
        pres.append(z)
        if i < len(params.weights) - 1:
            h = REFERENCE[params.activations[i]][0](z)
            posts.append(h)
    delta = np.zeros_like(pres[-1])
    delta[:, 0] = upstream
    grads = []
    for i in range(len(params.weights) - 1, -1, -1):
        grads[:0] = [delta.T @ posts[i], delta.sum(axis=0)]
        if i > 0:
            delta = delta @ params.weights[i]
            delta *= REFERENCE[params.activations[i - 1]][1](pres[i - 1])
    return pres[-1][:, 0], grads


def bits(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def small_mlp(rng, input_dim=5, hidden=(4, 3), activation="leaky_relu"):
    return init_mlp(input_dim, hidden, rng, activation)


def fd_param_grads(make_loss, params, h=1e-6):
    """Central finite differences over every scalar of an MlpParams."""
    grads_w, grads_b = [], []
    for layer in range(len(params.weights)):
        gw = np.zeros_like(params.weights[layer])
        for idx in np.ndindex(gw.shape):
            orig = params.weights[layer][idx]
            params.weights[layer][idx] = orig + h
            up = make_loss(params)
            params.weights[layer][idx] = orig - h
            down = make_loss(params)
            params.weights[layer][idx] = orig
            gw[idx] = (up - down) / (2 * h)
        grads_w.append(gw)
        gb = np.zeros_like(params.biases[layer])
        for idx in np.ndindex(gb.shape):
            orig = params.biases[layer][idx]
            params.biases[layer][idx] = orig + h
            up = make_loss(params)
            params.biases[layer][idx] = orig - h
            down = make_loss(params)
            params.biases[layer][idx] = orig
            gb[idx] = (up - down) / (2 * h)
        grads_b.append(gb)
    return grads_w, grads_b


class TestMlpForward:
    def test_default_shapes(self):
        p = init_mlp(8)
        assert [w.shape for w in p.weights] == [(384, 8), (160, 384),
                                                (1, 160)]
        assert p.activations == ["leaky_relu", "leaky_relu"]

    def test_init_bounds_follow_fan_in(self):
        p = init_mlp(16, rng=np.random.default_rng(0))
        for w in p.weights:
            bound = np.sqrt(1.0 / w.shape[1])
            assert np.all(np.abs(w) <= bound)

    def test_single_vs_batch_consistent(self):
        rng = np.random.default_rng(1)
        p = small_mlp(rng)
        x = rng.normal(size=(6, 5))
        batch, _ = mlp_forward(p, x)
        singles = [mlp_forward(p, row)[0] for row in x]
        np.testing.assert_allclose(batch, singles, rtol=1e-14)

    def test_identity_net_is_affine(self):
        w = np.array([[2.0, -1.0]])
        p = MlpParams([w], [np.array([0.5])], [])
        score, _ = mlp_forward(p, np.array([3.0, 1.0]))
        assert score == pytest.approx(2 * 3 - 1 + 0.5)

    def test_leaky_relu_kink(self):
        p = MlpParams([np.array([[1.0]]), np.array([[1.0]])],
                      [np.array([0.0]), np.array([0.0])], ["leaky_relu"])
        assert mlp_forward(p, np.array([2.0]))[0] == pytest.approx(2.0)
        assert mlp_forward(p, np.array([-2.0]))[0] == \
            pytest.approx(-2.0 * LEAKY_SLOPE)

    def test_wrong_input_dim(self):
        p = small_mlp(np.random.default_rng(0))
        with pytest.raises(ValueError, match="input dim"):
            mlp_forward(p, np.zeros(7))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MlpParams([np.zeros((2, 3))], [np.zeros(2)], [])  # 2 outputs
        with pytest.raises(ValueError):
            MlpParams([np.zeros((4, 3)), np.zeros((1, 5))],
                      [np.zeros(4), np.zeros(1)], ["tanh"])  # dims don't chain
        with pytest.raises(ValueError, match="activation"):
            MlpParams([np.zeros((2, 3)), np.zeros((1, 2))],
                      [np.zeros(2), np.zeros(1)], ["swish"])


class TestMlpBackward:
    @pytest.mark.parametrize("activation", ["tanh", "leaky_relu", "identity"])
    def test_matches_finite_differences(self, activation):
        rng = np.random.default_rng(12)
        p = small_mlp(rng, activation=activation)
        x = rng.normal(size=(7, 5))
        up = rng.normal(size=7)

        def loss(params):
            s, _ = mlp_forward(params, x)
            return float(np.sum(up * s))

        _, tape = mlp_forward(p, x)
        g = mlp_backward(p, tape, up)
        fd_w, fd_b = fd_param_grads(loss, p)
        for analytic, numeric in zip(g.weights + g.biases, fd_w + fd_b):
            check_grad(analytic, numeric)

    def test_scalar_upstream_broadcasts(self):
        rng = np.random.default_rng(14)
        p = small_mlp(rng, activation="tanh")
        x = rng.normal(size=(4, 5))
        _, tape = mlp_forward(p, x)
        g1 = mlp_backward(p, tape, 1.0)
        g2 = mlp_backward(p, tape, np.ones(4))
        for a, b in zip(g1.weights, g2.weights):
            np.testing.assert_array_equal(a, b)

    def test_tape_mismatch(self):
        rng = np.random.default_rng(15)
        p = small_mlp(rng)
        _, tape = mlp_forward(p, rng.normal(size=(3, 5)))
        with pytest.raises(ValueError, match="upstream"):
            mlp_backward(p, tape, np.ones(5))


class TestMlpWork:
    @settings(max_examples=60, deadline=None)
    @given(activation=st.sampled_from(ACTIVATIONS),
           sizes=st.lists(st.integers(1, 12), min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_reused_work_gives_the_bits_of_fresh_work(self, activation,
                                                       sizes, seed):
        """One work, largest batch first, then smaller batches and a single
        vector: every call matches a fresh work and the allocating
        reference bit for bit."""
        rng = np.random.default_rng(seed)
        p = init_mlp(5, (7, 4), rng, activation)
        rows = max(sizes)
        work = MlpWork(p, rows)
        for n in [rows, *sizes, None]:
            x = rng.normal(scale=3.0, size=5 if n is None else (n, 5))
            up = rng.normal(size=1 if n is None else n)
            s0, tape0 = mlp_forward(p, x)
            g0 = mlp_backward(p, tape0, up)
            s, tape = mlp_forward(p, x, work)
            g = mlp_backward(p, tape, up, work)
            assert bits([s, *g.weights, *g.biases]) == \
                bits([s0, *g0.weights, *g0.biases])
            ref_s, ref_g = reference_forward_backward(
                p, np.atleast_2d(x), up)
            assert bits([np.atleast_1d(s)]) == bits([ref_s])
            assert bits([w for pair in zip(g.weights, g.biases)
                         for w in pair]) == bits(ref_g)

    def test_gradients_alias_the_work(self):
        rng = np.random.default_rng(3)
        p = small_mlp(rng)
        work = MlpWork(p, 4)
        _, tape = mlp_forward(p, rng.normal(size=(4, 5)), work)
        g = mlp_backward(p, tape, np.ones(4), work)
        assert all(a is b for a, b in zip(g.weights, work.grad_w))

    def test_batch_larger_than_work_is_rejected(self):
        rng = np.random.default_rng(4)
        p = small_mlp(rng)
        with pytest.raises(ValueError, match="5 rows exceed"):
            mlp_forward(p, rng.normal(size=(5, 5)), MlpWork(p, 4))

    @settings(max_examples=300, deadline=None)
    @given(z=st.lists(st.floats(allow_nan=True, allow_infinity=True,
                                allow_subnormal=True), min_size=1,
                      max_size=8),
           activation=st.sampled_from(ACTIVATIONS))
    def test_output_derivatives_match_pre_activation_forms(self, z,
                                                           activation):
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
                    -5e-324, 2.2e-308, -2.2e-308, 1e-320, -1e-320]
        z = np.array([*z, *specials])
        forward, slope = _ACTIVATIONS[activation]
        ref_forward, ref_slope = REFERENCE[activation]
        h = forward(z, np.empty_like(z))
        assert h.tobytes() == ref_forward(z).tobytes()
        assert slope(h, np.empty_like(z)).tobytes() == \
            ref_slope(z).tobytes()


class TestCosine:
    def test_parallel_and_orthogonal(self):
        assert cosine_score([1.0, 0.0], [2.0, 0.0]) == pytest.approx(1.0)
        assert cosine_score([1.0, 0.0], [0.0, 5.0]) == pytest.approx(0.0)
        assert cosine_score([1.0, 0.0], [-3.0, 0.0]) == pytest.approx(-1.0)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            cosine_score([0.0, 0.0], [1.0, 0.0])

    def test_batch(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([[1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(cosine_score(a, b), [1.0, 0.0],
                                   atol=1e-15)


class TestWeightedCosine:
    def test_unit_weights_reduce_to_cosine(self):
        rng = np.random.default_rng(21)
        a, b = rng.normal(size=4), rng.normal(size=4)
        s, _ = weighted_cosine_score(np.ones(4), a, b)
        assert s == pytest.approx(cosine_score(a, b), rel=1e-14)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(22)
        w, a, b = rng.normal(size=4) + 2.0, rng.normal(size=4), \
            rng.normal(size=4)
        s1, _ = weighted_cosine_score(w, a, b)
        s2, _ = weighted_cosine_score(3.0 * w, a, b)
        assert s1 == pytest.approx(s2, rel=1e-12)

    def test_weight_can_mask_dimensions(self):
        # zeroing the disagreeing dimension makes the pair collinear
        a = np.array([1.0, 5.0])
        b = np.array([1.0, -5.0])
        s, _ = weighted_cosine_score(np.array([1.0, 0.0]), a, b)
        assert s == pytest.approx(1.0)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        w = rng.normal(size=6) + 1.5
        a = rng.normal(size=(5, 6))
        b = rng.normal(size=(5, 6))
        up = rng.normal(size=5)
        _, tape = weighted_cosine_score(w, a, b)
        gw = weighted_cosine_backward(tape, up)
        h = 1e-6
        fd = np.zeros(6)
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            fd[i] = (np.sum(up * weighted_cosine_score(w + e, a, b)[0])
                     - np.sum(up * weighted_cosine_score(w - e, a, b)[0])) \
                / (2 * h)
        check_grad(gw, fd)

    def test_gradient_orthogonal_to_weights(self):
        # score is invariant to weight rescaling, so grad . w = 0
        rng = np.random.default_rng(24)
        w = rng.normal(size=8) + 2.0
        a = rng.normal(size=(3, 8))
        b = rng.normal(size=(3, 8))
        _, tape = weighted_cosine_score(w, a, b)
        gw = weighted_cosine_backward(tape, np.ones(3))
        assert abs(np.dot(gw, w)) < 1e-10
