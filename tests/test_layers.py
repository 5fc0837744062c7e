import numpy as np
import pytest

from spatialgrad.conv import ConvSpec, conv_backward_input, conv_backward_weights, conv_forward
from spatialgrad.layers import (
    BatchNormLayer,
    ConvLayer,
    DenseLayer,
    FlattenLayer,
    GlobalAvgPoolLayer,
    Layer,
    MaxPoolLayer,
    ReLULayer,
    SoftmaxCrossEntropy,
)
from spatialgrad.tensor import ShapeError


def layer_findiff(forward_fn, x, dy, h=1e-6):
    """Central finite differences of L = sum(dY * forward(X)) w.r.t. X."""
    num = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        num[idx] = ((forward_fn(xp) * dy).sum() - (forward_fn(xm) * dy).sum()) / (2 * h)
    return num


class TestReLU:
    def test_forward_and_mask(self):
        layer = ReLULayer()
        x = np.array([[-1.0, 2.0]])
        np.testing.assert_array_equal(layer.forward(x, train=True), [[0.0, 2.0]])
        np.testing.assert_array_equal(layer.backward(np.ones_like(x)), [[0.0, 1.0]])

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4)) + 0.05  # keep away from the kink
        dy = rng.normal(size=(3, 4))
        layer = ReLULayer()
        layer.forward(x, train=True)
        num = layer_findiff(lambda a: np.maximum(a, 0.0), x, dy)
        np.testing.assert_allclose(layer.backward(dy), num, rtol=1e-6, atol=1e-9)

    def test_eval_forward_keeps_no_mask(self):
        x = np.random.default_rng(6).normal(size=(2, 3, 4, 5))
        layer = ReLULayer()
        layer.forward(x, train=True)
        np.testing.assert_array_equal(layer.forward(x, train=False), np.maximum(x, 0.0))
        assert layer._saved is None

    def test_backward_after_eval_forward_raises(self):
        x = np.random.default_rng(7).normal(size=(2, 3))
        layer = ReLULayer()
        layer.forward(x, train=False)
        with pytest.raises(RuntimeError, match="train-mode forward"):
            layer.backward(np.ones_like(x))
        with pytest.raises(RuntimeError, match="train-mode forward"):
            ReLULayer().backward(np.ones_like(x))


# id -> (layer factory, input shape): one of every Layer subclass
LAYER_KINDS = {
    "conv": (lambda: ConvLayer(ConvSpec(3, 2, (3, 3), padding=1), np.ones((2, 3, 3, 3))),
             (2, 3, 4, 4)),
    "relu": (ReLULayer, (2, 3, 4, 4)),
    "maxpool": (MaxPoolLayer, (2, 3, 4, 4)),
    "gap": (GlobalAvgPoolLayer, (2, 3, 4, 4)),
    "flatten": (FlattenLayer, (2, 3, 4, 4)),
    "dense": (lambda: DenseLayer(np.ones((3, 2)), np.zeros(2)), (2, 3)),
    "batchnorm": (lambda: BatchNormLayer(3), (2, 3, 4, 4)),
}


def test_layer_kinds_cover_every_layer_subclass():
    assert {type(make()) for make, _ in LAYER_KINDS.values()} == set(Layer.__subclasses__())


@pytest.mark.parametrize("kind", LAYER_KINDS)
def test_backward_after_eval_forward_raises(kind):
    make, shape = LAYER_KINDS[kind]
    x = np.random.default_rng(9).normal(size=shape)
    layer = make()
    out = layer.forward(x, train=True)
    layer.forward(x, train=False)
    with pytest.raises(RuntimeError, match="train-mode forward"):
        layer.backward(np.ones_like(out))


@pytest.mark.parametrize("kind", LAYER_KINDS)
def test_second_backward_after_one_train_forward_raises(kind):
    make, shape = LAYER_KINDS[kind]
    x = np.random.default_rng(10).normal(size=shape)
    layer = make()
    dy = np.ones_like(layer.forward(x, train=True))
    assert layer.backward(dy).shape == shape
    assert layer._saved is None
    with pytest.raises(RuntimeError, match=f"{type(layer).__name__}.backward needs a "
                                           "train-mode forward"):
        layer.backward(dy)


class TestConvLayer:
    """A train-mode forward keeps the window matrix that the weight gradient reuses."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [(3, 3), (2, 3), (3, 1)])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_train_mode_equals_the_stateless_functions(self, stride, padding, kernel, dtype):
        rng = np.random.default_rng(14)
        spec = ConvSpec(2, 3, kernel, stride=stride, padding=padding)
        w = rng.normal(size=spec.weight_shape).astype(dtype)
        x = rng.normal(size=(2, 2, 7, 6)).astype(dtype)
        layer = ConvLayer(spec, w)
        y = layer.forward(x, train=True)
        assert np.array_equal(y, conv_forward(x, w, spec))
        dy = rng.normal(size=y.shape).astype(dtype)
        dx = layer.backward(dy)
        assert layer.grads["W"].dtype == dtype
        assert np.array_equal(layer.grads["W"], conv_backward_weights(dy, x, spec))
        assert np.array_equal(dx, conv_backward_input(dy, w, spec, x.shape[2:]))

    def test_eval_forward_keeps_no_window_matrix(self):
        rng = np.random.default_rng(15)
        spec = ConvSpec(2, 3, (3, 3), padding=1)
        w = rng.normal(size=spec.weight_shape)
        x = rng.normal(size=(2, 2, 5, 5))
        layer = ConvLayer(spec, w)
        layer.forward(x, train=True)
        assert layer._saved is not None
        np.testing.assert_array_equal(layer.forward(x, train=False), conv_forward(x, w, spec))
        assert layer._saved is None

    def test_backward_frees_the_window_matrix(self):
        rng = np.random.default_rng(16)
        spec = ConvSpec(2, 3, (3, 3), padding=1)
        layer = ConvLayer(spec, rng.normal(size=spec.weight_shape))
        y = layer.forward(rng.normal(size=(2, 2, 5, 5)), train=True)
        dy = rng.normal(size=y.shape)
        layer.backward(dy)
        assert layer._saved is None
        with pytest.raises(RuntimeError, match="train-mode forward"):
            layer.backward(dy)


class TestMaxPool:
    def test_forward_blocks(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = MaxPoolLayer().forward(x, train=True)
        np.testing.assert_array_equal(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_odd_sizes_drop_remainder(self):
        x = np.arange(25.0).reshape(1, 1, 5, 5)
        out = MaxPoolLayer().forward(x, train=True)
        assert out.shape == (1, 1, 2, 2)

    def test_backward_routes_gradient_to_argmax(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 6, 6))
        layer = MaxPoolLayer()
        out = layer.forward(x, train=True)
        dy = rng.normal(size=out.shape)
        dx = layer.backward(dy)

        def pool(a):
            return MaxPoolLayer().forward(a, train=True)

        num = layer_findiff(pool, x, dy)
        np.testing.assert_allclose(dx, num, rtol=1e-6, atol=1e-9)


def loop_maxpool(x, dy):
    """Loop oracle for 2x2/stride-2 pooling: output, and dy routed first-wins.

    Scans each block in the order (0,0), (0,1), (1,0), (1,1) and keeps the
    first element that no later one strictly exceeds.
    """
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2), dtype=x.dtype)
    dx = np.zeros_like(x)
    for b in range(n):
        for ch in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    block = x[b, ch, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                    best = (0, 0)
                    for r, s in ((0, 1), (1, 0), (1, 1)):
                        if block[r, s] > block[best]:
                            best = (r, s)
                    out[b, ch, i, j] = block[best]
                    dx[b, ch, 2 * i + best[0], 2 * j + best[1]] = dy[b, ch, i, j]
    return out, dx


class TestMaxPoolOracle:
    """Forward and backward bitwise equal to the first-wins loop oracle."""

    @staticmethod
    def check(x):
        layer = MaxPoolLayer()
        out = layer.forward(x, train=True)
        dy = np.random.default_rng(0).normal(size=out.shape).astype(x.dtype)
        dx = layer.backward(dy)
        ref_out, ref_dx = loop_maxpool(x, dy)
        assert out.dtype == dx.dtype == x.dtype
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(dx, ref_dx)
        return dx

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_ties_between_positive_values(self, dtype):
        # values drawn from {0, 1, 2}: most blocks hold tied maxima, many of them positive
        x = np.random.default_rng(1).integers(0, 3, size=(2, 3, 6, 8)).astype(dtype)
        self.check(x)

    def test_every_tie_pattern_routes_to_first(self):
        # all 15 non-empty sets of tied maxima in one 2x2 block, one block per channel
        x = np.zeros((1, 15, 2, 2))
        for pattern in range(1, 16):
            bits = [(pattern >> k) & 1 for k in range(4)]
            x[0, pattern - 1] = np.where(np.reshape(bits, (2, 2)), 3.0, 1.0)
        self.check(x)

    def test_all_zero_blocks(self):
        x = np.maximum(np.random.default_rng(2).normal(size=(2, 2, 6, 6)), 0.0)
        x[:, :, :2, :] = 0.0
        x[0, 1] = 0.0
        self.check(x)

    def test_odd_sizes_zero_gradient_on_dropped_edge(self):
        x = np.random.default_rng(3).normal(size=(2, 3, 5, 7))
        dx = self.check(x)
        assert not dx[:, :, 4, :].any()
        assert not dx[:, :, :, 6].any()

    def test_eval_forward_then_train_forward(self):
        rng = np.random.default_rng(4)
        first = rng.normal(size=(2, 2, 4, 6))
        second = rng.integers(0, 3, size=(3, 2, 6, 4)).astype(np.float64)
        layer = MaxPoolLayer()
        layer.forward(first, train=False)
        out = layer.forward(second, train=True)
        dy = rng.normal(size=out.shape)
        ref_out, ref_dx = loop_maxpool(second, dy)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(layer.backward(dy), ref_dx)


class TestMaxPoolEvalMode:
    def test_eval_forward_keeps_no_route(self):
        x = np.random.default_rng(5).normal(size=(2, 3, 6, 4))
        layer = MaxPoolLayer()
        layer.forward(x, train=True)
        out = layer.forward(x, train=False)
        np.testing.assert_array_equal(out, loop_maxpool(x, np.zeros(out.shape))[0])
        assert layer._saved is None
        with pytest.raises(RuntimeError, match="train-mode forward"):
            layer.backward(np.ones(out.shape))

    def test_backward_before_any_forward_raises(self):
        with pytest.raises(RuntimeError, match="train-mode forward"):
            MaxPoolLayer().backward(np.ones((1, 1, 2, 2)))


def where_maxpool_backward(route, dy, in_shape):
    """Reference routing with an ``np.where`` temporary per quadrant."""
    oh, ow = dy.shape[2:]
    dx = np.zeros(in_shape, dtype=dy.dtype)
    for k, (r, s) in enumerate(MaxPoolLayer._QUADRANTS):
        dx[:, :, r : 2 * oh : 2, s : 2 * ow : 2] = np.where(route == k, dy, 0)
    return dx


class TestMaxPoolBackward:
    """The in-place ``dy * mask`` backward against the ``np.where`` routing."""

    @staticmethod
    def routed(x, dy=None):
        layer = MaxPoolLayer()
        out = layer.forward(x, train=True)
        if dy is None:
            dy = np.random.default_rng(5).normal(size=out.shape).astype(x.dtype)
        route, _ = layer._saved  # read before backward takes it
        return layer.backward(dy), where_maxpool_backward(route, dy, x.shape)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("tied", [False, True])
    def test_finite_dy_equals_where_reference(self, dtype, tied):
        rng = np.random.default_rng(6)
        shape = (3, 4, 7, 9)
        x = rng.integers(0, 3, size=shape) if tied else rng.normal(size=shape)
        dx, ref = self.routed(x.astype(dtype))
        assert dx.dtype == ref.dtype == dtype
        # array_equal treats -0.0 and 0.0 as equal, the one difference allowed
        np.testing.assert_array_equal(dx, ref)

    def test_non_finite_dy_reaches_its_whole_block(self):
        x = np.random.default_rng(7).normal(size=(1, 1, 4, 6))
        layer = MaxPoolLayer()
        out = layer.forward(x, train=True)
        dy = np.ones_like(out)
        dy[0, 0, 0, 0], dy[0, 0, 0, 1], dy[0, 0, 1, 2] = np.inf, np.nan, -np.inf
        route, _ = layer._saved  # read before backward takes it
        with np.errstate(invalid="ignore"):
            dx = layer.backward(dy)
        for (i, j), value in (((0, 0), np.inf), ((0, 1), np.nan), ((1, 2), -np.inf)):
            block = dx[0, 0, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].ravel()
            k = route[0, 0, i, j]
            np.testing.assert_array_equal(block[k], value)
            assert np.isnan(np.delete(block, k)).all()
        # finite blocks route as before
        finite = np.isfinite(np.repeat(np.repeat(dy, 2, axis=2), 2, axis=3))
        ref = where_maxpool_backward(route, np.where(np.isfinite(dy), dy, 0), x.shape)
        np.testing.assert_array_equal(dx[finite], ref[finite])


class TestGlobalAvgPool:
    def test_forward(self):
        x = np.arange(8.0).reshape(1, 2, 2, 2)
        out = GlobalAvgPoolLayer().forward(x, train=True)
        np.testing.assert_allclose(out[0, :, 0, 0], [1.5, 5.5])

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 4, 4))
        layer = GlobalAvgPoolLayer()
        out = layer.forward(x, train=True)
        dy = rng.normal(size=out.shape)
        num = layer_findiff(lambda a: a.mean(axis=(2, 3), keepdims=True), x, dy)
        np.testing.assert_allclose(layer.backward(dy), num, rtol=1e-6, atol=1e-10)


class TestDense:
    def test_identity_weight_forward(self):
        layer = DenseLayer(np.eye(4), np.zeros(4))
        x = np.random.default_rng(3).normal(size=(2, 4))
        np.testing.assert_array_equal(layer.forward(x, train=True), x)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=3)
        x = rng.normal(size=(4, 5))
        layer = DenseLayer(w, b)
        out = layer.forward(x, train=True)
        dy = rng.normal(size=out.shape)
        dx = layer.backward(dy)
        num_x = layer_findiff(lambda a: a @ w + b, x, dy)
        np.testing.assert_allclose(dx, num_x, rtol=1e-6, atol=1e-9)
        num_w = layer_findiff(lambda a: x @ a + b, w, dy)
        np.testing.assert_allclose(layer.grads["W"], num_w, rtol=1e-6, atol=1e-9)
        num_b = layer_findiff(lambda a: x @ w + a, b, dy)
        np.testing.assert_allclose(layer.grads["b"], num_b, rtol=1e-6, atol=1e-9)

    def test_shape_error(self):
        layer = DenseLayer(np.eye(3), np.zeros(3))
        with pytest.raises(ShapeError):
            layer.forward(np.ones((2, 4)), train=True)


class TestBatchNorm:
    def test_train_forward_normalizes(self):
        rng = np.random.default_rng(5)
        x = rng.normal(3.0, 2.0, size=(8, 2, 5, 5))
        layer = BatchNormLayer(2)
        out = layer.forward(x, train=True)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_eval_uses_running_stats(self):
        rng = np.random.default_rng(6)
        layer = BatchNormLayer(2)
        for _ in range(50):
            layer.forward(rng.normal(1.0, 2.0, size=(16, 2, 4, 4)), train=True)
        x = rng.normal(1.0, 2.0, size=(4, 2, 4, 4))
        out = layer.forward(x, train=False)
        assert abs(out.mean()) < 0.2

    def test_running_stats_not_updated_in_eval(self):
        layer = BatchNormLayer(3)
        before = layer.running_mean.copy()
        layer.forward(np.random.default_rng(7).normal(size=(2, 3, 4, 4)), train=False)
        np.testing.assert_array_equal(layer.running_mean, before)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 2, 3, 3))
        layer = BatchNormLayer(2)
        layer.params["gamma"] = rng.uniform(0.5, 1.5, size=2)
        layer.params["beta"] = rng.normal(size=2)
        out = layer.forward(x, train=True)
        dy = rng.normal(size=out.shape)
        dx = layer.backward(dy)

        def bn(a):
            probe = BatchNormLayer(2)
            probe.params["gamma"] = layer.params["gamma"]
            probe.params["beta"] = layer.params["beta"]
            return probe.forward(a, train=True)

        num = layer_findiff(bn, x, dy, h=1e-6)
        np.testing.assert_allclose(dx, num, rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(layer.grads["beta"], dy.sum(axis=(0, 2, 3)), rtol=1e-12)


def reference_batch_norm(x, gamma, beta, running_mean, running_var, dy):
    """Batch norm's train step by its textbook formulas: np.var, and every mean
    taken afresh. Returns the output, the running statistics, dx, dgamma, dbeta."""
    axes, c = (0, 2, 3), (None, slice(None), None, None)
    mean, var = x.mean(axis=axes), x.var(axis=axes)
    m, eps = BatchNormLayer.MOMENTUM, BatchNormLayer.EPS
    running = ((1 - m) * running_mean + m * mean, (1 - m) * running_var + m * var)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean[c]) * inv_std[c]
    out = gamma[c] * x_hat + beta[c]
    dgamma, dbeta = (dy * x_hat).sum(axis=axes), dy.sum(axis=axes)
    mean_dy, mean_dy_xhat = dy.mean(axis=axes)[c], (dy * x_hat).mean(axis=axes)[c]
    dx = (gamma * inv_std)[c] * (dy - mean_dy - x_hat * mean_dy_xhat)
    return out, running, dx, dgamma, dbeta


class TestBatchNormBitwise:
    """The layer reuses its centred input and its sums, and still gives exactly
    what ``reference_batch_norm`` gives."""

    @pytest.mark.parametrize("shape", [(8, 4, 6, 6), (5, 3, 7, 9), (16, 8, 4, 4)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_step_equals_reference(self, dtype, shape):
        rng = np.random.default_rng(13)
        c = shape[1]
        x = rng.normal(1.5, 3.0, size=shape).astype(dtype)
        dy = rng.normal(size=shape).astype(dtype)
        layer = BatchNormLayer(c, dtype=dtype)
        layer.params.update(gamma=rng.uniform(0.5, 1.5, size=c).astype(dtype),
                            beta=rng.normal(size=c).astype(dtype))
        layer.running_mean = rng.normal(size=c).astype(dtype)
        layer.running_var = rng.uniform(0.5, 2.0, size=c).astype(dtype)
        out, running, dx, dgamma, dbeta = reference_batch_norm(
            x, layer.params["gamma"], layer.params["beta"], layer.running_mean,
            layer.running_var, dy)
        got = layer.forward(x, train=True)
        assert got.dtype == dtype
        assert np.array_equal(got, out)
        assert np.array_equal(layer.running_mean, running[0])
        assert np.array_equal(layer.running_var, running[1])
        assert np.array_equal(layer.backward(dy), dx)
        assert np.array_equal(layer.grads["gamma"], dgamma)
        assert np.array_equal(layer.grads["beta"], dbeta)

        ch = (None, slice(None), None, None)
        inv_std = 1.0 / np.sqrt(layer.running_var + layer.EPS)
        x_hat = (x - layer.running_mean[ch]) * inv_std[ch]
        eval_out = layer.params["gamma"][ch] * x_hat + layer.params["beta"][ch]
        assert np.array_equal(layer.forward(x, train=False), eval_out)


class TestParamsDicts:
    """A write to ``layer.params[name]`` is what the next forward and backward
    read, and every backward refills ``layer.grads``."""

    def test_conv(self):
        rng = np.random.default_rng(10)
        spec = ConvSpec(2, 3, (3, 3), padding=1)
        layer = ConvLayer(spec, rng.normal(size=spec.weight_shape))
        x = rng.normal(size=(2, 2, 5, 5))
        layer.params["W"] = np.zeros(spec.weight_shape)
        np.testing.assert_array_equal(layer.forward(x, train=True), 0.0)
        dy = rng.normal(size=(2, 3, 5, 5))
        np.testing.assert_array_equal(layer.backward(dy), 0.0)
        np.testing.assert_array_equal(layer.grads["W"], conv_backward_weights(dy, x, spec))

        w = rng.normal(size=spec.weight_shape)
        layer.params["W"] = w
        np.testing.assert_array_equal(layer.forward(x, train=True), conv_forward(x, w, spec))
        dy = rng.normal(size=dy.shape)
        np.testing.assert_array_equal(layer.backward(dy),
                                      conv_backward_input(dy, w, spec, x.shape[2:]))
        np.testing.assert_array_equal(layer.grads["W"], conv_backward_weights(dy, x, spec))

    def test_dense(self):
        rng = np.random.default_rng(11)
        layer = DenseLayer(rng.normal(size=(4, 3)), rng.normal(size=3))
        x = rng.normal(size=(5, 4))
        bias = rng.normal(size=3)
        layer.params["W"] = np.zeros((4, 3))
        layer.params["b"] = bias
        np.testing.assert_array_equal(layer.forward(x, train=True), np.tile(bias, (5, 1)))
        dy = rng.normal(size=(5, 3))
        np.testing.assert_array_equal(layer.backward(dy), 0.0)

        w = rng.normal(size=(4, 3))
        layer.params["W"] = w
        np.testing.assert_array_equal(layer.forward(x, train=True), x @ w + bias)
        dy = rng.normal(size=dy.shape)
        np.testing.assert_array_equal(layer.backward(dy), dy @ w.T)
        np.testing.assert_array_equal(layer.grads["W"], x.T @ dy)
        np.testing.assert_array_equal(layer.grads["b"], dy.sum(axis=0))

    def test_batch_norm(self):
        rng = np.random.default_rng(12)
        layer = BatchNormLayer(2)
        x = rng.normal(size=(4, 2, 3, 3))
        beta = rng.normal(size=2)
        layer.params["gamma"] = np.zeros(2)
        layer.params["beta"] = beta
        np.testing.assert_array_equal(layer.forward(x, train=True),
                                      np.broadcast_to(beta[None, :, None, None], x.shape))
        dy = rng.normal(size=x.shape)
        np.testing.assert_array_equal(layer.backward(dy), 0.0)
        np.testing.assert_array_equal(layer.grads["beta"], dy.sum(axis=(0, 2, 3)))

        layer.params["gamma"] = np.full(2, 2.0)
        out = layer.forward(x, train=True)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), beta, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 2.0, rtol=1e-3)
        dy = rng.normal(size=x.shape)
        assert np.abs(layer.backward(dy)).max() > 0
        np.testing.assert_array_equal(layer.grads["beta"], dy.sum(axis=(0, 2, 3)))

    def test_parameterless_layers_have_empty_dicts(self):
        for layer in (ReLULayer(), MaxPoolLayer(), GlobalAvgPoolLayer(), FlattenLayer()):
            assert layer.params == {} and layer.grads == {}


class TestSoftmaxCrossEntropy:
    def test_frozen_two_logit_example(self):
        head = SoftmaxCrossEntropy()
        loss, probs = head.loss(np.array([[0.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)
        np.testing.assert_allclose(head.grad(), [[-0.5, 0.5]], rtol=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        head = SoftmaxCrossEntropy()
        head.loss(logits, labels)
        analytic = head.grad()
        h = 1e-6
        num = np.zeros_like(logits)
        it = np.nditer(logits, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            lp, lm = logits.copy(), logits.copy()
            lp[idx] += h
            lm[idx] -= h
            num[idx] = (SoftmaxCrossEntropy().loss(lp, labels)[0]
                        - SoftmaxCrossEntropy().loss(lm, labels)[0]) / (2 * h)
        np.testing.assert_allclose(analytic, num, rtol=1e-5, atol=1e-9)

    def test_loss_is_mean_over_batch(self):
        head = SoftmaxCrossEntropy()
        logits = np.array([[0.0, 0.0], [10.0, 0.0]])
        loss, _ = head.loss(logits, np.array([0, 0]))
        single0, _ = SoftmaxCrossEntropy().loss(logits[:1], np.array([0]))
        single1, _ = SoftmaxCrossEntropy().loss(logits[1:], np.array([0]))
        assert loss == pytest.approx((single0 + single1) / 2, rel=1e-12)

    def test_flatten_backward_restores_shape(self):
        layer = FlattenLayer()
        x = np.random.default_rng(10).normal(size=(2, 3, 4, 4))
        out = layer.forward(x, train=True)
        assert out.shape == (2, 48)
        assert layer.backward(out).shape == x.shape
