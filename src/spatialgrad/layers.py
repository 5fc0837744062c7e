"""Network layer primitives: forward and backward.

One rule holds the state between them for every layer: a train-mode forward
saves what its backward needs in ``Layer._saved``, the backward takes it and
releases it, and an eval-mode forward (``train=False``) saves nothing. So a
backward with nothing saved, after an eval-mode forward or a second backward,
raises ``RuntimeError``. The largest saved value is the conv layer's window
matrix, ``kx*ky`` times the size of its input.

A layer holds its parameters in ``params`` and their gradients in ``grads``,
two dicts keyed by parameter name (``W``, ``b``, ``gamma``, ``beta``; empty
for layers without parameters). Each backward refills ``grads``; the trainer
owns the optimizer state and writes each updated array into ``params``, which
the next forward reads. Batch norm's running statistics are plain attributes,
not parameters.
"""

from __future__ import annotations

import numpy as np

from .conv import ConvSpec, conv_backward_input, conv_backward_weights, conv_forward, im2col
from .tensor import ShapeError


class Layer:
    _saved: tuple | None = None

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def _take(self) -> tuple:
        """What the last train-mode forward saved, released as it is returned."""
        saved, self._saved = self._saved, None
        if saved is None:
            raise RuntimeError(f"{type(self).__name__}.backward needs a train-mode forward "
                               "since the last backward; an eval-mode forward saves nothing")
        return saved

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ConvLayer(Layer):
    """Convolution with weights ``params["W"]``; no bias.

    Every forward builds the input's window matrix (``im2col``) once for the
    forward GEMM; a train-mode forward saves it, and ``backward`` computes
    ``grads["W"]`` from it. So a step copies each input's windows once and
    holds the copy, ``kx*ky`` times the input's size, only from forward to
    backward.
    """

    def __init__(self, spec: ConvSpec, weights: np.ndarray):
        if weights.shape != spec.weight_shape:
            raise ShapeError(f"weights shape {weights.shape}, spec wants {spec.weight_shape}")
        super().__init__()
        self.spec = spec
        self.params["W"] = weights

    def forward(self, x, train):
        self._saved = None  # drop a matrix no backward took before building the next
        cols = im2col(x, self.spec)
        y = conv_forward(x, self.params["W"], self.spec, cols=cols)
        if train:
            self._saved = (cols, x.shape[2:])
        return y

    def backward(self, dy):
        cols, in_hw = self._take()
        self.grads["W"] = conv_backward_weights(dy, None, self.spec, cols=cols)
        del cols  # free it before the input gradient's own temporaries
        return conv_backward_input(dy, self.params["W"], self.spec, in_hw)


class ReLULayer(Layer):
    """Elementwise max(x, 0); backward multiplies dy by the mask ``x > 0``."""

    def forward(self, x, train):
        self._saved = (x > 0,) if train else None
        return np.maximum(x, 0.0)

    def backward(self, dy):
        (mask,) = self._take()
        return dy * mask


class MaxPoolLayer(Layer):
    """2x2 max pooling with stride 2; odd trailing rows/columns are dropped.

    Forward takes the elementwise max of the four stride-2 quadrant slices and
    records, per output cell, a uint8 route: the first quadrant, in the order
    (0,0), (0,1), (1,0), (1,1), whose value equals the max. Backward sends each
    output gradient to that element alone, so ties go to the first of the
    tied elements (as ``argmax`` over the flattened block would pick), and the
    dropped trailing row and column get zero gradient. A block holding a NaN
    outputs NaN and routes to (1,1).

    Backward writes ``dy * (route == k)`` straight into each quadrant slice,
    the same ``dy * mask`` idiom as ``ReLULayer.backward``. For finite ``dy``
    this equals routing with ``np.where(route == k, dy, 0)`` under
    ``np.array_equal``; only the sign of a zero may differ (a negative ``dy``
    times a false mask gives -0.0). A non-finite ``dy`` reaches its whole
    2x2 block, since inf * 0 and NaN * 0 are NaN, as ReLU backward already
    does with its mask. An eval-mode forward computes the max alone.
    """

    _QUADRANTS = ((0, 0), (0, 1), (1, 0), (1, 1))

    def forward(self, x, train):
        n, c, h, w = x.shape
        oh, ow = h // 2, w // 2
        if oh < 1 or ow < 1:
            raise ShapeError(f"input {h}x{w} too small for 2x2 pooling")
        q00, q01, q10, q11 = (x[:, :, r : 2 * oh : 2, s : 2 * ow : 2] for r, s in self._QUADRANTS)
        out = np.maximum(np.maximum(q00, q01), np.maximum(q10, q11))
        if not train:
            self._saved = None
            return out
        # route = number of leading quadrants that miss the max
        miss = q00 != out
        route = miss.astype(np.uint8)
        miss &= q01 != out
        route += miss
        miss &= q10 != out
        route += miss
        self._saved = (route, x.shape)
        return out

    def backward(self, dy):
        route, in_shape = self._take()
        oh, ow = dy.shape[2], dy.shape[3]
        dx = np.empty(in_shape, dtype=dy.dtype)
        dx[:, :, 2 * oh :] = 0
        dx[:, :, :, 2 * ow :] = 0
        for k, (r, s) in enumerate(self._QUADRANTS):
            np.multiply(dy, route == k, out=dx[:, :, r : 2 * oh : 2, s : 2 * ow : 2])
        return dx


class GlobalAvgPoolLayer(Layer):
    def forward(self, x, train):
        self._saved = (x.shape,) if train else None
        return x.mean(axis=(2, 3), keepdims=True)

    def backward(self, dy):
        (in_shape,) = self._take()
        n, c, h, w = in_shape
        return np.broadcast_to(dy / (h * w), in_shape).copy()


class FlattenLayer(Layer):
    def forward(self, x, train):
        self._saved = (x.shape,) if train else None
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        (in_shape,) = self._take()
        return dy.reshape(in_shape)


class DenseLayer(Layer):
    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        super().__init__()
        self.params.update(W=weights, b=bias)

    def forward(self, x, train):
        w = self.params["W"]
        if x.ndim != 2 or x.shape[1] != w.shape[0]:
            raise ShapeError(f"dense input shape {x.shape}, weights {w.shape}")
        self._saved = (x,) if train else None
        return x @ w + self.params["b"]

    def backward(self, dy):
        (x,) = self._take()
        self.grads.update(W=x.T @ dy, b=dy.sum(axis=0))
        return dy @ self.params["W"].T


class BatchNormLayer(Layer):
    """Per-channel batch norm; batch statistics in training, running in eval."""

    MOMENTUM = 0.1  # torch defaults
    EPS = 1e-5

    def __init__(self, channels: int, dtype=np.float64):
        super().__init__()
        self.params.update(gamma=np.ones(channels, dtype=dtype),
                           beta=np.zeros(channels, dtype=dtype))
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def forward(self, x, train):
        if train:
            mean = x.mean(axis=(0, 2, 3))
            centered = x - mean[None, :, None, None]
            # np.var's own steps (sum of squares, then divide), on the one centred copy
            var = (centered * centered).mean(axis=(0, 2, 3))
            self.running_mean = (1 - self.MOMENTUM) * self.running_mean + self.MOMENTUM * mean
            self.running_var = (1 - self.MOMENTUM) * self.running_var + self.MOMENTUM * var
        else:
            var = self.running_var
            centered = x - self.running_mean[None, :, None, None]
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        x_hat = centered * inv_std[None, :, None, None]
        self._saved = (x_hat, inv_std) if train else None
        return (self.params["gamma"][None, :, None, None] * x_hat
                + self.params["beta"][None, :, None, None])

    def backward(self, dy):
        x_hat, inv_std = self._take()
        dgamma = (dy * x_hat).sum(axis=(0, 2, 3))
        dbeta = dy.sum(axis=(0, 2, 3))
        self.grads.update(gamma=dgamma, beta=dbeta)
        # numpy's mean is the sum divided by the count, so these means are exact reuses
        m = dy.size // dy.shape[1]
        g_inv = (self.params["gamma"] * inv_std)[None, :, None, None]
        mean_dy = (dbeta / m)[None, :, None, None]
        mean_dy_xhat = (dgamma / m)[None, :, None, None]
        return g_inv * (dy - mean_dy - x_hat * mean_dy_xhat)


class SoftmaxCrossEntropy:
    """Loss head: softmax over logits with mean cross-entropy against labels."""

    def loss(self, logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
        if logits.ndim != 2:
            raise ShapeError(f"logits must be [N, classes], got shape {logits.shape}")
        if labels.shape != (logits.shape[0],):
            raise ShapeError(f"labels shape {labels.shape} for {logits.shape[0]} samples")
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        n = logits.shape[0]
        log_probs = shifted - np.log(exp.sum(axis=1, keepdims=True))
        value = float(-log_probs[np.arange(n), labels].mean())
        self._probs = probs
        self._labels = labels
        return value, probs

    def grad(self) -> np.ndarray:
        n = self._probs.shape[0]
        d = self._probs.copy()
        d[np.arange(n), self._labels] -= 1.0
        return d / n
