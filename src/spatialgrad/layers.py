"""Network layer primitives: forward, backward, and parameter access.

Each layer caches what its backward pass needs during forward. Layers with
parameters expose them through ``params()``/``grads()`` keyed by name; the
trainer owns the optimizer state and writes updated arrays back.
"""

from __future__ import annotations

import numpy as np

from .conv import ConvSpec, conv_backward_input, conv_backward_weights, conv_forward
from .tensor import ShapeError


class Layer:
    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def grads(self) -> dict[str, np.ndarray]:
        return {}

    def set_param(self, name: str, value: np.ndarray) -> None:
        raise KeyError(f"{type(self).__name__} has no parameter {name!r}")


class ConvLayer(Layer):
    def __init__(self, spec: ConvSpec, weights: np.ndarray):
        if weights.shape != spec.weight_shape:
            raise ShapeError(f"weights shape {weights.shape}, spec wants {spec.weight_shape}")
        self.spec = spec
        self.w = weights
        self._x: np.ndarray | None = None
        self.dw: np.ndarray | None = None

    def forward(self, x, train):
        self._x = x
        return conv_forward(x, self.w, self.spec)

    def backward(self, dy):
        self.dw = conv_backward_weights(dy, self._x, self.spec)
        return conv_backward_input(dy, self.w, self.spec, self._x.shape[2:])

    def params(self):
        return {"W": self.w}

    def grads(self):
        return {"W": self.dw}

    def set_param(self, name, value):
        if name != "W":
            raise KeyError(name)
        self.w = value


class ReLULayer(Layer):
    """Elementwise max(x, 0); backward multiplies dy by the mask ``x > 0``.

    An eval-mode forward (``train=False``) keeps no mask, since no backward
    follows it; ``backward`` after it raises ``RuntimeError``, as
    ``MaxPoolLayer.backward`` does.
    """

    _mask: np.ndarray | None = None

    def forward(self, x, train):
        self._mask = x > 0 if train else None
        return np.maximum(x, 0.0)

    def backward(self, dy):
        if self._mask is None:
            raise RuntimeError("ReLULayer.backward needs a train-mode forward first; "
                               "an eval-mode forward keeps no mask")
        return dy * self._mask


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
    does with its mask.

    An eval-mode forward (``train=False``) computes the max alone and keeps
    no route, since no backward follows it; ``backward`` after it raises
    ``RuntimeError``.
    """

    _QUADRANTS = ((0, 0), (0, 1), (1, 0), (1, 1))
    _route: np.ndarray | None = None

    def forward(self, x, train):
        n, c, h, w = x.shape
        oh, ow = h // 2, w // 2
        if oh < 1 or ow < 1:
            raise ShapeError(f"input {h}x{w} too small for 2x2 pooling")
        q00, q01, q10, q11 = (x[:, :, r : 2 * oh : 2, s : 2 * ow : 2] for r, s in self._QUADRANTS)
        out = np.maximum(np.maximum(q00, q01), np.maximum(q10, q11))
        if not train:
            self._route = None
            return out
        # route = number of leading quadrants that miss the max
        miss = q00 != out
        route = miss.astype(np.uint8)
        miss &= q01 != out
        route += miss
        miss &= q10 != out
        route += miss
        self._route = route
        self._in_shape = x.shape
        return out

    def backward(self, dy):
        if self._route is None:
            raise RuntimeError("MaxPoolLayer.backward needs a train-mode forward first; "
                               "an eval-mode forward keeps no route")
        oh, ow = dy.shape[2], dy.shape[3]
        dx = np.empty(self._in_shape, dtype=dy.dtype)
        dx[:, :, 2 * oh :] = 0
        dx[:, :, :, 2 * ow :] = 0
        for k, (r, s) in enumerate(self._QUADRANTS):
            np.multiply(dy, self._route == k, out=dx[:, :, r : 2 * oh : 2, s : 2 * ow : 2])
        return dx


class GlobalAvgPoolLayer(Layer):
    def forward(self, x, train):
        self._in_shape = x.shape
        return x.mean(axis=(2, 3), keepdims=True)

    def backward(self, dy):
        n, c, h, w = self._in_shape
        return np.broadcast_to(dy / (h * w), self._in_shape).copy()


class FlattenLayer(Layer):
    def forward(self, x, train):
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        return dy.reshape(self._in_shape)


class DenseLayer(Layer):
    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        self.w = weights
        self.b = bias
        self.dw: np.ndarray | None = None
        self.db: np.ndarray | None = None

    def forward(self, x, train):
        if x.ndim != 2 or x.shape[1] != self.w.shape[0]:
            raise ShapeError(f"dense input shape {x.shape}, weights {self.w.shape}")
        self._x = x
        return x @ self.w + self.b

    def backward(self, dy):
        self.dw = self._x.T @ dy
        self.db = dy.sum(axis=0)
        return dy @ self.w.T

    def params(self):
        return {"W": self.w, "b": self.b}

    def grads(self):
        return {"W": self.dw, "b": self.db}

    def set_param(self, name, value):
        if name == "W":
            self.w = value
        elif name == "b":
            self.b = value
        else:
            raise KeyError(name)


class BatchNormLayer(Layer):
    """Per-channel batch norm; batch statistics in training, running in eval."""

    MOMENTUM = 0.1  # torch defaults
    EPS = 1e-5

    def __init__(self, channels: int, dtype=np.float64):
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.dgamma: np.ndarray | None = None
        self.dbeta: np.ndarray | None = None

    def forward(self, x, train):
        if train:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = (1 - self.MOMENTUM) * self.running_mean + self.MOMENTUM * mean
            self.running_var = (1 - self.MOMENTUM) * self.running_var + self.MOMENTUM * var
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        self._x_hat = x_hat
        self._inv_std = inv_std
        self._train = train
        return self.gamma[None, :, None, None] * x_hat + self.beta[None, :, None, None]

    def backward(self, dy):
        self.dgamma = (dy * self._x_hat).sum(axis=(0, 2, 3))
        self.dbeta = dy.sum(axis=(0, 2, 3))
        g_inv = (self.gamma * self._inv_std)[None, :, None, None]
        if not self._train:
            return dy * g_inv
        m = dy.shape[0] * dy.shape[2] * dy.shape[3]
        mean_dy = dy.mean(axis=(0, 2, 3))[None, :, None, None]
        mean_dy_xhat = (dy * self._x_hat).mean(axis=(0, 2, 3))[None, :, None, None]
        return g_inv * (dy - mean_dy - self._x_hat * mean_dy_xhat)

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def grads(self):
        return {"gamma": self.dgamma, "beta": self.dbeta}

    def set_param(self, name, value):
        if name == "gamma":
            self.gamma = value
        elif name == "beta":
            self.beta = value
        else:
            raise KeyError(name)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {"running_mean": self.running_mean, "running_var": self.running_var}


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
