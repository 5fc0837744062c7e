"""Layer-spec parsing, shape validation, and network composition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conv import ConvSpec
from .layers import (
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


@dataclass(frozen=True)
class ConvLayerSpec:
    out_channels: int
    kernel: tuple[int, int]
    stride: int = 1
    padding: int = 0
    activation: str = "relu"  # relu | none
    batch_norm: bool = False

    def __post_init__(self) -> None:
        if self.activation not in ("relu", "none"):
            raise ValueError(f"activation must be 'relu' or 'none', got {self.activation!r}")
        self.conv(1)  # ConvSpec's checks of every field but the input channels

    def conv(self, in_channels: int) -> ConvSpec:
        """The layer's convolution on ``in_channels`` input channels."""
        return ConvSpec(in_channels, self.out_channels, self.kernel, self.stride, self.padding)


@dataclass(frozen=True)
class MaxPoolSpec:
    pass


@dataclass(frozen=True)
class GlobalAvgPoolSpec:
    pass


@dataclass(frozen=True)
class FlattenSpec:
    pass


@dataclass(frozen=True)
class DenseSpec:
    out_features: int

    def __post_init__(self) -> None:
        if self.out_features < 1:
            raise ValueError(f"out_features must be >= 1, got {self.out_features}")


@dataclass(frozen=True)
class SoftmaxXentSpec:
    pass


def validate_model_spec(specs: list) -> None:
    """Check the layer order, which needs no input shape: conv, maxpool and gap
    layers, exactly one flatten, dense layers, and the softmax_xent head last."""
    heads = [i for i, s in enumerate(specs) if isinstance(s, SoftmaxXentSpec)]
    if len(heads) != 1 or heads[0] != len(specs) - 1:
        raise ValueError("model must end with exactly one softmax_xent head")
    flattens = [i for i, s in enumerate(specs) if isinstance(s, FlattenSpec)]
    if len(flattens) != 1:
        raise ValueError(f"model must have exactly one flatten, found {len(flattens)}")
    for spec in specs[:flattens[0]]:
        if not isinstance(spec, (ConvLayerSpec, MaxPoolSpec, GlobalAvgPoolSpec)):
            raise ValueError(f"{spec!r} before flatten; only conv, maxpool and gap may precede it")
    for spec in specs[flattens[0] + 1 : -1]:
        if not isinstance(spec, DenseSpec):
            raise ValueError(f"{spec!r} after flatten; only dense layers may follow it")


class Network:
    """An ordered stack of layers plus a softmax cross-entropy head, computing in
    ``dtype``: every forward casts its input to it first."""

    def __init__(self, layers: list[Layer], head: SoftmaxCrossEntropy, dtype):
        self.layers = layers
        self.head = head
        self.dtype = dtype
        self.conv_indices = [i for i, l in enumerate(layers) if isinstance(l, ConvLayer)]

    def forward(self, x: np.ndarray, train: bool,
                capture_conv_inputs: dict[int, np.ndarray] | None = None) -> np.ndarray | None:
        """The network's logits for ``x``, or ``None`` when capturing conv inputs.

        With ``capture_conv_inputs``, each conv layer's input is stored under
        its layer index, and the forward returns ``None`` as soon as the last
        conv's input is stored: the layers from there on cannot change
        anything captured, so they do not run.
        """
        x = np.asarray(x, dtype=self.dtype)
        for idx, layer in enumerate(self.layers):
            if capture_conv_inputs is not None and isinstance(layer, ConvLayer):
                capture_conv_inputs[idx] = x
                if idx == self.conv_indices[-1]:
                    return None
            x = layer.forward(x, train)
        return x

    def backward(self, dlogits: np.ndarray) -> np.ndarray:
        d = dlogits
        for layer in reversed(self.layers):
            d = layer.backward(d)
        return d

    def loss(self, x: np.ndarray, labels: np.ndarray, train: bool) -> tuple[float, np.ndarray]:
        logits = self.forward(x, train)
        value, probs = self.head.loss(logits, labels)
        return value, probs

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x, train=False).argmax(axis=1)

    def parameters(self):
        """Yield (layer_index, layer, parameter_name, array) for every parameter."""
        for idx, layer in enumerate(self.layers):
            for name, value in layer.params.items():
                yield idx, layer, name, value

    def named_weights(self) -> dict[str, np.ndarray]:
        """Every parameter and each batch norm's running statistics, by saved name."""
        weights = {parameter_name(idx, layer, name): value
                   for idx, layer, name, value in self.parameters()}
        for idx, layer in enumerate(self.layers):
            if isinstance(layer, BatchNormLayer):
                for name in ("running_mean", "running_var"):
                    weights[parameter_name(idx, layer, name)] = getattr(layer, name)
        return weights


def parameter_name(idx: int, layer: Layer, name: str) -> str:
    """The parameter's saved name: layer kind, layer index and name, as in ``conv0.W``."""
    return f"{type(layer).__name__.removesuffix('Layer').lower()}{idx}.{name}"


def build_network(specs: list, input_shape: tuple[int, int, int], class_count: int,
                  rng: np.random.Generator, dtype=np.float64) -> Network:
    """Instantiate a network, validating that shapes chain consistently.

    The layer order is checked by ``validate_model_spec``; the shape checks,
    which need ``input_shape`` and ``class_count``, are made here, before any
    training starts. Weights use fan-in-scaled normal init.

    Each ``maxpool`` that follows a ``relu`` conv, directly or after another
    maxpool, is built before that conv's ReLU: ``[Conv, MaxPool, ReLU]``
    (``[Conv, BN, MaxPool, ReLU]`` with batch norm), so the ReLU runs on a
    quarter of the elements. ``act=none``, ``gap`` and a ReLU with no maxpool
    after it keep the spec's order. Only parameter-free
    layers trade places, so every layer index, parameter name and
    ``conv_indices`` entry stays where the spec puts it. The two orders agree
    under ``np.array_equal``; only the sign of a zero may differ:

    - the max is monotone, so ``relu(max(a, b, c, d)) == max(relu(a), ...,
      relu(d))`` in IEEE arithmetic, and a NaN in the block gives NaN on both
      sides;
    - when a block's max is above 0, the elements equal to it are the same
      before and after the ReLU, so the first-wins route picks the same one,
      and the ReLU mask there is true;
    - when the max is at or below 0, the ReLU mask zeroes every gradient entry
      of the block in both orders.

    A block holding a NaN routes to its last element in both orders, where
    the relu-first order keeps a gradient if that element is positive and the
    pool-first order does not; a network never sends such a block a finite,
    non-zero gradient, since the NaN reaches every logit of its sample.
    """
    validate_model_spec(specs)
    c, h, w = input_shape
    layers: list[Layer] = []
    flat_features = 0
    for spec in specs[:-1]:
        if isinstance(spec, ConvLayerSpec):
            conv_spec = spec.conv(c)
            fan_in = c * spec.kernel[0] * spec.kernel[1]
            weights = (rng.normal(size=conv_spec.weight_shape) * np.sqrt(2.0 / fan_in)).astype(dtype)
            layers.append(ConvLayer(conv_spec, weights))
            h, w = conv_spec.out_size(h, w)
            c = spec.out_channels
            if spec.batch_norm:
                layers.append(BatchNormLayer(c, dtype=dtype))
            if spec.activation == "relu":
                layers.append(ReLULayer())
        elif isinstance(spec, MaxPoolSpec):
            if h < 2 or w < 2:
                raise ValueError(f"spatial size {h}x{w} too small for 2x2 pooling")
            if layers and isinstance(layers[-1], ReLULayer):
                layers.insert(-1, MaxPoolLayer())  # the ReLU then sees a quarter of the elements
            else:
                layers.append(MaxPoolLayer())
            h, w = h // 2, w // 2
        elif isinstance(spec, GlobalAvgPoolSpec):
            layers.append(GlobalAvgPoolLayer())
            h = w = 1
        elif isinstance(spec, FlattenSpec):
            layers.append(FlattenLayer())
            flat_features = c * h * w
        else:  # DenseSpec: validate_model_spec allows nothing else here
            weights = (rng.normal(size=(flat_features, spec.out_features))
                       * np.sqrt(2.0 / flat_features)).astype(dtype)
            bias = np.zeros(spec.out_features, dtype=dtype)
            layers.append(DenseLayer(weights, bias))
            flat_features = spec.out_features
    if flat_features != class_count:
        raise ValueError(
            f"final feature count {flat_features} does not match class count {class_count}"
        )
    return Network(layers, SoftmaxCrossEntropy(), dtype)


def kernel_magnitude_matrix(w: np.ndarray) -> np.ndarray:
    """Channel-averaged absolute kernel weights, normalized to mean 1.

    Shows where a trained kernel concentrates its magnitude spatially. A
    tensor holding inf or NaN has no such profile and raises ``ValueError``.
    """
    w = np.asarray(w)
    if w.ndim != 4:
        raise ValueError(f"expected a conv weight tensor, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("conv weight tensor holds non-finite values; no magnitude profile")
    magnitude = np.abs(w).mean(axis=(0, 1))
    mean = magnitude.mean()
    if mean == 0:
        raise ValueError("degenerate all-zero weight tensor has no magnitude profile")
    return magnitude / mean
