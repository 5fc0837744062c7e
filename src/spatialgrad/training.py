"""The training loop: warm-up, periodic scaling refresh, scaled updates, metrics.

Per epoch: if spatial scaling is enabled and the epoch is past warm-up on the
refresh cadence, sample a few batches, capture each convolution's input
feature map in evaluation mode, and rebuild the per-layer scaling matrices.
Every optimizer step then multiplies each conv weight gradient by its layer's
scaling at the configured position; 1x1 convolutions get the uniform scaling,
and biases, dense layers and batch-norm parameters are never scaled.

Runs are bitwise deterministic for a given config and seed: weight init,
batch shuffling, and refresh sampling draw from three separate child streams
of the run seed, so enabling an analytic scaling measure does not perturb the
data order.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import dependence
from .data import LabeledDataset
from .dependence import BinningConfig, EstimatorError
from .layers import ConvLayer
from .network import Network, build_network, parameter_name
from .optim import OptimizerConfig, make_state, step
from .reparam import MASK_FAMILIES, standard_mask_sets
from .scaling import DEFAULT_EPSILON_FLOOR, ScalingMatrix, finalize, from_masks, k_transform

logger = logging.getLogger(__name__)

MEASURES = ("mi", "autocorr", "alpha_beta", "fixed", "masks")

# One refresh: conv layer index -> (dependence matrix or None, scaling matrix).
Refresh = dict[int, tuple[dependence.SpatialDependenceMatrix | None, ScalingMatrix]]


class TrainingDivergedError(RuntimeError):
    """Training hit a non-finite loss or parameter gradient and was aborted."""


@dataclass
class SgsSettings:
    enabled: bool = True
    measure: str = "mi"
    k: float = 5.0
    refresh_every: int = 5
    refresh_batches: int = 2
    warmup_epochs: int = 1
    bins: int = BinningConfig.bins
    epsilon_floor: float = DEFAULT_EPSILON_FLOOR
    redundancy_filter: float | str | None = None
    scaling_position: str = "pre"
    alpha: float = 1.0
    beta: float = 1.0
    fixed_values: np.ndarray | None = None
    mask_family: str = "acb"

    def __post_init__(self) -> None:
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}, expected one of {MEASURES}")
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.refresh_every < 1 or self.refresh_batches < 1:
            raise ValueError("refresh_every and refresh_batches must be >= 1")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be >= 0")
        if self.scaling_position not in ("pre", "post"):
            raise ValueError("scaling_position must be 'pre' or 'post'")
        BinningConfig(bins=self.bins, redundancy_filter=self.redundancy_filter)
        if not self.epsilon_floor >= 0:
            raise ValueError(f"epsilon_floor must be >= 0, got {self.epsilon_floor}")
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError(f"alpha and beta must be positive, "
                             f"got alpha={self.alpha}, beta={self.beta}")
        if self.fixed_values is not None:
            ScalingMatrix(self.fixed_values)
        if self.mask_family not in MASK_FAMILIES:
            raise ValueError(f"unknown mask_family {self.mask_family!r}, "
                             f"expected one of {MASK_FAMILIES}")

    @property
    def needs_feature_maps(self) -> bool:
        return self.measure in ("mi", "autocorr")


@dataclass
class TrainingConfig:
    epochs: int
    batch_size: int
    lr: float
    schedule: str = "constant"  # constant | cosine
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 0
    precision: int = 64
    sgs: SgsSettings = field(default_factory=SgsSettings)

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.schedule not in ("constant", "cosine"):
            raise ValueError("schedule must be 'constant' or 'cosine'")
        if self.precision not in (32, 64):
            raise ValueError("precision must be 32 or 64")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def dtype(self):
        return np.float64 if self.precision == 64 else np.float32

    def lr_at(self, epoch: int) -> float:
        """The epoch's learning rate: ``lr``, or ``lr`` cosine-annealed over ``epochs``."""
        if self.schedule == "constant":
            return self.lr
        return self.lr * (1.0 + math.cos(math.pi * epoch / self.epochs)) / 2.0


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float
    eval_acc: float
    wall_seconds: float


@dataclass
class TrainResult:
    metrics: list[EpochMetrics]
    network: Network
    refreshes: list[tuple[int, Refresh]]  # (epoch, that epoch's refresh), in order

    def final_weights(self) -> dict[str, np.ndarray]:
        return self.network.named_weights()


def _uniform_for(layer: ConvLayer) -> ScalingMatrix:
    return ScalingMatrix.uniform(layer.spec.kernel)


def _analytic_scaling(layer: ConvLayer, sgs: SgsSettings) -> ScalingMatrix:
    kernel = layer.spec.kernel
    if sgs.measure == "fixed":
        if sgs.fixed_values is None:
            return ScalingMatrix.uniform(kernel)
        values = np.asarray(sgs.fixed_values, dtype=np.float64)
        if values.shape != kernel:
            raise EstimatorError(
                f"fixed scaling shape {values.shape} does not match kernel {kernel}"
            )
        return ScalingMatrix(values)
    if sgs.measure == "alpha_beta":
        if kernel != (3, 3):
            raise EstimatorError(f"alpha/beta scaling is 3x3 only, layer kernel is {kernel}")
        return dependence.alpha_beta_scaling(sgs.alpha, sgs.beta)
    if sgs.measure == "masks":
        try:
            masks = standard_mask_sets(kernel, sgs.mask_family)
        except ValueError as exc:
            raise EstimatorError(str(exc)) from exc
        normalized, _ = from_masks(masks)
        return normalized
    raise AssertionError(f"not an analytic measure: {sgs.measure}")


def _estimated_scaling(maps: Sequence[np.ndarray], layer: ConvLayer, sgs: SgsSettings,
                       ) -> tuple[dependence.SpatialDependenceMatrix, ScalingMatrix]:
    kernel = layer.spec.kernel
    if sgs.measure == "mi":
        cfg = BinningConfig(bins=sgs.bins, redundancy_filter=sgs.redundancy_filter)
        s = dependence.spatial_dependence_mi(maps, kernel, cfg)
    else:
        s = dependence.spatial_dependence_autocorr(maps, kernel)
    return s, finalize(k_transform(s.values, sgs.k), sgs.epsilon_floor)


def _capture_feature_maps(net: Network, dataset: LabeledDataset, sgs: SgsSettings,
                          rng: np.random.Generator, batch_size: int,
                          ) -> dict[int, list[np.ndarray]]:
    captured: dict[int, list[np.ndarray]] = {i: [] for i in net.conv_indices}
    n = len(dataset)
    take = min(n, sgs.refresh_batches * batch_size)
    order = rng.choice(n, size=take, replace=False)
    for start in range(0, take, batch_size):
        batch_idx = order[start : start + batch_size]
        capture: dict[int, np.ndarray] = {}
        net.forward(dataset.images[batch_idx], train=False, capture_conv_inputs=capture)
        for layer_idx, fmap in capture.items():
            captured[layer_idx].append(fmap)
    return captured


def inspect_scalings(net: Network, dataset: LabeledDataset, sgs: SgsSettings,
                     rng: np.random.Generator, batch_size: int) -> Refresh:
    """Per-conv-layer (dependence matrix, scaling matrix) without any training.

    Estimator-backed measures sample ``refresh_batches`` random batches and
    forward them in evaluation mode, recording each conv layer's input feature
    map. Analytic measures have no dependence matrix and report ``None``
    there. A per-layer estimator failure (degenerate or non-finite maps,
    undersized spatial extent, mismatched analytic kernel) degrades that layer
    to the uniform scaling, with no dependence matrix, and a warning; a
    refresh never aborts the run.
    """
    captured: dict[int, list[np.ndarray]] = {}
    if sgs.needs_feature_maps:
        captured = _capture_feature_maps(net, dataset, sgs, rng, batch_size)
    out: Refresh = {}
    for layer_idx in net.conv_indices:
        layer = net.layers[layer_idx]
        assert isinstance(layer, ConvLayer)
        if layer.spec.kernel == (1, 1):
            out[layer_idx] = (None, _uniform_for(layer))
            continue
        try:
            if sgs.needs_feature_maps:
                out[layer_idx] = _estimated_scaling(captured[layer_idx], layer, sgs)
            else:
                out[layer_idx] = (None, _analytic_scaling(layer, sgs))
        except EstimatorError as exc:
            logger.warning("layer %d: %s; falling back to uniform scaling", layer_idx, exc)
            out[layer_idx] = (None, _uniform_for(layer))
    return out


def refresh_scalings(net: Network, dataset: LabeledDataset, sgs: SgsSettings,
                     rng: np.random.Generator, batch_size: int) -> Refresh:
    """The trainer's refresh: ``inspect_scalings``, returned unchanged.

    It adds nothing to ``inspect_scalings``. It stays a separate name only
    because the benchmark's tracer (``bench/tracing.py``) wraps it to count
    and time the refreshes ``train`` makes.
    """
    return inspect_scalings(net, dataset, sgs, rng, batch_size)


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def build_run(model_spec: list, input_shape: tuple[int, ...], class_count: int,
              cfg: TrainingConfig) -> tuple[Network, np.random.Generator, np.random.Generator]:
    """A run's network and its shuffle and refresh generators.

    The run seed spawns three child streams, in the order weight init, batch
    shuffling, refresh sampling; the first one is spent on the network.
    """
    init_seed, shuffle_seed, refresh_seed = np.random.SeedSequence(cfg.seed).spawn(3)
    net = build_network(model_spec, input_shape, class_count,
                        np.random.default_rng(init_seed), cfg.dtype)
    return net, np.random.default_rng(shuffle_seed), np.random.default_rng(refresh_seed)


def train(model_spec: list, train_ds: LabeledDataset, eval_ds: LabeledDataset,
          cfg: TrainingConfig) -> TrainResult:
    """Run the full training loop; see the module docstring for the shape of it."""
    dtype = cfg.dtype
    train_ds = train_ds.astype(dtype)
    eval_ds = eval_ds.astype(dtype)
    if train_ds.class_count < 2:
        raise ValueError("training needs a dataset with at least 2 classes")
    if len(train_ds) == 0:
        raise ValueError("the training set is empty; the epoch loss would divide by zero")
    if len(eval_ds) == 0:
        raise ValueError("the eval set is empty; eval accuracy would divide by zero")

    net, shuffle_rng, refresh_rng = build_run(model_spec, train_ds.images.shape[1:],
                                              train_ds.class_count, cfg)

    opt_states = {
        (idx, name): make_state(cfg.optimizer, value)
        for idx, _, name, value in net.parameters()
    }
    sgs = cfg.sgs

    # (conv layer index, "W") -> the layer's scaling, keyed like ``opt_states``.
    scaling_values: dict[tuple[int, str], np.ndarray] = {}
    refreshes: list[tuple[int, Refresh]] = []
    metrics: list[EpochMetrics] = []

    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        if sgs.enabled and epoch >= sgs.warmup_epochs \
                and (epoch - sgs.warmup_epochs) % sgs.refresh_every == 0:
            refresh = refresh_scalings(net, train_ds, sgs, refresh_rng, cfg.batch_size)
            scaling_values = {
                (idx, "W"): np.asarray(m.values, dtype=dtype) for idx, (_, m) in refresh.items()
            }
            refreshes.append((epoch, refresh))

        lr = cfg.lr_at(epoch)
        loss_sum = 0.0
        hit = 0
        seen = 0
        for batch_idx in _batches(len(train_ds), cfg.batch_size, shuffle_rng):
            x = train_ds.images[batch_idx]
            labels = train_ds.labels[batch_idx]
            value, probs = net.loss(x, labels, train=True)
            if not np.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite loss {value} at epoch {epoch}, sample offset {seen}"
                )
            net.backward(net.head.grad())
            params = list(net.parameters())
            for idx, layer, name, _ in params:
                if not np.isfinite(layer.grads[name]).all():
                    raise TrainingDivergedError(
                        f"non-finite gradient of {parameter_name(idx, layer, name)} "
                        f"with finite loss {value} at epoch {epoch}, sample offset {seen}"
                    )
            loss_sum += value * len(batch_idx)
            hit += int((probs.argmax(axis=1) == labels).sum())
            seen += len(batch_idx)
            for idx, layer, name, value_arr in params:
                layer.params[name] = step(opt_states[(idx, name)], value_arr, layer.grads[name],
                                          lr=lr, scaling=scaling_values.get((idx, name)),
                                          position=sgs.scaling_position)

        eval_hit = 0
        for start in range(0, len(eval_ds), cfg.batch_size):
            x = eval_ds.images[start : start + cfg.batch_size]
            labels = eval_ds.labels[start : start + cfg.batch_size]
            eval_hit += int((net.predict(x) == labels).sum())
        metrics.append(EpochMetrics(
            epoch=epoch,
            train_loss=loss_sum / seen,
            train_acc=hit / seen,
            eval_acc=eval_hit / len(eval_ds),
            wall_seconds=time.perf_counter() - t0,
        ))
    return TrainResult(metrics=metrics, network=net, refreshes=refreshes)

