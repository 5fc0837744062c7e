"""The training loop: warm-up, periodic scaling refresh, scaled updates, metrics.

A run is one ``Run`` value: ``build_run`` makes it, ``train_step`` steps it on
one batch, ``run_epoch`` runs its next epoch, and ``train`` returns it.

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
from .network import Network, build_network, parameter_name
from .optim import OptimizerConfig, OptimizerState, make_state, step
from .reparam import MASK_FAMILIES, standard_mask_sets
from .scaling import DEFAULT_EPSILON_FLOOR, ScalingMatrix, finalize, from_masks, k_transform

logger = logging.getLogger(__name__)

_ESTIMATED = ("mi", "autocorr")  # the measures that read captured feature maps
MEASURES = (*_ESTIMATED, "alpha_beta", "fixed", "masks")

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
        if not 0 < self.k < math.inf:
            raise ValueError(f"k must be positive and finite, got {self.k}")
        if self.refresh_every < 1 or self.refresh_batches < 1:
            raise ValueError("refresh_every and refresh_batches must be >= 1")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be >= 0")
        if self.scaling_position not in ("pre", "post"):
            raise ValueError("scaling_position must be 'pre' or 'post'")
        BinningConfig(bins=self.bins, redundancy_filter=self.redundancy_filter)
        if not 0 <= self.epsilon_floor < math.inf:
            raise ValueError(f"epsilon_floor must be >= 0 and finite, got {self.epsilon_floor}")
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ValueError(f"alpha and beta must be positive and finite, "
                             f"got alpha={self.alpha}, beta={self.beta}")
        if self.fixed_values is not None:
            ScalingMatrix(self.fixed_values)
        if self.mask_family not in MASK_FAMILIES:
            raise ValueError(f"unknown mask_family {self.mask_family!r}, "
                             f"expected one of {MASK_FAMILIES}")


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
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
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
class Run:
    """One training run's whole state, from ``build_run`` through its epochs."""

    cfg: TrainingConfig
    network: Network
    opt_states: dict[tuple[int, str], OptimizerState]  # keyed (layer index, parameter name)
    shuffle_rng: np.random.Generator
    refresh_rng: np.random.Generator
    scalings: dict[tuple[int, str], np.ndarray] = field(default_factory=dict)  # (conv, "W")
    metrics: list[EpochMetrics] = field(default_factory=list)
    refreshes: list[tuple[int, Refresh]] = field(default_factory=list)  # (epoch, refresh)

    @property
    def epoch(self) -> int:  # the next epoch to run
        return len(self.metrics)

    def final_weights(self) -> dict[str, np.ndarray]:
        return self.network.named_weights()


def _layer_scaling(kernel: tuple[int, int], sgs: SgsSettings,
                   maps: Sequence[np.ndarray] | None,
                   ) -> tuple[dependence.SpatialDependenceMatrix | None, ScalingMatrix]:
    """One conv layer's (dependence matrix or None, scaling matrix) under ``sgs``.

    A 1x1 kernel gets the uniform scaling. ``mi`` and ``autocorr`` estimate
    the dependence matrix from ``maps``, the layer's captured inputs, and
    k-transform it; the analytic measures build the scaling from ``sgs`` and
    the kernel alone, with no dependence matrix. ``EstimatorError`` means the
    layer cannot have the measure's scaling.
    """
    if kernel == (1, 1):
        return None, ScalingMatrix.uniform(kernel)
    if sgs.measure in _ESTIMATED:
        if sgs.measure == "mi":
            cfg = BinningConfig(bins=sgs.bins, redundancy_filter=sgs.redundancy_filter)
            dep = dependence.spatial_dependence_mi(maps, kernel, cfg)
        else:
            dep = dependence.spatial_dependence_autocorr(maps, kernel)
        return dep, finalize(k_transform(dep.values, sgs.k), sgs.epsilon_floor)
    if sgs.measure == "alpha_beta":
        if kernel != (3, 3):
            raise EstimatorError(f"alpha/beta scaling is 3x3 only, layer kernel is {kernel}")
        return None, dependence.alpha_beta_scaling(sgs.alpha, sgs.beta)
    if sgs.measure == "masks":
        try:
            masks = standard_mask_sets(kernel, sgs.mask_family)
        except ValueError as exc:
            raise EstimatorError(str(exc)) from exc
        return None, from_masks(masks)[0]
    # measure == "fixed"
    if sgs.fixed_values is None:
        return None, ScalingMatrix.uniform(kernel)
    values = np.asarray(sgs.fixed_values, dtype=np.float64)
    if values.shape != kernel:
        raise EstimatorError(f"fixed scaling shape {values.shape} does not match kernel {kernel}")
    return None, ScalingMatrix(values)


def _batches(order: np.ndarray, batch_size: int):
    """Consecutive ``batch_size`` slices of the index array ``order``."""
    for start in range(0, len(order), batch_size):
        yield order[start : start + batch_size]


def _capture_feature_maps(net: Network, dataset: LabeledDataset, sgs: SgsSettings,
                          rng: np.random.Generator, batch_size: int,
                          ) -> dict[int, list[np.ndarray]]:
    captured: dict[int, list[np.ndarray]] = {i: [] for i in net.conv_indices}
    n = len(dataset)
    take = min(n, sgs.refresh_batches * batch_size)
    for batch_idx in _batches(rng.choice(n, size=take, replace=False), batch_size):
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
    if sgs.measure in _ESTIMATED:  # only a capture draws from ``rng``
        captured = _capture_feature_maps(net, dataset, sgs, rng, batch_size)
    out: Refresh = {}
    for layer_idx in net.conv_indices:
        kernel = net.layers[layer_idx].spec.kernel
        try:
            out[layer_idx] = _layer_scaling(kernel, sgs, captured.get(layer_idx))
        except EstimatorError as exc:
            logger.warning("layer %d: %s; falling back to uniform scaling", layer_idx, exc)
            out[layer_idx] = (None, ScalingMatrix.uniform(kernel))
    return out


def refresh_scalings(net: Network, dataset: LabeledDataset, sgs: SgsSettings,
                     rng: np.random.Generator, batch_size: int) -> Refresh:
    """The trainer's refresh: ``inspect_scalings``, returned unchanged.

    It adds nothing to ``inspect_scalings``. It stays a separate name only
    because the benchmark's tracer (``bench/tracing.py``) wraps it to count
    and time the refreshes ``train`` makes.
    """
    return inspect_scalings(net, dataset, sgs, rng, batch_size)


def build_run(model_spec: list, input_shape: tuple[int, ...], class_count: int,
              cfg: TrainingConfig) -> Run:
    """A fresh run: its network, optimizer states, and shuffle and refresh generators.

    The run seed spawns three child streams, in the order weight init, batch
    shuffling, refresh sampling; the first one is spent on the network.
    """
    init_seed, shuffle_seed, refresh_seed = np.random.SeedSequence(cfg.seed).spawn(3)
    net = build_network(model_spec, input_shape, class_count,
                        np.random.default_rng(init_seed), cfg.dtype)
    return Run(cfg, net, {(idx, name): make_state(cfg.optimizer, value)
                          for idx, _, name, value in net.parameters()},
               np.random.default_rng(shuffle_seed), np.random.default_rng(refresh_seed))


def train_step(run: Run, x: np.ndarray, labels: np.ndarray, offset: int) -> tuple[float, int]:
    """One batch of the current epoch: forward, backward, every parameter's scaled
    step; returns (loss, hits). ``offset`` is the batch's first sample in the epoch."""
    net, epoch = run.network, run.epoch
    value, probs = net.loss(x, labels, train=True)
    if not np.isfinite(value):
        raise TrainingDivergedError(f"non-finite loss {value} at epoch {epoch}, "
                                    f"sample offset {offset}")
    net.backward(net.head.grad())
    params = list(net.parameters())
    for idx, layer, name, _ in params:
        if not np.isfinite(layer.grads[name]).all():
            raise TrainingDivergedError(
                f"non-finite gradient of {parameter_name(idx, layer, name)} "
                f"with finite loss {value} at epoch {epoch}, sample offset {offset}"
            )
    lr = run.cfg.lr_at(epoch)
    for idx, layer, name, value_arr in params:
        layer.params[name] = step(run.opt_states[(idx, name)], value_arr, layer.grads[name],
                                  lr=lr, scaling=run.scalings.get((idx, name)),
                                  position=run.cfg.sgs.scaling_position)
    return value, int((probs.argmax(axis=1) == labels).sum())


def run_epoch(run: Run, train_ds: LabeledDataset, eval_ds: LabeledDataset) -> EpochMetrics:
    """The run's next epoch: the due refresh, a ``train_step`` per shuffled batch, then
    the eval; appends its metrics to the run. Bad datasets raise before the refresh."""
    if train_ds.class_count < 2:
        raise ValueError("training needs a dataset with at least 2 classes")
    if len(train_ds) == 0:
        raise ValueError("the training set is empty; the epoch loss would divide by zero")
    if len(eval_ds) == 0:
        raise ValueError("the eval set is empty; eval accuracy would divide by zero")
    cfg, sgs, epoch = run.cfg, run.cfg.sgs, run.epoch
    t0 = time.perf_counter()
    if sgs.enabled and epoch >= sgs.warmup_epochs \
            and (epoch - sgs.warmup_epochs) % sgs.refresh_every == 0:
        refresh = refresh_scalings(run.network, train_ds, sgs, run.refresh_rng, cfg.batch_size)
        run.scalings = {(idx, "W"): np.asarray(m.values, dtype=cfg.dtype)
                        for idx, (_, m) in refresh.items()}
        run.refreshes.append((epoch, refresh))

    loss_sum, hit, seen = 0.0, 0, 0
    for batch_idx in _batches(run.shuffle_rng.permutation(len(train_ds)), cfg.batch_size):
        value, hits = train_step(run, train_ds.images[batch_idx], train_ds.labels[batch_idx],
                                 seen)
        loss_sum += value * len(batch_idx)
        hit += hits
        seen += len(batch_idx)

    eval_hit = 0
    for batch_idx in _batches(np.arange(len(eval_ds)), cfg.batch_size):
        eval_hit += int((run.network.predict(eval_ds.images[batch_idx])
                         == eval_ds.labels[batch_idx]).sum())
    run.metrics.append(EpochMetrics(
        epoch=epoch,
        train_loss=loss_sum / seen,
        train_acc=hit / seen,
        eval_acc=eval_hit / len(eval_ds),
        wall_seconds=time.perf_counter() - t0,
    ))
    return run.metrics[-1]


def train(model_spec: list, train_ds: LabeledDataset, eval_ds: LabeledDataset,
          cfg: TrainingConfig) -> Run:
    """Build a run and train it for ``cfg.epochs``; see the module docstring."""
    run = build_run(model_spec, train_ds.images.shape[1:], train_ds.class_count, cfg)
    while run.epoch < cfg.epochs:
        run_epoch(run, train_ds, eval_ds)
    return run
