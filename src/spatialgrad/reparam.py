"""Masked N-branch convolutions and the lockstep equivalence harness.

A convolution can be rewritten as a sum of parallel branches, each a copy of
the kernel silenced outside a binary receptive-field mask. The forward maps
are identical; the learning dynamics are not. For optimizers in the linear
family, training the branched form and merging is exactly the same trajectory
as training the single convolution with its gradient scaled by the coverage
matrix (the per-position count of covering branches). ``equivalence_run``
trains both representations side by side on identical data and reports their
weight divergence so that claim can be machine-checked rather than trusted.
``split_init`` builds the branches from a conv's weights in one ordered pass,
in the weights' dtype, so that their ordered merge is those weights bitwise.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .conv import (
    ConvSpec,
    conv_backward_input,
    conv_backward_weights,
    conv_forward,
    grad_im2col,
    im2col,
)
from .optim import OptimizerConfig, OptimizerState, make_state, step
from .scaling import from_masks

logger = logging.getLogger(__name__)

MASK_FAMILIES = ("acb", "full_plus_center", "all_rectangles", "random")

# The lockstep twins of ``equivalence_run``: conv(2 -> 3 channels), relu,
# conv(3 -> 2 channels), trained on batches of 4 random 8x8 images.
_IN_CHANNELS, _HIDDEN_CHANNELS, _OUT_CHANNELS = 2, 3, 2
_BATCH, _HEIGHT, _WIDTH = 4, 8, 8


@dataclass
class Branch:
    mask: np.ndarray
    weights: np.ndarray


@dataclass
class BranchedConv:
    """Parallel masked branches sharing one ConvSpec and kernel shape."""

    branches: list[Branch]
    spec: ConvSpec

    def __post_init__(self) -> None:
        if not self.branches:
            raise ValueError("a branched convolution needs at least one branch")
        for branch in self.branches:
            if branch.mask.shape != self.spec.kernel:
                raise ValueError(
                    f"mask shape {branch.mask.shape} does not match kernel {self.spec.kernel}"
                )
            if branch.weights.shape != self.spec.weight_shape:
                raise ValueError(
                    f"branch weight shape {branch.weights.shape}, "
                    f"expected {self.spec.weight_shape}"
                )

    def merged_weights(self) -> np.ndarray:
        """Sum of masked branch weights, accumulated in branch order."""
        merged = np.zeros_like(self.branches[0].weights)
        for branch in self.branches:
            merged += branch.mask * branch.weights
        return merged


def split_init(w_base: np.ndarray, masks: Sequence[np.ndarray], spec: ConvSpec) -> BranchedConv:
    """Split base weights over masked branches so the merge reproduces them exactly.

    One ordered pass over the masks, in the dtype of ``w_base``: each branch
    takes the equal share ``w_base / coverage`` at every position it covers,
    except where no later mask covers the position. There it takes the
    complement of the ordered partial sum of the earlier branches instead of
    its rounded share, so the ordered merge reproduces ``w_base`` bitwise.
    """
    w_base = np.asarray(w_base)
    if w_base.shape != spec.weight_shape:
        raise ValueError(f"base weight shape {w_base.shape}, expected {spec.weight_shape}")
    _, later = from_masks(masks)  # the coverage; raises naming any uncovered position
    if later.shape != spec.kernel:
        raise ValueError(f"mask shape {later.shape} does not match kernel {spec.kernel}")
    equal_share = w_base / later.astype(w_base.dtype)
    partial = np.zeros_like(w_base)
    branches = []
    for m in masks:
        mask = np.array(m, dtype=w_base.dtype)
        later -= mask > 0  # now counts the covering masks after this one
        weights = np.where((mask > 0) & (later == 0), w_base - partial, equal_share * mask)
        partial += mask * weights
        branches.append(Branch(mask=mask, weights=weights))
    conv = BranchedConv(branches=branches, spec=spec)
    if not np.array_equal(conv.merged_weights(), w_base):
        raise AssertionError("branch split failed to reproduce the base weights exactly")
    return conv


def branched_forward(conv: BranchedConv, cols: np.ndarray) -> np.ndarray:
    """Sum of the branch convolutions, evaluated branch by branch over one window matrix.

    ``cols`` is the input's window matrix ``im2col(x, conv.spec)``
    [N, Ci*kx*ky, H', W'], built once by the caller and shared by every
    branch, as for ``branched_backward_step``.
    """
    out = None
    for branch in conv.branches:
        y = conv_forward(cols, branch.mask * branch.weights, conv.spec)
        out = y if out is None else out + y
    return out


def branched_backward_input(conv: BranchedConv, dy: np.ndarray,
                            input_hw: tuple[int, int]) -> np.ndarray:
    """Sum of the branch input gradients, evaluated branch by branch over one dY matrix.

    The gather or row path's window matrix of dY depends on dY and the spec
    only, so it is built once (``grad_im2col``) and passed to every branch's
    ``conv_backward_input``; each branch still makes its own call and GEMM,
    and the sum runs in branch order. A scatter spec has no such matrix, and
    each branch scatters on its own.
    """
    cols = grad_im2col(dy, conv.spec, input_hw)
    out = None
    for branch in conv.branches:
        dx = conv_backward_input(dy, branch.mask * branch.weights, conv.spec, input_hw,
                                 cols=cols)
        out = dx if out is None else out + dx
    return out


def branched_backward_step(conv: BranchedConv, cols: np.ndarray, dy: np.ndarray,
                           states: Sequence[OptimizerState], lr: float) -> None:
    """One independent optimizer step per branch.

    ``cols`` is the forward's window matrix ``im2col(x, conv.spec)``, as for
    ``conv_backward_weights``. The shared kernel gradient is computed once
    (it depends only on that matrix and the output gradient) and each branch
    receives its masked view, so unmasked positions see zero gradient and
    stay zero forever.
    """
    if len(states) != len(conv.branches):
        raise ValueError(f"{len(conv.branches)} branches but {len(states)} optimizer states")
    g = conv_backward_weights(dy, cols, conv.spec)
    for branch, state in zip(conv.branches, states):
        branch.weights = step(state, branch.weights, branch.mask * g, lr=lr)


def standard_mask_sets(kernel: tuple[int, int], family: str, count: int | None = None,
                       seed: int = 0) -> list[np.ndarray]:
    """Named mask families over a kernel shape.

    ``acb``: full kernel plus its middle row and middle column.
    ``full_plus_center``: full kernel plus the 1x1 center.
    ``all_rectangles``: every centerd odd a x b rectangle (odd kernels only).
    ``random``: ``count`` (at least 1, default 3) random non-empty masks plus
    the full mask, which forces full coverage; deterministic per seed.
    Only ``random`` reads ``count``: one given with another family is logged
    as a warning and ignored.
    """
    kx, ky = kernel
    if kx < 1 or ky < 1:
        raise ValueError(f"kernel dims must be >= 1, got {kernel}")
    if count is not None and family != "random" and family in MASK_FAMILIES:
        logger.warning("mask count %s is ignored: mask family %r has no count", count, family)
    full = np.ones(kernel)
    if family == "acb":
        if kx % 2 == 0 or ky % 2 == 0:
            raise ValueError(f"acb masks need odd kernel dims, got {kernel}")
        row = np.zeros(kernel)
        row[kx // 2, :] = 1
        col = np.zeros(kernel)
        col[:, ky // 2] = 1
        return [full, row, col]
    if family == "full_plus_center":
        center = np.zeros(kernel)
        center[kx // 2, ky // 2] = 1
        return [full, center]
    if family == "all_rectangles":
        if kx % 2 == 0 or ky % 2 == 0:
            raise ValueError(f"all_rectangles needs odd kernel dims, got {kernel}")
        masks = []
        for a in range(1, kx + 1, 2):
            for b in range(1, ky + 1, 2):
                m = np.zeros(kernel)
                r0 = (kx - a) // 2
                c0 = (ky - b) // 2
                m[r0 : r0 + a, c0 : c0 + b] = 1
                masks.append(m)
        return masks
    if family == "random":
        count = 3 if count is None else count
        if count < 1:
            raise ValueError(f"random masks need a count >= 1, got {count}")
        rng = np.random.default_rng(seed)
        masks = []
        for _ in range(count):
            m = (rng.random(kernel) < 0.5).astype(np.float64)
            while not m.any():
                m = (rng.random(kernel) < 0.5).astype(np.float64)
            masks.append(m)
        masks.append(full)
        return masks
    raise ValueError(f"unknown mask family {family!r}, expected one of {MASK_FAMILIES}")


@dataclass
class DivergenceReport:
    """Per-step weight divergence between the branched and scaled trainees."""

    steps: list[int] = field(default_factory=list)
    max_rel: list[float] = field(default_factory=list)
    mean_rel: list[float] = field(default_factory=list)
    diverged_numerically: bool = False

    @property
    def max_divergence(self) -> float:
        return max(self.max_rel) if self.max_rel else 0.0

    def record(self, step_idx: int, pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> None:
        max_rs = []
        mean_rs = []
        for merged, single in pairs:
            if not (np.isfinite(merged).all() and np.isfinite(single).all()):
                self.diverged_numerically = True
                max_rs.append(np.inf)
                mean_rs.append(np.inf)
                continue
            scale = max(float(np.abs(single).max()), 1e-300)
            diff = np.abs(merged - single)
            max_rs.append(float(diff.max()) / scale)
            mean_rs.append(float(diff.mean()) / scale)
        self.steps.append(step_idx)
        self.max_rel.append(float(np.max(max_rs)))
        self.mean_rel.append(float(np.mean(mean_rs)))


def equivalence_run(masks: Sequence[np.ndarray], optimizer: OptimizerConfig, steps: int,
                    seed: int, kernel: tuple[int, int], lr: float) -> DivergenceReport:
    """Train a branched twin and a gradient-scaled twin in lockstep.

    Both sides are two-layer convolutional regressors (conv, relu, conv,
    mean-squared loss) consuming identical random data. The branched side
    splits every conv over ``masks`` and steps each branch independently; the
    single side scales each conv gradient by the raw coverage matrix (the
    plain mask sum: the equivalence statement uses the unnormalized count).
    Divergence of the merged branched weights from the single weights is
    recorded after every step. A non-linear optimizer runs the same way, but
    no equivalence is guaranteed there; the caller reads
    ``optimizer.is_linear`` to know whether the divergence is a verdict.
    ``kernel`` (square, odd side) and ``lr`` have no defaults here: the
    ``verify-equivalence`` command's ``--kernel`` and ``--lr`` hold them.

    Each step builds one window matrix per conv input, the only input of that
    conv's forward and weight gradient: the matrix of ``x`` serves both twins'
    first conv (they receive the same ``x`` by design, and the matrix is
    read-only, so sharing it couples no state), and each twin's hidden
    activation has its own. Each is released after its last use. The input
    gradient of the second conv builds one matrix of its dY per twin:
    ``branched_backward_input`` shares its matrix among the branches, and the
    scaled twin's single call builds its own.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0 < lr < np.inf:
        raise ValueError(f"lr must be positive and finite, got {lr}")
    kx, ky = kernel
    if kx != ky or kx < 1 or kx % 2 == 0:
        raise ValueError(f"kernel must be square with a positive odd side, got {kernel}")
    _, coverage = from_masks(masks)
    pad = kx // 2
    spec1 = ConvSpec(_IN_CHANNELS, _HIDDEN_CHANNELS, kernel, stride=1, padding=pad)
    spec2 = ConvSpec(_HIDDEN_CHANNELS, _OUT_CHANNELS, kernel, stride=1, padding=pad)

    rng = np.random.default_rng(seed)
    w1 = rng.normal(0.0, np.sqrt(2.0 / (_IN_CHANNELS * kx * ky)), size=spec1.weight_shape)
    w2 = rng.normal(0.0, np.sqrt(2.0 / (_HIDDEN_CHANNELS * kx * ky)), size=spec2.weight_shape)

    branched1 = split_init(w1, masks, spec1)
    branched2 = split_init(w2, masks, spec2)
    states_b1 = [make_state(optimizer, w1) for _ in masks]
    states_b2 = [make_state(optimizer, w2) for _ in masks]

    single1, single2 = w1.copy(), w2.copy()
    state_s1 = make_state(optimizer, w1)
    state_s2 = make_state(optimizer, w2)
    raw_scaling = coverage.astype(np.float64)

    report = DivergenceReport()
    # Overflow is a legitimate outcome (too-hot lr for a heavy mask family);
    # it is detected by the finiteness check and flagged, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            x = rng.normal(size=(_BATCH, _IN_CHANNELS, _HEIGHT, _WIDTH))
            target = rng.normal(size=(_BATCH, _OUT_CHANNELS, _HEIGHT, _WIDTH))

            # One window matrix of x for both twins' first conv.
            cols_x = im2col(x, spec1)

            # Branched twin: forward, backward through the branch sum, step branches.
            h1 = branched_forward(branched1, cols_x)
            a1 = np.maximum(h1, 0.0)
            cols_a1 = im2col(a1, spec2)
            y = branched_forward(branched2, cols_a1)
            dy = (y - target) / y.size
            da1 = branched_backward_input(branched2, dy, (_HEIGHT, _WIDTH))
            dh1 = da1 * (h1 > 0)
            branched_backward_step(branched2, cols_a1, dy, states_b2, lr)
            del cols_a1
            branched_backward_step(branched1, cols_x, dh1, states_b1, lr)

            # Scaled twin: identical data, raw-coverage scaling on each conv gradient;
            # each conv input's window matrix serves its forward and weight gradient.
            h1s = conv_forward(cols_x, single1, spec1)
            a1s = np.maximum(h1s, 0.0)
            cols_a1s = im2col(a1s, spec2)
            ys = conv_forward(cols_a1s, single2, spec2)
            dys = (ys - target) / ys.size
            g2 = conv_backward_weights(dys, cols_a1s, spec2)
            del cols_a1s
            da1s = conv_backward_input(dys, single2, spec2, (_HEIGHT, _WIDTH))
            dh1s = da1s * (h1s > 0)
            g1 = conv_backward_weights(dh1s, cols_x, spec1)
            del cols_x
            single2 = step(state_s2, single2, g2, lr=lr, scaling=raw_scaling, position="pre")
            single1 = step(state_s1, single1, g1, lr=lr, scaling=raw_scaling, position="pre")

            report.record(t, [
                (branched1.merged_weights(), single1),
                (branched2.merged_weights(), single2),
            ])
            if report.diverged_numerically:
                # Everything from here on is non-finite; no verdict is possible.
                break
    return report
