"""Spatial dependence estimation on feature maps.

For every displacement (i, j) inside a kernel's receptive field we ask how
much a pixel tells us about its (i, j)-shifted neighbour. Pixel/neighbour
pairs are pooled over samples, channels, and positions from one or more
feature-map batches, then scored either by normalized mutual information over
a discrete joint histogram (primary) or by absolute Pearson autocorrelation
(ablation). Scores land in a kernel-shaped matrix with entries in [0, 1],
entry (a, b) holding the displacement (a - kx//2, b - ky//2). The pairs at -d
are the pairs at d swapped, so both estimators score each unordered {d, -d}
once, at the first of the two in row-major order, and -d takes d's result.

Both scores walk the maps the same way: ``_plane_blocks`` copies cache-sized
blocks of whole (sample, channel) planes plane-last, as [H, W, planes], so a
displacement's pixels and neighbours are runs of whole rows of planes and the
memory beyond the maps is one block's arrays. Every joint histogram, filtered
or not, is counted over that walk; the redundancy filter gives a dropped pair
a sentinel code past ``bins**2`` instead of compacting the kept pairs. The
autocorrelation accumulates its float64 moments over the same walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .scaling import KernelMatrix, ScalingMatrix


class EstimatorError(RuntimeError):
    """A dependence estimate could not be formed from the given feature maps."""


@dataclass(frozen=True)
class BinningConfig:
    """Histogram settings for the mutual-information estimator.

    The ``bins`` uniform bins span the pooled min/max of the maps being
    scored, so they follow the activations as they drift between refreshes.
    ``redundancy_filter`` is ``None`` (off) or ``"auto"``: drop the pairs
    whose values are closer than one bin width of that pooled range.
    """

    bins: int = 32
    redundancy_filter: str | None = None

    def __post_init__(self) -> None:
        if self.bins < 2:
            raise ValueError(f"bins must be >= 2, got {self.bins}")
        if self.redundancy_filter not in (None, "auto"):
            raise ValueError(f"redundancy_filter must be None or 'auto', "
                             f"got {self.redundancy_filter!r}")


@dataclass(frozen=True)
class SpatialDependenceMatrix(KernelMatrix):
    """Per-displacement dependence scores in [0, 1], kernel-shaped."""

    kind: ClassVar[str] = "dependence"

    def _check(self, values: np.ndarray) -> None:
        if not np.all((values >= 0) & (values <= 1)):
            raise ValueError("dependence values must lie in [0, 1]")


def _check_maps(feature_maps: Sequence[np.ndarray]) -> tuple[list, tuple[float, float]]:
    """The maps, checked map by map, and their pooled (min, max).

    Finiteness is read from each map's min and max, which a NaN also reaches."""
    if len(feature_maps) == 0:
        raise EstimatorError("no feature maps supplied")
    maps = []
    channels = None
    lo, hi = np.inf, -np.inf
    for idx, fm in enumerate(feature_maps):
        fm = np.asarray(fm)
        if fm.ndim != 4:
            raise ValueError(f"feature map {idx} must be rank-4, got shape {fm.shape}")
        if channels is None:
            channels = fm.shape[1]
        elif fm.shape[1] != channels:
            raise ValueError("feature maps must share a channel count")
        if fm.size:
            fm_lo, fm_hi = float(fm.min()), float(fm.max())
            if not (np.isfinite(fm_lo) and np.isfinite(fm_hi)):
                raise EstimatorError(f"feature map {idx} holds non-finite values")
            lo, hi = min(lo, fm_lo), max(hi, fm_hi)
        maps.append(fm)
    return maps, (lo, hi)


def _pair_slices(extent: tuple[int, ...], i: int, j: int) -> tuple[tuple, tuple]:
    """Index tuples selecting the pixels and their (i, j) neighbours on an (H, W, ...) grid."""
    h, w = extent[:2]
    if abs(i) >= h or abs(j) >= w:
        raise EstimatorError(
            f"displacement ({i}, {j}) exceeds spatial extent {h}x{w}"
        )
    hs, he = max(0, -i), h - max(0, i)
    ws, we = max(0, -j), w - max(0, j)
    return np.s_[hs:he, ws:we], np.s_[hs + i : he + i, ws + j : we + j]


def _bin_indices(values: np.ndarray, lo: float, hi: float, bins: int) -> np.ndarray:
    """Uniform bin index per value over [lo, hi]; hi lands in the last bin.

    A degenerate range (hi <= lo) maps everything to bin 0. The scaled value
    is clipped before the integer cast, so a value outside [lo, hi], however
    far, lands in an edge bin instead of overflowing the cast.
    """
    if hi <= lo:
        return np.zeros(values.shape, dtype=np.int64)
    return np.clip((values - lo) * (bins / (hi - lo)), 0, bins - 1).astype(np.int64)


def _resolve_delta(cfg: BinningConfig, lo: float, hi: float) -> float | None:
    """The filter threshold, one bin width of [lo, hi], or None with the filter off."""
    return None if cfg.redundancy_filter is None else (hi - lo) / cfg.bins


def _check_extents(maps: Sequence[np.ndarray], displacements) -> None:
    """Raise for the first displacement that some map's planes cannot hold."""
    for i, j in displacements:
        for fm in maps:
            _pair_slices(fm.shape[2:], i, j)


# Values per block of the plane walk: 2**16 keeps a block's int64 index and
# row-code arrays (1 MB together) inside a 2 MB L2 cache.
_BLOCK_VALUES = 1 << 16


def _plane_blocks(maps: Sequence[np.ndarray]):
    """Each map's (sample, channel) planes in blocks, each copied plane-last.

    A block holds at most ``_BLOCK_VALUES`` values, or one plane, as a
    contiguous [H, W, planes] array: a displacement's pixels and neighbours
    are then runs of whole rows of planes, not rows of single planes.
    """
    for fm in maps:
        planes = fm.reshape(-1, *fm.shape[2:])
        step = max(1, _BLOCK_VALUES // (fm.shape[2] * fm.shape[3]))
        for start in range(0, planes.shape[0], step):
            yield np.ascontiguousarray(planes[start : start + step].transpose(1, 2, 0))


def _count_joints(maps: Sequence[np.ndarray], displacements: Sequence[tuple[int, int]],
                  lo: float, hi: float, bins: int, delta: float | None) -> np.ndarray:
    """Int64 joint counts [len(displacements), bins**2] over all maps.

    The caller has checked every extent. Each plane-last block of
    ``_plane_blocks`` is binned once, and each displacement bincounts its
    shifted row codes ``index * bins`` plus column indices. When ``delta`` is
    set, a pair with |p - q| < delta gets the code past ``bins**2`` instead of
    being removed: the bincount spans ``2 * bins**2`` cells and only the
    first ``bins**2`` are kept. Pairs never cross a plane, and binning and the
    filter are elementwise in the map's dtype, so no count depends on the
    block size.
    """
    cells = bins * bins
    counts = np.zeros((len(displacements), cells), dtype=np.int64)
    for block in _plane_blocks(maps):
        index = _bin_indices(block, lo, hi, bins)
        rows = index * bins
        for row, (i, j) in enumerate(displacements):
            p, q = _pair_slices(block.shape, i, j)
            codes = rows[p] + index[q]
            if delta is not None:
                codes += (np.abs(block[p] - block[q]) < delta) * cells
            counts[row] += np.bincount(codes.ravel(), minlength=2 * cells)[:cells]
            del codes  # alive while the next codes are formed, it cost 5 %
    return counts


def collect_pairs(feature_maps: Sequence[np.ndarray], displacement: tuple[int, int],
                  cfg: BinningConfig) -> np.ndarray:
    """Joint (bins x bins) histogram of pixel/neighbour pairs over all maps.

    Every map is validated and the displacement's extent checked against
    each map before the estimator's blocked loop counts the pairs, with the
    bins spanning the maps' pooled range. With the redundancy filter on,
    pairs with |p - q| below one bin width are left out of the count; an
    empty surviving pair set is an error.
    """
    maps, (lo, hi) = _check_maps(feature_maps)
    i, j = displacement
    _check_extents(maps, [(i, j)])
    delta = _resolve_delta(cfg, lo, hi)
    counts = _count_joints(maps, [(i, j)], lo, hi, cfg.bins, delta)[0]
    if not counts.any():
        raise EstimatorError(f"no pairs collected for displacement ({i}, {j})"
                             + (" after redundancy filtering" if delta is not None else ""))
    return counts.reshape(cfg.bins, cfg.bins).astype(np.float64)


def _entropy(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def normalized_mi(joint: np.ndarray) -> float:
    """Normalized mutual information (H(P) + H(Q) - H(P,Q)) / H(P,Q) of a joint histogram.

    Entropies are in nats; the unit cancels. A deterministic joint (all mass
    in one cell, H(P,Q) = 0) scores 0 by convention. The result is clamped to
    [0, 1].
    """
    joint = np.asarray(joint, dtype=np.float64)
    if joint.ndim != 2:
        raise ValueError(f"joint histogram must be 2-D, got shape {joint.shape}")
    if not np.all(np.isfinite(joint)):
        raise ValueError("joint histogram counts must be finite")
    if np.any(joint < 0):
        raise ValueError("joint histogram counts must be non-negative")
    total = joint.sum()
    if total == 0:
        raise ValueError("joint histogram is empty")
    p = joint / total
    h_joint = _entropy(p.ravel())
    if h_joint == 0.0:
        return 0.0
    h_p = _entropy(p.sum(axis=1))
    h_q = _entropy(p.sum(axis=0))
    return float(np.clip((h_p + h_q - h_joint) / h_joint, 0.0, 1.0))


def _displacements(kernel_shape: tuple[int, int]) -> list[tuple[int, int]]:
    """Offset (a - kx//2, b - ky//2) of each kernel entry (a, b), row-major."""
    kx, ky = kernel_shape
    if kx < 1 or ky < 1:
        raise ValueError(f"kernel dims must be >= 1, got {kernel_shape}")
    return [(a - kx // 2, b - ky // 2) for a in range(kx) for b in range(ky)]


def _unordered(offsets: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """The first of each {d, -d} in ``offsets``, in order: what both estimators score."""
    firsts: list[tuple[int, int]] = []
    for i, j in offsets:
        if (-i, -j) not in firsts:
            firsts.append((i, j))
    return firsts


def spatial_dependence_mi(feature_maps: Sequence[np.ndarray], kernel_shape: tuple[int, int],
                          cfg: BinningConfig) -> SpatialDependenceMatrix:
    """Normalized-MI dependence matrix over the kernel's receptive field.

    Each entry is ``normalized_mi`` of its displacement's joint histogram,
    binned over the maps' pooled range. The joints are counted once per
    unordered {d, -d}, and -d takes the transpose of d's joint. With the
    filter off, one ``_count_joints`` call counts them all. With it on, only
    (0, 0) is counted there, unfiltered: its pairs are self-pairs that the
    filter would drop, and their dependence anchors the center. Every other
    joint is one ``collect_pairs`` call through the same loop (24 of a 7x7
    kernel), so each joint equals a per-displacement ``collect_pairs`` call,
    for any block size. Every extent is checked before any counting.
    """
    maps, (lo, hi) = _check_maps(feature_maps)
    bins = cfg.bins
    delta = _resolve_delta(cfg, lo, hi)
    offsets = _displacements(kernel_shape)
    _check_extents(maps, offsets)
    firsts = _unordered(offsets)
    counted = firsts if delta is None else [(0, 0)]
    counts = _count_joints(maps, counted, lo, hi, bins, None).reshape(-1, bins, bins)
    joints = dict(zip(counted, counts.astype(np.float64)))
    for i, j in firsts:
        if (i, j) not in joints:
            joints[i, j] = collect_pairs(maps, (i, j), cfg)
        elif not joints[i, j].any():
            raise EstimatorError(f"no pairs collected for displacement ({i}, {j})")
        joints.setdefault((-i, -j), np.ascontiguousarray(joints[i, j].T))
    values = [normalized_mi(joints[d]) for d in offsets]
    return SpatialDependenceMatrix(np.reshape(values, kernel_shape))


def spatial_dependence_autocorr(feature_maps: Sequence[np.ndarray],
                                kernel_shape: tuple[int, int]) -> SpatialDependenceMatrix:
    """Absolute-Pearson-correlation dependence matrix over the receptive field.

    Pairs are pooled unfiltered. The absolute value keeps the score usable as
    a scaling source (raw correlation may be negative); a zero-variance
    marginal yields 0 by convention.

    The moments n, sum p, sum q, sum p**2, sum q**2 and sum pq are
    accumulated in float64 over the plane blocks of ``_plane_blocks``, after
    shifting every value by the pooled mean, so float32 maps also get float64
    moments and the memory beyond the maps is one block's arrays. A constant
    side is found from its exact extremes: a constant such as 0.1 can leave a
    variance of order 1e-34, not 0. Only the first of each {d, -d} is
    accumulated: -d's sums are d's, swapped, so -d shares d's score bit for bit.
    """
    maps, _ = _check_maps(feature_maps)
    offsets = _displacements(kernel_shape)
    _check_extents(maps, offsets)
    firsts = _unordered(offsets)
    size = sum(fm.size for fm in maps)
    shift = sum(float(fm.sum(dtype=np.float64)) for fm in maps) / max(size, 1)
    moments = np.zeros((len(firsts), 6))
    lows = np.full((len(firsts), 2), np.inf)
    highs = np.full((len(firsts), 2), -np.inf)
    for block in _plane_blocks(maps):
        x = block.astype(np.float64)
        x -= shift
        for row, (i, j) in enumerate(firsts):
            ps, qs = _pair_slices(block.shape, i, j)
            p, q = x[ps], x[qs]
            moments[row] += (p.size, p.sum(), q.sum(), (p * p).sum(), (q * q).sum(),
                             (p * q).sum())
            lows[row] = np.minimum(lows[row], (block[ps].min(), block[qs].min()))
            highs[row] = np.maximum(highs[row], (block[ps].max(), block[qs].max()))
    scores = {}
    for row, (i, j) in enumerate(firsts):
        if moments[row, 0] == 0:
            raise EstimatorError(f"no pairs collected for displacement ({i}, {j})")
        mp, mq, mpp, mqq, mpq = moments[row, 1:] / moments[row, 0]
        var_p, var_q = mpp - mp * mp, mqq - mq * mq
        constant = (lows[row] == highs[row]).any() or var_p <= 0 or var_q <= 0
        scores[i, j] = scores[-i, -j] = (
            0.0 if constant else min(abs((mpq - mp * mq) / math.sqrt(var_p * var_q)), 1.0))
    return SpatialDependenceMatrix(np.reshape([scores[d] for d in offsets], kernel_shape))


def alpha_beta_scaling(alpha: float, beta: float) -> ScalingMatrix:
    """Two-parameter 3x3 scaling: center 1, edges 1/alpha, corners 1/beta.

    The closing factor 9 / (1 + 4/alpha + 4/beta) makes the mean exactly 1,
    so alpha and beta read as center-to-edge and center-to-corner ratios.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError(f"alpha and beta must be positive, got alpha={alpha}, beta={beta}")
    e, c = 1.0 / alpha, 1.0 / beta
    base = np.array([
        [c, e, c],
        [e, 1.0, e],
        [c, e, c],
    ])
    factor = 9.0 / (1.0 + 4.0 * e + 4.0 * c)
    return ScalingMatrix(base * factor)
