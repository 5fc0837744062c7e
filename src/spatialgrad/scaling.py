"""Spatial gradient scaling matrices: construction and normalization.

A scaling matrix redistributes per-position learning rates inside a
convolution kernel. Valid matrices are strictly positive with mean 1, so they
shift learning focus without changing the overall gradient magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

MEAN_TOLERANCE = 1e-9
DEFAULT_EPSILON_FLOOR = 1e-3


@dataclass(frozen=True)
class KernelMatrix:
    """A read-only float64 matrix of kernel shape, one value per kernel position.

    Subclasses name their record ``kind`` and check their own value rule in
    ``_check``; the 2-D shape is checked here.
    """

    values: np.ndarray
    kind: ClassVar[str]

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"{self.kind} values must be a 2-D matrix, got shape {values.shape}")
        self._check(values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def _check(self, values: np.ndarray) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class ScalingMatrix(KernelMatrix):
    """Kernel-shaped gradient scaling; strictly positive, mean 1."""

    kind: ClassVar[str] = "scaling"

    def _check(self, values: np.ndarray) -> None:
        if not np.all(np.isfinite(values)):
            raise ValueError("scaling values must be finite")
        if not np.all(values > 0):
            raise ValueError("scaling values must be strictly positive")
        mean = values.mean()
        if abs(mean - 1.0) > MEAN_TOLERANCE:
            raise ValueError(f"scaling mean must be 1 within {MEAN_TOLERANCE}, got {mean!r}")

    @classmethod
    def uniform(cls, kernel: tuple[int, int]) -> "ScalingMatrix":
        return cls(np.ones(kernel))


def from_masks(masks: Sequence[np.ndarray]) -> tuple[ScalingMatrix, np.ndarray]:
    """Sum binary branch masks into a coverage matrix and its mean-1 normalization.

    Returns ``(normalized, raw)`` where ``raw`` holds integer per-position
    coverage counts. Each mask must set at least one position, and every
    kernel position must be covered by at least one mask; uncovered positions
    would make the scaling non-positive and a branch split impossible.
    """
    if len(masks) == 0:
        raise ValueError("at least one mask is required")
    arrays = []
    shape = None
    for idx, m in enumerate(masks):
        m = np.asarray(m)
        if m.ndim != 2:
            raise ValueError(f"mask {idx} must be 2-D, got shape {m.shape}")
        if shape is None:
            shape = m.shape
        elif m.shape != shape:
            raise ValueError(f"mask {idx} shape {m.shape} differs from {shape}")
        if not np.all(np.isin(m, (0, 1))):
            raise ValueError(f"mask {idx} must be binary")
        if not m.any():
            raise ValueError(f"mask {idx} has no set position")
        arrays.append(m.astype(np.int64))
    raw = np.zeros(shape, dtype=np.int64)
    for m in arrays:
        raw += m
    uncovered = np.argwhere(raw == 0)
    if uncovered.size:
        positions = ", ".join(f"({i}, {j})" for i, j in uncovered)
        raise ValueError(f"kernel positions not covered by any mask: {positions}")
    normalized = ScalingMatrix(raw / raw.mean())
    return normalized, raw


def k_transform(dependence: np.ndarray, k: float) -> np.ndarray:
    """Map dependence values in [0, 1] to raw scalings via s -> k*s / ((k-1)*s + 1).

    0 and 1 are fixed points for every k > 0; k = 1 is the identity. Larger k
    lifts intermediate dependence values toward 1.
    """
    if not 0 < k < np.inf:
        raise ValueError(f"k must be positive and finite, got {k}")
    s = np.asarray(dependence, dtype=np.float64)
    if not np.all((s >= 0) & (s <= 1)):
        raise ValueError("dependence values must lie in [0, 1]")
    return (k * s) / ((k - 1.0) * s + 1.0)


def finalize(raw: np.ndarray, epsilon_floor: float = DEFAULT_EPSILON_FLOOR) -> ScalingMatrix:
    """Floor raw scalings at ``epsilon_floor`` and normalize to mean 1.

    Flooring comes first so that zero entries (independent displacements)
    stay strictly positive and the mean is never zero.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if np.any(raw < 0):
        raise ValueError("raw scaling entries must be non-negative")
    if epsilon_floor < 0:
        raise ValueError("epsilon_floor must be non-negative")
    floored = np.maximum(raw, epsilon_floor)
    mean = floored.mean()
    if mean == 0.0:
        raise ValueError("all-zero scaling with a zero floor cannot be normalized")
    return ScalingMatrix(floored / mean)
