"""The shape contract of dense rank-4 arrays.

Weights, activations, and gradients are plain ``numpy.ndarray`` values with
layout (n0, n1, n2, n3), row-major contiguous.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """An operand's shape violates the operation's contract."""


def require_rank4(t: np.ndarray, name: str) -> np.ndarray:
    t = np.asarray(t)
    if t.ndim != 4:
        raise ShapeError(f"{name} must be rank-4, got shape {t.shape}")
    return t
