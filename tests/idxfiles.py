"""Write IDX files for tests: the inverse of ``spatialgrad.data.read_idx``."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from spatialgrad.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC


def write_idx(images: np.ndarray, labels: np.ndarray,
              images_path: str | Path, labels_path: str | Path) -> None:
    """Write images in [0, 1] and labels to IDX files (inverse of read_idx)."""
    images = np.asarray(images)
    labels = np.asarray(labels)
    if images.ndim != 4 or images.shape[1] != 1:
        raise ValueError(f"IDX images must be [N, 1, H, W], got shape {images.shape}")
    n, _, h, w = images.shape
    pixel_bytes = np.round(images * 255.0).clip(0, 255).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w))
        f.write(pixel_bytes.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)))
        f.write(labels.astype(np.uint8).tobytes())
