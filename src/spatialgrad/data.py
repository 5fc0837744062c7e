"""Dataset ingestion (IDX, CIFAR-10 binary) and synthetic fixtures.

Readers scale raw pixel bytes by 1/255 and perform no further normalization,
so every ingested value lies in [0, 1] and histogram bin ranges stay
interpretable.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 1 + 3 * 32 * 32


class DataFormatError(ValueError):
    """A dataset file does not match its documented binary format."""


@dataclass
class LabeledDataset:
    """Images [N, C, H, W] in [0, 1] with integer class labels."""

    images: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self) -> None:
        self.images = np.asarray(self.images)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError(f"images must be rank-4, got shape {self.images.shape}")
        if self.labels.ndim != 1 or len(self.labels) != len(self.images):
            raise ValueError(
                f"labels length {self.labels.shape} does not match image count {len(self.images)}"
            )
        if self.class_count < 1:
            raise ValueError("class_count must be positive")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ValueError(f"labels must lie in [0, {self.class_count})")

    def __len__(self) -> int:
        return len(self.images)

    def astype(self, dtype) -> "LabeledDataset":
        """The dataset with images of ``dtype``; shares ``images`` when they already are."""
        return LabeledDataset(self.images.astype(dtype, copy=False), self.labels,
                              self.class_count)


def _read_idx_file(path: str | Path, magic: int, dims: int, what: str) -> np.ndarray:
    """An IDX file's uint8 payload of exactly the shape its ``dims`` header sizes give."""
    raw = Path(path).read_bytes()
    header = 4 * (1 + dims)
    if len(raw) < header:
        raise DataFormatError(f"truncated file: expected {header} bytes for the {what} "
                              f"header of {path}, got {len(raw)}")
    found, *sizes = struct.unpack_from(f">{1 + dims}I", raw)
    if found != magic:
        raise DataFormatError(f"unexpected magic 0x{found:08x} in {path}, want 0x{magic:08x}")
    declared, payload = math.prod(sizes), len(raw) - header  # Python ints: cannot overflow
    if payload < declared:
        raise DataFormatError(f"truncated file: expected {declared} bytes for "
                              f"{'x'.join(map(str, sizes))} {what} in {path}, got {payload}")
    if payload > declared:
        raise DataFormatError(f"trailing bytes after {sizes[0]} {what} in {path}")
    return np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(sizes)


def read_idx(images_path: str | Path, labels_path: str | Path) -> LabeledDataset:
    """Parse big-endian IDX image/label files into a dataset.

    Images: magic 0x00000803, then N, H, W uint32, then N*H*W pixel bytes.
    Labels: magic 0x00000801, then N uint32, then N label bytes.
    """
    pixels = _read_idx_file(images_path, IDX_IMAGES_MAGIC, 3, "images")
    labels = _read_idx_file(labels_path, IDX_LABELS_MAGIC, 1, "labels").astype(np.int64)
    if len(labels) != len(pixels):
        raise DataFormatError(f"image count {len(pixels)} does not match label count {len(labels)}")
    class_count = int(labels.max()) + 1 if labels.size else 1
    return LabeledDataset(pixels[:, None].astype(np.float64) / 255.0, labels, class_count)


def read_cifar_binary(paths: Sequence[str | Path]) -> LabeledDataset:
    """Parse CIFAR-10 binary batches: 3073-byte records of label + planar RGB."""
    chunks: list[np.ndarray] = []
    for path in paths:
        raw = Path(path).read_bytes()
        if len(raw) % CIFAR_RECORD_BYTES != 0:
            raise DataFormatError(f"{path}: length {len(raw)} is not a multiple of "
                                  f"{CIFAR_RECORD_BYTES}")
        chunks.append(np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES))
        bad = np.flatnonzero(chunks[-1][:, 0] > 9)
        if bad.size:
            raise DataFormatError(f"{path}: record {bad[0]} has label {chunks[-1][bad[0], 0]} > 9")
    if not sum(map(len, chunks)):
        raise DataFormatError("no CIFAR records found (empty input)")
    records = np.concatenate(chunks)
    labels = records[:, 0].astype(np.int64)
    images = records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0
    return LabeledDataset(images, labels, 10)


def synth_correlated_field(shape: tuple[int, int, int, int], correlation_length: int,
                           seed: int) -> np.ndarray:
    """Gaussian white noise, box-smoothed over the spatial axes.

    ``correlation_length`` is the box half-width r: each output pixel is the
    mean of the zero-padded (2r+1)x(2r+1) window centred on it. r = 0 returns
    the raw i.i.d. noise. Deterministic for a given seed.
    """
    if correlation_length < 0:
        raise ValueError(f"correlation_length must be non-negative, got {correlation_length}")
    rng = np.random.default_rng(seed)
    field = rng.standard_normal(shape)
    if correlation_length == 0:
        return field
    r = correlation_length
    padded = np.pad(field, ((0, 0), (0, 0), (r, r), (r, r)))
    return sliding_window_view(padded, (2 * r + 1, 2 * r + 1), axis=(2, 3)).mean(axis=(-2, -1))


# Seven-segment layout for the synthetic digit classification fixture:
# segment name -> (row0, row1, col0, col1) in a 16x10 glyph box.
_SEGMENTS = {
    "top": (0, 2, 0, 10),
    "top_left": (0, 8, 0, 2),
    "top_right": (0, 8, 8, 10),
    "middle": (7, 9, 0, 10),
    "bottom_left": (8, 16, 0, 2),
    "bottom_right": (8, 16, 8, 10),
    "bottom": (14, 16, 0, 10),
}

_DIGIT_SEGMENTS = {
    0: ("top", "top_left", "top_right", "bottom_left", "bottom_right", "bottom"),
    1: ("top_right", "bottom_right"),
    2: ("top", "top_right", "middle", "bottom_left", "bottom"),
    3: ("top", "top_right", "middle", "bottom_right", "bottom"),
    4: ("top_left", "top_right", "middle", "bottom_right"),
    5: ("top", "top_left", "middle", "bottom_right", "bottom"),
    6: ("top", "top_left", "middle", "bottom_left", "bottom_right", "bottom"),
    7: ("top", "top_right", "bottom_right"),
    8: tuple(_SEGMENTS),
    9: ("top", "top_left", "top_right", "middle", "bottom_right", "bottom"),
}

_GLYPH_H, _GLYPH_W = 16, 10
# Image side in pixels, additive noise standard deviation, largest glyph shift per axis.
DIGIT_SIZE, DIGIT_NOISE, DIGIT_JITTER = 28, 0.08, 3


def synth_digits(n: int, seed: int) -> LabeledDataset:
    """Procedural ten-class digit images: jittered seven-segment glyphs plus noise.

    A stand-in for a small handwritten-digit subset: same shape (28x28
    grayscale, labels 0-9), strong spatial structure, and quickly learnable
    by a small CNN. Deterministic for a given seed.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    images = np.zeros((n, 1, DIGIT_SIZE, DIGIT_SIZE))
    labels = rng.integers(0, 10, size=n)
    max_r = DIGIT_SIZE - _GLYPH_H
    max_c = DIGIT_SIZE - _GLYPH_W
    base_r, base_c = max_r // 2, max_c // 2
    for idx in range(n):
        r = int(np.clip(base_r + rng.integers(-DIGIT_JITTER, DIGIT_JITTER + 1), 0, max_r))
        c = int(np.clip(base_c + rng.integers(-DIGIT_JITTER, DIGIT_JITTER + 1), 0, max_c))
        intensity = rng.uniform(0.75, 1.0)
        for name in _DIGIT_SEGMENTS[int(labels[idx])]:
            r0, r1, c0, c1 = _SEGMENTS[name]
            images[idx, 0, r + r0 : r + r1, c + c0 : c + c1] = intensity
    images += rng.normal(0.0, DIGIT_NOISE, size=images.shape)
    np.clip(images, 0.0, 1.0, out=images)
    return LabeledDataset(images, labels, 10)
