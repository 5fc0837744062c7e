import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spatialgrad
from spatialgrad import data as data_mod
from spatialgrad.data import (
    DataFormatError,
    LabeledDataset,
    read_cifar_binary,
    read_idx,
    synth_correlated_field,
    synth_digits,
)
from spatialgrad.dependence import BinningConfig, spatial_dependence_mi

from idxfiles import write_idx


def craft_idx_images(pixels, n, h, w, magic=0x00000803):
    return struct.pack(">IIII", magic, n, h, w) + bytes(pixels)


def craft_idx_labels(labels, magic=0x00000801):
    return struct.pack(">II", magic, len(labels)) + bytes(labels)


# One 2x2 image labelled 0, as IDX files.
IDX_IMAGES = craft_idx_images([0, 255, 0, 255], 1, 2, 2)
IDX_LABELS = craft_idx_labels([0])


def craft_cifar_record(label, pixel):
    return bytes([label]) + bytes([pixel] * (3 * 32 * 32))


class TestReadIdx:
    def test_crafted_single_image(self, tmp_path):
        img = tmp_path / "img"
        lab = tmp_path / "lab"
        img.write_bytes(craft_idx_images([0, 255, 0, 255], 1, 2, 2))
        lab.write_bytes(craft_idx_labels([3]))
        ds = read_idx(img, lab)
        np.testing.assert_array_equal(ds.images[0, 0], [[0.0, 1.0], [0.0, 1.0]])
        assert ds.labels[0] == 3
        assert len(ds) == 1

    def test_wrong_magic(self, tmp_path):
        img = tmp_path / "img"
        lab = tmp_path / "lab"
        img.write_bytes(craft_idx_images([0, 0, 0, 0], 1, 2, 2, magic=0x00000802))
        lab.write_bytes(craft_idx_labels([0]))
        with pytest.raises(DataFormatError, match="magic"):
            read_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img = tmp_path / "img"
        lab = tmp_path / "lab"
        img.write_bytes(craft_idx_images([0] * 8, 2, 2, 2))
        lab.write_bytes(craft_idx_labels([0, 1, 2]))
        with pytest.raises(DataFormatError, match="count"):
            read_idx(img, lab)

    @pytest.mark.parametrize("images,labels,want", [
        (IDX_IMAGES[:10], IDX_LABELS, "expected 16 bytes for the images header of {img}, got 10"),
        (IDX_IMAGES[:-2], IDX_LABELS, "expected 4 bytes for 1x2x2 images in {img}, got 2"),
        (IDX_IMAGES, IDX_LABELS[:5], "expected 8 bytes for the labels header of {lab}, got 5"),
        (IDX_IMAGES, IDX_LABELS[:-1], "expected 1 bytes for 1 labels in {lab}, got 0"),
    ], ids=["images_header", "images_payload", "labels_header", "labels_payload"])
    def test_truncated_file(self, tmp_path, images, labels, want):
        img = tmp_path / "img"
        lab = tmp_path / "lab"
        img.write_bytes(images)
        lab.write_bytes(labels)
        with pytest.raises(DataFormatError) as err:
            read_idx(img, lab)
        assert str(err.value) == "truncated file: " + want.format(img=img, lab=lab)

    def test_header_larger_than_any_file(self, tmp_path):
        img = tmp_path / "img"
        lab = tmp_path / "lab"
        img.write_bytes(craft_idx_images([0] * 4, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF))
        lab.write_bytes(craft_idx_labels([0]))
        with pytest.raises(DataFormatError, match=f"expected {0xFFFFFFFF ** 3} bytes .* got 4$"):
            read_idx(img, lab)

    @pytest.mark.parametrize("trailing", ["images", "labels"])
    def test_trailing_bytes(self, tmp_path, trailing):
        img = tmp_path / "img"
        lab = tmp_path / "lab"
        img.write_bytes(craft_idx_images([0, 255, 0, 255], 1, 2, 2)
                        + (b"\x00" if trailing == "images" else b""))
        lab.write_bytes(craft_idx_labels([3]) + (b"\x00\x07" if trailing == "labels" else b""))
        with pytest.raises(DataFormatError, match=f"trailing bytes after 1 {trailing} in ") as err:
            read_idx(img, lab)
        assert str(err.value).endswith(str(img if trailing == "images" else lab))

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(5, 1, 4, 3)).astype(np.float64) / 255.0
        labels = rng.integers(0, 10, size=5)
        write_idx(images, labels, tmp_path / "img", tmp_path / "lab")
        ds = read_idx(tmp_path / "img", tmp_path / "lab")
        np.testing.assert_array_equal(ds.images, images)
        np.testing.assert_array_equal(ds.labels, labels)

    def test_values_in_unit_interval(self, tmp_path):
        img = tmp_path / "img"
        lab = tmp_path / "lab"
        img.write_bytes(craft_idx_images(list(range(16)), 1, 4, 4))
        lab.write_bytes(craft_idx_labels([9]))
        ds = read_idx(img, lab)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


class TestReadCifar:
    def test_single_record(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(craft_cifar_record(7, 128))
        ds = read_cifar_binary([path])
        assert len(ds) == 1
        assert ds.labels[0] == 7
        np.testing.assert_allclose(ds.images, 128 / 255.0)
        assert ds.images.shape == (1, 3, 32, 32)

    def test_two_records(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(craft_cifar_record(0, 1) + craft_cifar_record(9, 2))
        ds = read_cifar_binary([path])
        assert len(ds) == 2
        np.testing.assert_array_equal(ds.labels, [0, 9])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(b"")
        with pytest.raises(DataFormatError, match="empty"):
            read_cifar_binary([path])

    def test_bad_length(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(craft_cifar_record(0, 1)[:-5])
        with pytest.raises(DataFormatError, match="multiple"):
            read_cifar_binary([path])

    def test_label_out_of_range(self, tmp_path):
        good = tmp_path / "good.bin"
        bad = tmp_path / "bad.bin"
        good.write_bytes(craft_cifar_record(9, 1))
        bad.write_bytes(craft_cifar_record(3, 1) + craft_cifar_record(12, 1)
                        + craft_cifar_record(10, 1))
        with pytest.raises(DataFormatError) as err:
            read_cifar_binary([good, bad])
        assert str(err.value) == f"{bad}: record 1 has label 12 > 9"

    def test_channel_planar_layout(self, tmp_path):
        # red plane 10, green 20, blue 30
        payload = bytes([4]) + bytes([10] * 1024) + bytes([20] * 1024) + bytes([30] * 1024)
        path = tmp_path / "batch.bin"
        path.write_bytes(payload)
        ds = read_cifar_binary([path])
        np.testing.assert_allclose(ds.images[0, 0], 10 / 255.0)
        np.testing.assert_allclose(ds.images[0, 1], 20 / 255.0)
        np.testing.assert_allclose(ds.images[0, 2], 30 / 255.0)


class TestSynthField:
    def test_seed_reproducible(self):
        a = synth_correlated_field((2, 1, 10, 10), 2, seed=5)
        b = synth_correlated_field((2, 1, 10, 10), 2, seed=5)
        assert np.array_equal(a, b)
        c = synth_correlated_field((2, 1, 10, 10), 2, seed=6)
        assert not np.array_equal(a, c)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            synth_correlated_field((1, 1, 4, 4), -1, seed=0)

    @pytest.mark.parametrize("shape", [(2, 1, 7, 11), (1, 3, 9, 5), (3, 2, 4, 4)])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_box_mean_matches_window_loop(self, shape, r):
        noise = np.random.default_rng(4).standard_normal(shape)
        _, _, h, w = shape
        expected = np.zeros(shape)
        for i in range(h):
            for j in range(w):
                for di in range(-r, r + 1):
                    for dj in range(-r, r + 1):
                        if 0 <= i + di < h and 0 <= j + dj < w:
                            expected[:, :, i, j] += noise[:, :, i + di, j + dj]
        expected /= (2 * r + 1) ** 2
        got = synth_correlated_field(shape, r, seed=4)
        assert got.shape == shape
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_zero_length_is_the_raw_noise_bitwise(self):
        shape = (3, 2, 9, 7)
        expected = np.random.default_rng(8).standard_normal(shape)
        assert synth_correlated_field(shape, 0, seed=8).tobytes() == expected.tobytes()

    def test_zero_length_is_iid_low_mi(self):
        maps = [synth_correlated_field((4, 4, 40, 40), 0, seed=1)]
        s = spatial_dependence_mi(maps, (3, 3), BinningConfig(bins=32))
        assert np.delete(s.values.ravel(), 4).max() < 0.05

    def test_smoothing_raises_off_center_dependence(self):
        smooth = [synth_correlated_field((4, 4, 40, 40), 3, seed=2)]
        rough = [synth_correlated_field((4, 4, 40, 40), 0, seed=2)]
        s_smooth = spatial_dependence_mi(smooth, (3, 3), BinningConfig(bins=32))
        s_rough = spatial_dependence_mi(rough, (3, 3), BinningConfig(bins=32))
        off = lambda v: np.delete(v.ravel(), 4).mean()  # noqa: E731
        assert off(s_smooth.values) > off(s_rough.values)


class TestSynthDigits:
    def test_shapes_and_ranges(self):
        ds = synth_digits(32, seed=0)
        assert ds.images.shape == (32, 1, 28, 28)
        assert ds.class_count == 10
        assert ds.images.min() >= 0 and ds.images.max() <= 1

    def test_deterministic(self):
        a = synth_digits(16, seed=3)
        b = synth_digits(16, seed=3)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_distinct_classes_have_distinct_glyphs(self, monkeypatch):
        monkeypatch.setattr(data_mod, "DIGIT_NOISE", 0.0)
        monkeypatch.setattr(data_mod, "DIGIT_JITTER", 0)
        ds = synth_digits(200, seed=1)
        by_class = {}
        for img, label in zip(ds.images, ds.labels):
            by_class.setdefault(int(label), img)
        assert len(by_class) == 10
        glyphs = list(by_class.values())
        for i in range(len(glyphs)):
            for j in range(i + 1, len(glyphs)):
                assert not np.allclose(glyphs[i] > 0, glyphs[j] > 0)


class TestLabeledDataset:
    def test_label_bounds_validated(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 1, 2, 2)), np.array([0, 5]), 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 1, 2, 2)), np.array([0]), 3)

    def test_astype_shares_images_when_the_dtype_matches(self):
        ds = LabeledDataset(np.zeros((2, 1, 2, 2)), np.array([0, 1]), 2)
        assert np.shares_memory(ds.astype(np.float64).images, ds.images)
        cast = ds.astype(np.float32)
        assert cast.images.dtype == np.float32
        assert not np.shares_memory(cast.images, ds.images)


def test_package_import_loads_no_scipy():
    src = str(Path(spatialgrad.__file__).parents[1])
    code = ("import sys, spatialgrad, spatialgrad.cli, spatialgrad.expconfig\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
