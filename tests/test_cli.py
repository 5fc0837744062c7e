import argparse
import csv
import json
import logging
import os
import re
import struct
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from spatialgrad import cli
from spatialgrad.cli import main
from spatialgrad.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, synth_digits
from spatialgrad.dependence import SpatialDependenceMatrix
from spatialgrad.optim import KINDS
from spatialgrad.reparam import MASK_FAMILIES, equivalence_run
from spatialgrad.scaling import ScalingMatrix

from idxfiles import write_idx

MODEL_BLOCK = """
[model]
layers =
    conv out=4 kernel=3 pad=1 act=relu
    maxpool
    conv out=8 kernel=3 pad=1 act=relu
    maxpool
    flatten
    dense out=10
    softmax_xent
"""

# configparser's boolean words and their meaning.
BOOLEAN_WORDS = {"1": True, "yes": True, "true": True, "on": True,
                 "0": False, "no": False, "false": False, "off": False}


def write_config(path, data_block, train_block, sgs_block=""):
    path.write_text(MODEL_BLOCK + data_block + train_block + sgs_block)
    return str(path)


def synth_data_block(train_size=96, test_size=32, seed=0):
    return f"""
[data]
kind = synth_digits
train_size = {train_size}
test_size = {test_size}
seed = {seed}
"""


def train_block(epochs=2, extra=""):
    return f"""
[train]
epochs = {epochs}
batch_size = 32
lr = 0.05
optimizer = sgd_momentum
momentum = 0.9
seed = 11
{extra}
"""


def write_zip(path, member, text):
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr(member, text)


def read_metrics(path):
    with open(path) as f:
        return list(csv.DictReader(f))


class TestTrainCommand:
    def test_writes_artifacts_and_resolved_config(self, tmp_path):
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(), train_block(),
                           "\n[sgs]\nenabled = false\n")
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "scalings.jsonl").exists()
        assert (out / "weights.npz").exists()
        resolved = (out / "resolved.ini").read_text()
        assert "k = 5" in resolved
        assert "refresh_every = 5" in resolved
        assert "refresh_batches = 2" in resolved
        assert "warmup_epochs = 1" in resolved

    def test_metrics_csv_format(self, tmp_path):
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(train_size=64),
                           train_block(epochs=1), "\n[sgs]\nenabled = false\n")
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,eval_acc,wall_seconds"
        assert len(lines) == 2

    def test_scaling_records_match_inspect_scaling(self, tmp_path):
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(), train_block(epochs=1),
                           "\n[sgs]\nwarmup_epochs = 0\nrefresh_every = 1\n")
        run, inspected = tmp_path / "run", tmp_path / "inspect"
        assert main(["train", "--config", cfg, "--out", str(run)]) == 0
        assert main(["inspect-scaling", "--config", cfg, "--out", str(inspected)]) == 0
        trained = [json.loads(line)
                   for line in (run / "scalings.jsonl").read_text().splitlines()]
        inspected = json.loads((inspected / "scalings.json").read_text())
        assert [r["kind"] for r in trained] == ["dependence", "scaling"] * 2
        assert trained == inspected

    def test_every_record_layer_is_a_weights_key(self, tmp_path):
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(), train_block(epochs=1),
                           "\n[sgs]\nwarmup_epochs = 0\nrefresh_every = 1\n")
        run = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run)]) == 0
        assert main(["inspect-scaling", "--config", cfg, "--out", str(tmp_path / "i")]) == 0
        assert main(["magnitude", "--weights", str(run / "weights.npz"),
                     "--out", str(tmp_path / "m")]) == 0
        artifacts = {
            "scalings.jsonl": [json.loads(line) for line
                               in (run / "scalings.jsonl").read_text().splitlines()],
            "scalings.json": json.loads((tmp_path / "i" / "scalings.json").read_text()),
            "magnitude.json": json.loads((tmp_path / "m" / "magnitude.json").read_text()),
        }
        with np.load(run / "weights.npz") as saved:
            keys = set(saved.files)
        for name, records in artifacts.items():
            assert records and {r["layer"] for r in records} <= keys, name

    def test_identity_scaling_matches_disabled_bitwise(self, tmp_path):
        cfg_off = write_config(tmp_path / "off.ini", synth_data_block(), train_block(),
                               "\n[sgs]\nenabled = false\n")
        cfg_ones = write_config(
            tmp_path / "ones.ini", synth_data_block(), train_block(),
            "\n[sgs]\nenabled = true\nmeasure = fixed\nwarmup_epochs = 0\nrefresh_every = 1\n")
        out_off, out_ones = tmp_path / "off", tmp_path / "ones"
        assert main(["train", "--config", cfg_off, "--out", str(out_off)]) == 0
        assert main(["train", "--config", cfg_ones, "--out", str(out_ones)]) == 0
        rows_off = read_metrics(out_off / "metrics.csv")
        rows_ones = read_metrics(out_ones / "metrics.csv")
        for a, b in zip(rows_off, rows_ones):
            for field in ("epoch", "train_loss", "train_acc", "eval_acc"):
                assert a[field] == b[field]
        with np.load(out_off / "weights.npz") as wa, np.load(out_ones / "weights.npz") as wb:
            assert set(wa.files) == set(wb.files)
            for name in wa.files:
                assert np.array_equal(wa[name], wb[name])

    def test_missing_dataset_path_names_key(self, tmp_path, capsys):
        data = """
[data]
kind = idx
train_images = /nonexistent/images
train_labels = /nonexistent/labels
test_images = /nonexistent/images
test_labels = /nonexistent/labels
"""
        cfg = write_config(tmp_path / "exp.ini", data, train_block())
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "train_images" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(),
                           train_block(extra="turbo = yes\n"))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "turbo" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("test_size", 0), ("test_size", -3),
                                           ("train_size", 0)])
    def test_empty_synth_split_rejected_at_load(self, tmp_path, capsys, key, value):
        sizes = {"train_size": 96, "test_size": 32, key: value}
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(**sizes), train_block())
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and key in err

    @pytest.mark.parametrize("key", ["epochs", "batch_size", "lr"])
    def test_missing_required_train_key_is_a_config_error(self, tmp_path, capsys, key):
        block = "\n".join(line for line in train_block().splitlines()
                          if not line.startswith(f"{key} ="))
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(), block)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"config error: [train] missing key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        MODEL_BLOCK + synth_data_block() + train_block().replace("lr = 0.05\n",
                                                                 "lr = 0.05\nlr = 0.1\n"),
        "epochs = 2\n" + MODEL_BLOCK + synth_data_block() + train_block(),
    ], ids=["duplicate_key", "missing_section_header"])
    def test_malformed_ini_is_one_config_error_line(self, tmp_path, capsys, text):
        path = tmp_path / "exp.ini"
        path.write_text(text)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_unknown_section_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(), train_block(),
                           "\n[extras]\nfoo = 1\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_seed_override_changes_run(self, tmp_path):
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(), train_block(),
                           "\n[sgs]\nenabled = false\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg, "--out", str(out1), "--seed", "5"]) == 0
        assert main(["train", "--config", cfg, "--out", str(out2), "--seed", "6"]) == 0
        assert (read_metrics(out1 / "metrics.csv")[-1]["train_loss"]
                != read_metrics(out2 / "metrics.csv")[-1]["train_loss"])
        assert "seed = 5" in (out1 / "resolved.ini").read_text()

    @pytest.mark.parametrize("data", [
        "\n[data]\nkind = synth_field\nsamples = x\n",
        "\n[data]\nkind = synth_field\ncorr_length = -1\n",
        synth_data_block().replace("seed = 0", "seed = abc"),
        synth_data_block().replace("seed = 0", "seed = -1"),
        synth_data_block() + "colour = red\n",
        "\n[data]\nkind = idx\ntrain_images = a\ntrain_labels = b\ntest_images = c\n",
        "\n[data]\nkind = mnist\n",
    ], ids=["samples_not_int", "negative_corr_length", "seed_not_int", "negative_seed",
            "unknown_key", "idx_without_test_labels", "unknown_kind"])
    def test_bad_data_value_is_a_config_error_before_any_dataset(self, tmp_path, monkeypatch,
                                                                 capsys, data):
        def no_datasets(*args):
            raise AssertionError("a dataset was built from a bad [data] section")

        monkeypatch.setattr(cli, "build_datasets", no_datasets)
        cfg = write_config(tmp_path / "exp.ini", data, train_block())
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "config error: [data]" in capsys.readouterr().err

    def test_negative_seed_flag_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(), train_block())
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--seed", "-1"]) == 1
        assert "config error: [train] seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["conv out=4 kernel=3 pad=1 colour=red",
                                      "conv out=4 kernel=3x",
                                      "conv kernel=3",
                                      "conv out=0 kernel=3 pad=1",
                                      "conv out=4 kernel=0",
                                      "conv out=4 kernel=3 stride=3 pad=1",
                                      "conv out=4 kernel=3 pad=-1",
                                      "dense out=ten",
                                      "dense out=0",
                                      "dense out=-3",
                                      "conv out=8 out=16 kernel=3"])
    def test_bad_model_line_is_a_config_error(self, tmp_path, monkeypatch, capsys, line):
        def no_datasets(*args):
            raise AssertionError("a dataset was built for a model with a bad line")

        monkeypatch.setattr(cli, "build_datasets", no_datasets)
        old = "dense out=10" if line.startswith("dense") else "conv out=4 kernel=3 pad=1 act=relu"
        cfg = tmp_path / "exp.ini"
        cfg.write_text(MODEL_BLOCK.replace(old, line) + synth_data_block() + train_block())
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "config error: [model]" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new", [
        ("    flatten\n", ""),
        ("    flatten\n", "    flatten\n    conv out=4 kernel=1\n"),
        ("    flatten\n", "    flatten\n    flatten\n"),
        ("    flatten\n", "    flatten\n    gap\n"),
    ], ids=["missing_flatten", "conv_after_flatten", "two_flattens", "gap_after_flatten"])
    def test_bad_layer_order_is_a_config_error_before_any_dataset(self, tmp_path, monkeypatch,
                                                                  capsys, old, new):
        def no_datasets(*args):
            raise AssertionError("a dataset was built for a model in a bad layer order")

        monkeypatch.setattr(cli, "build_datasets", no_datasets)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(MODEL_BLOCK.replace(old, new) + synth_data_block() + train_block())
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "config error: [model]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["train"], ["grid-search", "--ks", "2,5"]],
                             ids=["train", "grid_search"])
    @pytest.mark.parametrize("old,new", [
        ("dense out=10", "dense out=7"),
        ("conv out=8 kernel=3 pad=1", "conv out=16 kernel=15 pad=0"),
    ], ids=["head_width", "conv_larger_than_its_input"])
    def test_model_shape_fault_is_a_config_error_before_any_file(self, tmp_path, capsys,
                                                                command, old, new):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(MODEL_BLOCK.replace(old, new) + synth_data_block() + train_block())
        out = tmp_path / "o"
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 1
        assert "config error: [model]" in capsys.readouterr().err
        assert not (out / "resolved.ini").exists()

    @staticmethod
    def _idx_config(tmp_path, test_side, model=MODEL_BLOCK, test_count=32):
        """An IDX config whose 28x28 training images meet ``test_count`` test
        images cropped to ``test_side`` x ``test_side``."""
        ds, ds_test = synth_digits(64, seed=0), synth_digits(32, seed=1)
        crop = (28 - test_side) // 2
        write_idx(ds.images, ds.labels, tmp_path / "tr_img", tmp_path / "tr_lab")
        write_idx(ds_test.images[:test_count, :, crop:crop + test_side, crop:crop + test_side],
                  ds_test.labels[:test_count], tmp_path / "te_img", tmp_path / "te_lab")
        cfg = tmp_path / "exp.ini"
        cfg.write_text(model + f"""
[data]
kind = idx
train_images = {tmp_path / 'tr_img'}
train_labels = {tmp_path / 'tr_lab'}
test_images = {tmp_path / 'te_img'}
test_labels = {tmp_path / 'te_lab'}
""" + train_block(epochs=1) + "\n[sgs]\nenabled = false\n")
        return str(cfg)

    def test_idx_dataset_end_to_end(self, tmp_path):
        cfg = self._idx_config(tmp_path, test_side=28)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_test_images_that_do_not_fit_the_model_exit_1_before_any_file(self, tmp_path,
                                                                         capsys):
        cfg = self._idx_config(tmp_path, test_side=20)
        out = tmp_path / "o"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: [data] test images of shape (1, 20, 20) do not pass through "
            "the model: dense input shape (1, 200), weights (392, 10)"]
        assert not out.exists()

    def test_an_empty_test_set_that_does_not_fit_the_model_exits_1_before_any_file(
            self, tmp_path, capsys):
        cfg = self._idx_config(tmp_path, test_side=20, test_count=0)
        out = tmp_path / "o"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: [data] test images of shape (1, 20, 20) do not pass through "
            "the model: dense input shape (0, 200), weights (392, 10)"]
        assert not out.exists()

    def test_a_gap_model_accepts_test_images_of_another_size(self, tmp_path):
        gap_model = MODEL_BLOCK.replace("    flatten\n", "    gap\n    flatten\n")
        cfg = self._idx_config(tmp_path, test_side=20, model=gap_model)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_an_empty_test_set_is_still_the_epoch_error(self, tmp_path, capsys):
        cfg = self._idx_config(tmp_path, test_side=28, test_count=0)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: the eval set is empty; eval accuracy would divide by zero"]

    def test_an_empty_test_set_leaves_no_output_directory(self, tmp_path):
        cfg = self._idx_config(tmp_path, test_side=28, test_count=0)
        out = tmp_path / "o"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_a_shape_fault_inside_training_exits_2(self, tmp_path, monkeypatch, capsys):
        import spatialgrad.training as training_mod
        from spatialgrad.tensor import ShapeError

        def failing_step(*args):
            raise ShapeError("a later shape fault")

        monkeypatch.setattr(training_mod, "train_step", failing_step)
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(), train_block(epochs=1),
                           "\n[sgs]\nenabled = false\n")
        out = tmp_path / "o"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: a later shape fault"]
        assert not out.exists()

    def test_builds_one_run(self, tmp_path, monkeypatch):
        import spatialgrad.training as training_mod

        built = []

        def counting(real):
            def build_run(*args):
                built.append(args)
                return real(*args)
            return build_run

        monkeypatch.setattr(cli, "build_run", counting(cli.build_run))
        monkeypatch.setattr(training_mod, "build_run", counting(training_mod.build_run))
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(), train_block(epochs=1),
                           "\n[sgs]\nenabled = false\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(built) == 1

    def test_idx_header_larger_than_any_file_exits_2(self, tmp_path):
        (tmp_path / "img").write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, *[0xFFFFFFFF] * 3))
        (tmp_path / "lab").write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, 1) + bytes([0]))
        data = f"""
[data]
kind = idx
train_images = {tmp_path / 'img'}
train_labels = {tmp_path / 'lab'}
test_images = {tmp_path / 'img'}
test_labels = {tmp_path / 'lab'}
"""
        cfg = write_config(tmp_path / "exp.ini", data, train_block())
        src = str(Path(cli.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-m", "spatialgrad.cli", "train", "--config", cfg,
                               "--out", str(tmp_path / "o")], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"error: truncated file: expected {0xFFFFFFFF ** 3} bytes for "
            f"4294967295x4294967295x4294967295 images in {tmp_path / 'img'}, got 0"]
        assert not (tmp_path / "o").exists()


class TestVerifyEquivalence:
    def test_acb_momentum_passes(self, tmp_path, capsys):
        code = main(["verify-equivalence", "--kernel", "3", "--mask-family", "acb",
                     "--optimizer", "sgd_momentum", "--steps", "100", "--seed", "0",
                     "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "PASS" in captured.out
        rows = (tmp_path / "divergence.csv").read_text().strip().splitlines()
        assert rows[0] == "step,max_rel_divergence,mean_rel_divergence"
        assert len(rows) == 101
        assert float(rows[-1].split(",")[1]) < 1e-8

    def test_csv_export(self, tmp_path):
        assert main(["verify-equivalence", "--mask-family", "acb", "--optimizer", "sgd",
                     "--steps", "3", "--seed", "0", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "divergence.csv").read_text().strip().splitlines()
        assert lines[0] == "step,max_rel_divergence,mean_rel_divergence"
        assert len(lines) == 4
        step0 = lines[1].split(",")
        assert step0[0] == "0"
        float(step0[1])

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_random_mask_count_below_one_is_a_config_error(self, tmp_path, capsys, count):
        code = main(["verify-equivalence", "--kernel", "3", "--mask-family", "random",
                     "--mask-count", count, "--optimizer", "sgd", "--steps", "1",
                     "--out", str(tmp_path)])
        assert code == 1
        assert f"count >= 1, got {count}" in capsys.readouterr().err
        assert not (tmp_path / "divergence.csv").exists()

    @pytest.mark.parametrize("optimizer", ["sgd", "adam", "adagrad"])
    def test_momentum_for_a_kind_without_momentum_warns(self, tmp_path, caplog, optimizer):
        with caplog.at_level(logging.WARNING, logger="spatialgrad.optim"):
            code = main(["verify-equivalence", "--optimizer", optimizer, "--momentum", "0.5",
                         "--steps", "1", "--out", str(tmp_path)])
        assert code == 0
        warnings = [r.message for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "momentum 0.5 is ignored" in warnings[0] and repr(optimizer) in warnings[0]

    @pytest.mark.parametrize("flags, momentum", [
        (["--optimizer", "sgd"], 0.0),
        (["--optimizer", "sgd_momentum", "--momentum", "0.5"], 0.5),
        (["--optimizer", "sgd_momentum"], 0.9),
    ])
    def test_momentum_without_conflict_does_not_warn(self, tmp_path, caplog, monkeypatch,
                                                     flags, momentum):
        optimizers = []

        def recording_run(masks, optimizer, **kwargs):
            optimizers.append(optimizer)
            return equivalence_run(masks, optimizer, **kwargs)

        monkeypatch.setattr(cli, "equivalence_run", recording_run)
        with caplog.at_level(logging.WARNING, logger="spatialgrad.optim"):
            assert main(["verify-equivalence", *flags, "--steps", "1",
                         "--out", str(tmp_path)]) == 0
        assert not [r for r in caplog.records if r.levelno == logging.WARNING]
        assert [o.momentum for o in optimizers] == [momentum]

    @pytest.mark.parametrize("family", ["acb", "full_plus_center", "all_rectangles"])
    def test_mask_count_for_a_family_without_count_warns(self, tmp_path, caplog, capsys,
                                                          family):
        with caplog.at_level(logging.WARNING, logger="spatialgrad.reparam"):
            code = main(["verify-equivalence", "--mask-family", family, "--mask-count", "0",
                         "--steps", "1", "--out", str(tmp_path)])
        assert code == 0 and "PASS" in capsys.readouterr().out
        warnings = [r.message for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "mask count 0 is ignored" in warnings[0] and repr(family) in warnings[0]

    @pytest.mark.parametrize("flags, branches", [
        (["--mask-family", "random"], 4),
        (["--mask-family", "random", "--mask-count", "2"], 3),
        (["--mask-family", "acb"], 3),
    ])
    def test_mask_count_without_conflict_does_not_warn(self, tmp_path, caplog, monkeypatch,
                                                       flags, branches):
        mask_sets = []

        def recording_run(masks, optimizer, **kwargs):
            mask_sets.append(masks)
            return equivalence_run(masks, optimizer, **kwargs)

        monkeypatch.setattr(cli, "equivalence_run", recording_run)
        with caplog.at_level(logging.WARNING, logger="spatialgrad.reparam"):
            assert main(["verify-equivalence", *flags, "--steps", "1",
                         "--out", str(tmp_path)]) == 0
        assert not [r for r in caplog.records if r.levelno == logging.WARNING]
        assert [len(masks) for masks in mask_sets] == [branches]

    def test_adam_warns_without_failing(self, tmp_path, capsys):
        code = main(["verify-equivalence", "--kernel", "3", "--mask-family", "acb",
                     "--optimizer", "adam", "--steps", "10", "--seed", "0",
                     "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "WARNING: optimizer 'adam' is outside the linear family" in captured.out
        assert "no equivalence guarantee" in captured.out

    def test_heavy_mask_family_stays_finite_at_default_lr(self, tmp_path, capsys):
        code = main(["verify-equivalence", "--kernel", "7",
                     "--mask-family", "all_rectangles", "--optimizer", "sgd_momentum",
                     "--steps", "50", "--seed", "0", "--out", str(tmp_path)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--kernel", "0"], ["--steps", "0"],
                                       ["--momentum", "-1"], ["--lr", "0"],
                                       ["--lr", "-0.05"], ["--lr", "inf"],
                                       ["--momentum", "nan"], ["--weight-decay", "inf"],
                                       ["--kernel", "4"],
                                       ["--kernel", "4", "--mask-family", "random"],
                                       ["--kernel", "4", "--mask-family", "full_plus_center"]])
    def test_bad_flag_value_is_a_config_error(self, tmp_path, capsys, flags):
        code = main(["verify-equivalence", "--optimizer", "sgd_momentum", *flags,
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err
        if flags[:2] == ["--kernel", "4"]:
            assert "kernel" in err and "(4, 4)" in err
        assert not (tmp_path / "divergence.csv").exists()

    def test_overflowing_lr_gives_no_verdict(self, tmp_path, capsys):
        code = main(["verify-equivalence", "--kernel", "7",
                     "--mask-family", "all_rectangles", "--optimizer", "sgd",
                     "--steps", "50", "--seed", "0", "--lr", "5.0",
                     "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "NO VERDICT" in captured.err


class TestInspectScaling:
    def test_synthetic_noise_center_spike(self, tmp_path):
        data = """
[data]
kind = synth_field
samples = 128
channels = 1
height = 20
width = 20
corr_length = 0
seed = 3
"""
        cfg = write_config(tmp_path / "exp.ini", data, train_block())
        out = tmp_path / "o"
        assert main(["inspect-scaling", "--config", cfg, "--out", str(out)]) == 0
        records = json.loads((out / "scalings.json").read_text())
        kinds = {r.get("kind") for r in records}
        assert kinds == {"dependence", "scaling"}
        first_scaling = next(r for r in records if r.get("kind") == "scaling")
        values = np.array(first_scaling["values"]).reshape(3, 3)
        assert values[1, 1] == values.max()
        off = np.delete(values.ravel(), 4)
        assert values[1, 1] > 3 * off.max()
        assert abs(values.mean() - 1.0) <= 1e-9

    def test_constant_images_give_uniform(self, tmp_path):
        images = np.full((32, 1, 12, 12), 0.5)
        write_idx(images, np.zeros(32, dtype=np.int64), tmp_path / "img", tmp_path / "lab")
        data = f"""
[data]
kind = idx
train_images = {tmp_path / 'img'}
train_labels = {tmp_path / 'lab'}
test_images = {tmp_path / 'img'}
test_labels = {tmp_path / 'lab'}
"""
        # unpadded convs so every layer's input stays spatially constant
        model = """
[model]
layers =
    conv out=4 kernel=3 act=relu
    conv out=8 kernel=3 act=relu
    flatten
    dense out=10
    softmax_xent
"""
        cfg = tmp_path / "exp.ini"
        cfg.write_text(model + data + train_block())
        cfg = str(cfg)
        out = tmp_path / "o"
        assert main(["inspect-scaling", "--config", cfg, "--out", str(out)]) == 0
        records = json.loads((out / "scalings.json").read_text())
        for record in records:
            if record.get("kind") == "scaling":
                np.testing.assert_array_equal(np.array(record["values"]), np.ones(9))

    def test_alpha_beta_uniform(self, tmp_path):
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(), train_block(),
                           "\n[sgs]\nmeasure = alpha_beta\nalpha = 1.0\nbeta = 1.0\n")
        out = tmp_path / "o"
        assert main(["inspect-scaling", "--config", cfg, "--out", str(out)]) == 0
        records = json.loads((out / "scalings.json").read_text())
        assert all(r["kind"] == "scaling" for r in records)
        for record in records:
            np.testing.assert_array_equal(np.array(record["values"]), np.ones(9))


class TestGridSearch:
    def test_datasets_are_built_once(self, tmp_path, monkeypatch):
        real_build, calls = cli.build_datasets, []

        def counting_build(data):
            calls.append(data)
            return real_build(data)

        monkeypatch.setattr(cli, "build_datasets", counting_build)
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(train_size=64),
                           train_block(epochs=1), "\n[sgs]\nenabled = false\n")
        assert main(["grid-search", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--ks", "2,3,5", "--jobs", "1"]) == 0
        assert len(calls) == 1

    def test_k_grid(self, tmp_path):
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(train_size=96),
                           train_block(epochs=1),
                           "\n[sgs]\nwarmup_epochs = 0\nrefresh_every = 1\n")
        out = tmp_path / "o"
        assert main(["grid-search", "--config", cfg, "--out", str(out),
                     "--ks", "2,5", "--validation-fraction", "0.2"]) == 0
        with open(out / "grid.csv") as f:
            rows = list(csv.DictReader(f))
        assert [r["k"] for r in rows] == ["2.0", "5.0"]
        for row in rows:
            assert 0.0 <= float(row["val_acc"]) <= 1.0

    def test_alpha_beta_grid_parallel(self, tmp_path):
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(train_size=96),
                           train_block(epochs=1),
                           "\n[sgs]\nwarmup_epochs = 0\nrefresh_every = 1\n")
        out = tmp_path / "o"
        assert main(["grid-search", "--config", cfg, "--out", str(out),
                     "--alphas", "1.0,2.0", "--betas", "1.0", "--jobs", "2"]) == 0
        with open(out / "grid.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert {r["alpha"] for r in rows} == {"1.0", "2.0"}

    def test_seed_flag_matches_the_seed_in_the_config(self, tmp_path):
        sgs = "\n[sgs]\nwarmup_epochs = 0\nrefresh_every = 1\n"
        flagged = write_config(tmp_path / "flagged.ini", synth_data_block(train_size=64),
                               train_block(epochs=1), sgs)
        written = write_config(tmp_path / "written.ini", synth_data_block(train_size=64),
                               train_block(epochs=1).replace("seed = 11", "seed = 5"), sgs)
        grids = []
        for cfg, flags in ((flagged, ["--seed", "5"]), (written, [])):
            out = tmp_path / f"o-{len(grids)}"
            assert main(["grid-search", "--config", cfg, "--out", str(out),
                         "--ks", "2,5", *flags]) == 0
            grids.append((out / "grid.csv").read_text())
            assert "seed = 5" in (out / "resolved.ini").read_text()
        assert grids[0] == grids[1]

    @pytest.fixture
    def inline_pool(self, monkeypatch):
        """Puts a pool in place of ``ProcessPoolExecutor`` that runs its initializer
        and tasks in this process; returns the dict it records them in."""
        seen = {}

        class InlinePool:
            def __init__(self, max_workers, initializer, initargs):
                seen["max_workers"], seen["initargs"] = max_workers, initargs
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                seen["tasks"] = list(tasks)
                return map(fn, seen["tasks"])

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli, "_grid_data", None)
        return seen

    def test_workers_get_the_data_once(self, tmp_path, inline_pool):
        from spatialgrad.data import LabeledDataset
        from spatialgrad.training import TrainingConfig

        cfg = write_config(tmp_path / "exp.ini", synth_data_block(train_size=64),
                           train_block(epochs=1), "\n[sgs]\nenabled = false\n")
        assert main(["grid-search", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--ks", "2,5", "--jobs", "2"]) == 0
        model, fit, val = inline_pool["initargs"]
        assert isinstance(fit, LabeledDataset) and isinstance(val, LabeledDataset)
        assert len(fit) + len(val) == 64
        assert [type(task) for task in inline_pool["tasks"]] == [TrainingConfig, TrainingConfig]

    @pytest.mark.parametrize("jobs,ks,workers", [("8", "2,5", 2), ("2", "2,3,5", 2)])
    def test_pool_starts_at_most_one_worker_per_cell(self, tmp_path, inline_pool, jobs, ks,
                                                     workers):
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(train_size=64),
                           train_block(epochs=1), "\n[sgs]\nenabled = false\n")
        assert main(["grid-search", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--ks", ks, "--jobs", jobs]) == 0
        assert inline_pool["max_workers"] == workers
        assert len(inline_pool["tasks"]) == len(ks.split(","))

    def test_one_cell_trains_without_a_pool(self, tmp_path, inline_pool):
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(train_size=64),
                           train_block(epochs=1), "\n[sgs]\nenabled = false\n")
        out = tmp_path / "o"
        assert main(["grid-search", "--config", cfg, "--out", str(out),
                     "--ks", "5", "--jobs", "4"]) == 0
        assert inline_pool == {}
        assert (out / "grid.csv").exists()

    def test_jobs_do_not_change_the_grid(self, tmp_path):
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(train_size=64),
                           train_block(epochs=1),
                           "\n[sgs]\nwarmup_epochs = 0\nrefresh_every = 1\n")
        grids = []
        for jobs in ("1", "2"):
            out = tmp_path / f"o-{jobs}"
            assert main(["grid-search", "--config", cfg, "--out", str(out),
                         "--ks", "2,5", "--jobs", jobs]) == 0
            grids.append((out / "grid.csv").read_bytes())
        assert grids[0] == grids[1]

    def test_requires_a_grid(self, tmp_path):
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(), train_block())
        assert main(["grid-search", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("grid", [["--ks", "0,5"], ["--ks", "5,-1"], ["--ks", "2,x"],
                                      ["--alphas", "0,1", "--betas", "1"],
                                      ["--alphas", "1", "--betas", "-2"],
                                      ["--ks", "nan"], ["--alphas", "inf", "--betas", "1"],
                                      ["--ks", "5", "--alphas", "1", "--betas", "1"],
                                      ["--ks", "2,5", "--jobs", "0"],
                                      ["--ks", "2,5", "--jobs", "-3"],
                                      ["--ks", "2,5", "--validation-fraction", "1.0"],
                                      ["--ks", "2,5", "--validation-fraction", "1.5"],
                                      ["--ks", "2,5", "--validation-fraction", "-0.2"],
                                      ["--ks", "2,5", "--validation-fraction", "0"]])
    def test_invalid_cell_rejected_before_any_worker(self, tmp_path, monkeypatch, capsys,
                                                      grid):
        def no_training(*args):
            raise AssertionError("a grid cell trained before the grid was validated")

        monkeypatch.setattr(cli, "_grid_cell", no_training)
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(), train_block())
        out = tmp_path / "o"
        assert main(["grid-search", "--config", cfg, "--out", str(out), *grid]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (out / "grid.csv").exists()

    @pytest.mark.parametrize("measure", ["masks", "fixed"])
    def test_k_grid_on_a_measure_that_never_reads_k_is_rejected(self, tmp_path, monkeypatch,
                                                                capsys, measure):
        # Its cells would all train the same run, and one would be named best.
        def no_training(*args):
            raise AssertionError("a grid cell trained on a measure that never reads k")

        monkeypatch.setattr(cli, "_grid_cell", no_training)
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(), train_block(),
                           f"\n[sgs]\nmeasure = {measure}\n")
        out = tmp_path / "o"
        assert main(["grid-search", "--config", cfg, "--out", str(out), "--ks", "1,5,50"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: --ks") and f"measure = {measure}" in err
        assert not (out / "grid.csv").exists()

    @pytest.mark.parametrize("fraction", ["0.999", "0.995"])
    def test_split_with_an_empty_side_rejected_before_any_worker(self, tmp_path, monkeypatch,
                                                                 capsys, fraction):
        def no_training(*args):
            raise AssertionError("a grid cell trained before the split was validated")

        monkeypatch.setattr(cli, "_grid_cell", no_training)
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(train_size=96),
                           train_block())
        out = tmp_path / "o"
        assert main(["grid-search", "--config", cfg, "--out", str(out), "--ks", "2,5",
                     "--validation-fraction", fraction]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and fraction in err and "96 training samples" in err
        assert not (out / "grid.csv").exists()

    def test_cells_keep_config_settings(self):
        from spatialgrad.training import SgsSettings

        base = SgsSettings(enabled=False, measure="autocorr", bins=16)
        k_cell = cli._cell_settings(base, {"k": 2.0})
        assert (k_cell.enabled, k_cell.measure, k_cell.k, k_cell.bins) == (True, "autocorr",
                                                                           2.0, 16)
        ab_cell = cli._cell_settings(base, {"alpha": 2.0, "beta": 0.5})
        assert (ab_cell.measure, ab_cell.alpha, ab_cell.beta) == ("alpha_beta", 2.0, 0.5)
        assert base.enabled is False and base.k == 5.0


class TestParserChoices:
    @staticmethod
    def choices(command, dest):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        action = next(a for a in sub.choices[command]._actions if a.dest == dest)
        return tuple(action.choices)

    def test_verify_equivalence_choices_come_from_the_modules(self):
        assert self.choices("verify-equivalence", "mask_family") == MASK_FAMILIES
        assert self.choices("verify-equivalence", "optimizer") == KINDS


class TestMagnitude:
    def test_uniform_weights_give_ones(self, tmp_path):
        np.savez(tmp_path / "w.npz", **{"conv0.W": np.full((4, 2, 3, 3), 0.5),
                                        "dense5.W": np.ones((8, 10))})
        out = tmp_path / "o"
        assert main(["magnitude", "--weights", str(tmp_path / "w.npz"),
                     "--out", str(out)]) == 0
        records = json.loads((out / "magnitude.json").read_text())
        assert len(records) == 1  # dense weights are not kernel-shaped
        np.testing.assert_array_equal(np.array(records[0]["values"]), np.ones(9))
        assert list(records[0].items())[:3] == [("kind", "magnitude"), ("layer", "conv0.W"),
                                                ("epoch", None)]

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_weight_exits_2_and_writes_nothing(self, tmp_path, capsys, bad):
        w = np.ones((4, 2, 3, 3))
        w[1, 0, 2, 2] = bad
        np.savez(tmp_path / "w.npz", **{"conv0.W": w})
        out = tmp_path / "o"
        assert main(["magnitude", "--weights", str(tmp_path / "w.npz"),
                     "--out", str(out)]) == 2
        assert "error: conv weight tensor holds non-finite values" in capsys.readouterr().err
        assert not (out / "magnitude.json").exists()

    @pytest.mark.parametrize("name,write", [
        ("w.npy", lambda path: np.save(path, np.ones((4, 2, 3, 3)))),
        ("w.npz", lambda path: path.write_bytes(b"PK\x03\x04 not a zip archive")),
        ("w.npz", lambda path: write_zip(path, "notes.txt", "a note")),
        ("w.txt", lambda path: path.write_text("conv0.W 0.5\n")),
    ], ids=["npy_file", "pk_bytes_not_a_zip", "zip_with_text_member", "plain_text"])
    def test_file_that_is_not_an_archive_of_arrays_exits_2(self, tmp_path, capsys, name, write):
        path = tmp_path / name
        write(path)
        out = tmp_path / "o"
        assert main(["magnitude", "--weights", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path} is not an .npz archive of arrays"]
        assert not out.exists()

    def test_trained_weights_export(self, tmp_path):
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(), train_block(epochs=1),
                           "\n[sgs]\nenabled = false\n")
        run = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run)]) == 0
        out = tmp_path / "mag"
        assert main(["magnitude", "--weights", str(run / "weights.npz"),
                     "--out", str(out)]) == 0
        records = json.loads((out / "magnitude.json").read_text())
        assert len(records) == 2
        for record in records:
            values = np.array(record["values"])
            assert values.mean() == pytest.approx(1.0, rel=1e-9)

    def test_batch_norm_run_saves_running_statistics(self, tmp_path, monkeypatch):
        real_train_run, results = cli.train_run, []

        def recording_train_run(*args):
            results.append(real_train_run(*args))
            return results[-1]

        monkeypatch.setattr(cli, "train_run", recording_train_run)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(MODEL_BLOCK.replace("act=relu\n", "act=relu bn=on\n", 1)
                       + synth_data_block() + train_block(epochs=1)
                       + "\n[sgs]\nenabled = false\n")
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        bn = results[0].network.layers[1]
        with np.load(run / "weights.npz") as saved:
            assert set(saved.files) == {"conv0.W", "batchnorm1.gamma", "batchnorm1.beta",
                                        "batchnorm1.running_mean", "batchnorm1.running_var",
                                        "conv4.W", "dense8.W", "dense8.b"}
            assert np.array_equal(saved["batchnorm1.running_mean"], bn.running_mean)
            assert np.array_equal(saved["batchnorm1.running_var"], bn.running_var)
            assert not np.array_equal(bn.running_mean, np.zeros_like(bn.running_mean))
        out = tmp_path / "mag"
        assert main(["magnitude", "--weights", str(run / "weights.npz"),
                     "--out", str(out)]) == 0
        records = json.loads((out / "magnitude.json").read_text())
        assert [r["layer"] for r in records] == ["conv0.W", "conv4.W"]

    def test_missing_file_errors(self, tmp_path, capsys):
        assert main(["magnitude", "--weights", str(tmp_path / "none.npz"),
                     "--out", str(tmp_path / "o")]) == 1
        assert "no such weights file" in capsys.readouterr().err


class TestRecord:
    def test_json_record_roundtrip(self):
        m = ScalingMatrix(np.array([[0.5, 1.5], [1.5, 0.5]]))
        record = json.loads(json.dumps(cli._record(m.kind, "conv0", 3, m.values)))
        assert record["kind"] == "scaling"
        assert record["layer"] == "conv0"
        assert record["epoch"] == 3
        assert record["kernel"] == [2, 2]
        restored = np.array(record["values"]).reshape(2, 2)
        np.testing.assert_array_equal(restored, m.values)

    def test_record_tagged_dependence(self):
        s = SpatialDependenceMatrix(np.array([[0.5, 1.0]]))
        record = cli._record(s.kind, "conv2", 5, s.values)
        assert record["kind"] == "dependence"
        assert record["kernel"] == [1, 2]


class TestExitCodes:
    def test_runtime_failure_exits_2(self, tmp_path, capsys):
        # a learning rate that overflows the weights aborts with a diagnostic
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(),
                           train_block(extra="\nlr = 1e308\n").replace("lr = 0.05", ""),
                           "\n[sgs]\nenabled = false\n")
        with np.errstate(all="ignore"):
            assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["train"], ["grid-search", "--ks", "2,5"]],
                             ids=["train", "grid_search"])
    def test_runtime_failure_leaves_no_output_directory(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(),
                           train_block(extra="\nlr = 1e308\n").replace("lr = 0.05", ""),
                           "\n[sgs]\nenabled = false\n")
        out = tmp_path / "o"
        with np.errstate(all="ignore"):
            assert main([*command, "--config", cfg, "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_equivalence_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        import spatialgrad.cli as cli_mod
        from spatialgrad.reparam import DivergenceReport

        def fake_run(*args, **kwargs):
            report = DivergenceReport()
            report.steps, report.max_rel, report.mean_rel = [0], [1e-3], [1e-4]
            return report

        monkeypatch.setattr(cli_mod, "equivalence_run", fake_run)
        code = main(["verify-equivalence", "--kernel", "3", "--mask-family", "acb",
                     "--optimizer", "sgd", "--steps", "1", "--out", str(tmp_path)])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_precision_override(self, tmp_path):
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(), train_block(epochs=1),
                           "\n[sgs]\nenabled = false\n")
        out = tmp_path / "o"
        assert main(["train", "--config", cfg, "--out", str(out),
                     "--precision", "32"]) == 0
        assert "precision = 32" in (out / "resolved.ini").read_text()
        with np.load(out / "weights.npz") as weights:
            assert weights["conv0.W"].dtype == np.float32


class TestShippedConfigs:
    def test_all_shipped_configs_parse(self):
        from pathlib import Path

        from spatialgrad.expconfig import load_config

        configs = sorted((Path(__file__).parent.parent / "configs").glob("*.ini"))
        assert configs
        for path in configs:
            cfg = load_config(path)
            assert cfg.train.sgs.k == 5.0
            assert cfg.train.sgs.warmup_epochs == 1

    def test_reference_config_long_regime_values(self):
        from pathlib import Path

        from spatialgrad.expconfig import load_config

        cfg = load_config(Path(__file__).parent.parent / "configs" / "cifar_reference.ini")
        assert cfg.train.epochs == 600
        assert cfg.train.sgs.refresh_every == 30
        assert cfg.train.sgs.refresh_batches == 20
        assert cfg.train.schedule == "cosine"
        assert cfg.train.lr == 0.1

    def test_smoke_config_defaults(self):
        from pathlib import Path

        from spatialgrad.expconfig import load_config

        cfg = load_config(Path(__file__).parent.parent / "configs" / "digits_smoke.ini")
        assert cfg.train.sgs.refresh_every == 5
        assert cfg.train.sgs.refresh_batches == 2

    def test_shipped_configs_round_trip_through_resolved_ini(self, tmp_path):
        from pathlib import Path

        from spatialgrad.expconfig import load_config, resolved_ini

        for path in sorted((Path(__file__).parent.parent / "configs").glob("*.ini")):
            cfg = load_config(path)
            echo = tmp_path / path.name
            echo.write_text(resolved_ini(cfg))
            echoed = load_config(echo)
            assert echoed.train == cfg.train, path.name
            assert echoed.data == cfg.data, path.name


class TestConfigSchema:
    def test_omitted_keys_load_to_the_dataclass_defaults(self, tmp_path):
        from spatialgrad.expconfig import load_config
        from spatialgrad.optim import OptimizerConfig
        from spatialgrad.training import SgsSettings, TrainingConfig

        path = write_config(tmp_path / "exp.ini", synth_data_block(),
                            "\n[train]\nepochs = 3\nbatch_size = 16\nlr = 0.1\n")
        cfg = load_config(path)
        assert cfg.train.sgs == SgsSettings()
        assert cfg.train == TrainingConfig(epochs=3, batch_size=16, lr=0.1,
                                           optimizer=OptimizerConfig(momentum=0.9))

    @pytest.mark.parametrize("kind", ["sgd", "adam", "adagrad"])
    def test_momentum_applies_only_to_sgd_momentum(self, tmp_path, kind):
        from spatialgrad.expconfig import load_config
        from spatialgrad.optim import OptimizerConfig

        block = train_block().replace("optimizer = sgd_momentum", f"optimizer = {kind}")
        cfg = load_config(write_config(tmp_path / "exp.ini", synth_data_block(), block))
        assert cfg.train.optimizer == OptimizerConfig(kind=kind)

    def test_omitted_data_keys_resolve_to_the_kind_defaults(self, tmp_path):
        from spatialgrad.expconfig import SynthFieldData, load_config, resolved_ini

        cfg = load_config(write_config(tmp_path / "exp.ini", "\n[data]\nkind = synth_field\n",
                                       train_block()))
        assert cfg.data == SynthFieldData()
        assert cfg.raw["data"] == {"kind": "synth_field", "samples": "64", "channels": "1",
                                   "height": "28", "width": "28", "corr_length": "0",
                                   "seed": "0"}
        assert "corr_length = 0" in resolved_ini(cfg)

    @pytest.mark.parametrize("kind", ["sgd", "adam", "adagrad"])
    def test_resolved_momentum_is_the_optimizer_momentum(self, tmp_path, caplog, kind):
        from spatialgrad.expconfig import load_config, resolved_ini

        written = train_block().replace("optimizer = sgd_momentum", f"optimizer = {kind}")
        omitted = written.replace("momentum = 0.9", "")
        for block, warnings in ((written, 1), (omitted, 0)):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="spatialgrad.optim"):
                cfg = load_config(write_config(tmp_path / "exp.ini", synth_data_block(), block))
            assert len(caplog.messages) == warnings
            assert all(kind in m and "momentum" in m for m in caplog.messages)
            assert cfg.raw["train"]["momentum"] == "0.0"
            assert "momentum = 0.0" in resolved_ini(cfg)

    @pytest.mark.parametrize("word", sorted({case(w) for w in BOOLEAN_WORDS
                                             for case in (str.lower, str.upper)}))
    def test_enabled_reads_configparser_boolean_words(self, tmp_path, word):
        from spatialgrad.expconfig import load_config

        cfg = load_config(write_config(tmp_path / "exp.ini", synth_data_block(), train_block(),
                                       f"\n[sgs]\nenabled = {word}\n"))
        assert cfg.train.sgs.enabled is BOOLEAN_WORDS[word.lower()]

    def test_train_and_sgs_accept_exactly_their_keys(self):
        from spatialgrad.expconfig import _SGS_SCHEMA, _TRAIN_SCHEMA

        assert set(_TRAIN_SCHEMA) == {"epochs", "batch_size", "lr", "schedule", "optimizer",
                                      "momentum", "weight_decay", "seed", "precision"}
        assert set(_SGS_SCHEMA) == {
            "enabled", "measure", "k", "refresh_every", "refresh_batches", "warmup_epochs",
            "bins", "redundancy_filter", "scaling_position", "alpha", "beta",
            "fixed_values", "mask_family"}

    @pytest.mark.parametrize("line", ["epsilon_floor = 1e-3", "epsilon_floor = -1",
                                      "redundancy_filter = 0.3", "redundancy_filter = -0.5",
                                      "redundancy_filter = nan"])
    def test_a_floor_or_numeric_filter_fails_before_any_dataset(self, tmp_path, monkeypatch,
                                                                capsys, line):
        # The floor is scaling.EPSILON_FLOOR and the filter threshold one bin width.
        def no_dataset(data):
            raise AssertionError("a dataset was built before the config was validated")

        monkeypatch.setattr(cli, "build_datasets", no_dataset)
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(), train_block(),
                           f"\n[sgs]\n{line}\n")
        key, value = line.split(" = ")
        error = ("[sgs] unknown keys: ['epsilon_floor']" if key == "epsilon_floor"
                 else f"[sgs] redundancy_filter = '{value}' must be off")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"config error: {error}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section,line", [("train", "optimizer = rmsprop"),
                                              ("train", "momentum = -1"),
                                              ("train", "seed = -1"),
                                              ("train", "lr = nan"), ("train", "lr = inf"),
                                              ("train", "weight_decay = inf"),
                                              ("train", "weight_decay = nan"),
                                              ("train", "momentum = nan"),
                                              ("sgs", "enabled = maybe"),
                                              ("sgs", "measure = entropy"),
                                              ("sgs", "k = 0"), ("sgs", "k = nan"),
                                              ("sgs", "k = inf"),
                                              ("sgs", "bins = 1"),
                                              ("sgs", "alpha = 0"), ("sgs", "alpha = inf"),
                                              ("sgs", "beta = -1"),
                                              ("sgs", "measure = masks\nmask_family = nope"),
                                              ("sgs", "measure = fixed\nfixed_values = 1,1,1\n"
                                                      "  1,5,1\n  1,1,1"),
                                              ("sgs", "measure = fixed\nfixed_values = 1,1,1\n"
                                                      "  1,-1,1\n  1,1,3")])
    def test_dataclass_validation_is_a_config_error(self, tmp_path, capsys, section, line):
        if section == "train":
            key = line.split(" =")[0]
            block = "\n".join(ln for ln in train_block().splitlines()
                              if not ln.startswith(key)) + f"\n{line}\n"
            sgs = ""
        else:
            block, sgs = train_block(), f"\n[sgs]\n{line}\n"
        cfg = write_config(tmp_path / "exp.ini", synth_data_block(), block, sgs)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"config error: [{section}]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestArtifactWriters:
    # Calls that would render or write an artifact outside the CLI.
    WRITES = re.compile(r"""csv\.writer|json\.dumps?\(|write_text|write_bytes|np\.save"""
                        r"""|open\([^)]*["'][rab+]*w""")

    def test_only_the_cli_writes_files(self):
        package = Path(cli.__file__).parent
        found = [f"{path.name}:{n}: {line.strip()}"
                 for path in sorted(package.glob("*.py")) if path.name != "cli.py"
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if self.WRITES.search(line)]
        assert found == []

    def test_the_scan_sees_each_writing_call(self):
        for line in ['writer = csv.writer(f)', 'json.dump(records, f)', 'json.dumps(record)',
                     '(out / "a").write_text(text)', 'np.savez(path, **arrays)',
                     'with open(path, "w", newline="") as f:', "open(p, 'wb')"]:
            assert self.WRITES.search(line), line
        assert not self.WRITES.search('with open(images_path, "rb") as f:')
