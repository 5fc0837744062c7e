"""The benchmark's four workloads: one timed op each, its set-up and its checks.

Every workload is built from the benchmark seed alone, and the seed reaches
the program only through the generated INI config or the generated data.
The program is always called through module attributes (``training.train``,
``reparam.equivalence_run``, ...) so that the tracer's wrappers, when
installed, are the functions that run.
"""

from __future__ import annotations

import configparser
import hashlib
import itertools
from pathlib import Path

import numpy as np

import hostspeed
from spatialgrad import dependence, expconfig, network, reparam, training
from spatialgrad.cli import EQUIVALENCE_TOLERANCE
from spatialgrad.optim import OptimizerConfig

# Every seed tried (0-3, 5, 8, 13, 21, 34, 1234, 99991) reaches 1.000 by the last epoch.
TRAIN_EVAL_ACC_FLOOR = 0.95

REFRESH_MODEL = """
conv out=32 kernel=3 pad=1 act=relu
maxpool
conv out=8 kernel=7 pad=3 act=relu
maxpool
flatten
dense out=10
softmax_xent"""


def _write_ini(parser: configparser.ConfigParser, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        parser.write(f)
    return path


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(np.ascontiguousarray(chunk).tobytes())
    return h.hexdigest()[:16]


class Workload:
    """One timed op (``op``), the program set-up it needs (``setup``), and checks.

    ``check`` returns the reasons an op's output is wrong (empty when right);
    ``check_run`` runs once per run, outside the timed section. ``work`` is
    the op's work in the workload's own unit, ``digest`` hashes every op's
    output in order.
    """

    name: str
    op_label: str  # the report prints <op_label>_s_p50 and <work_label>_per_s
    work_label: str
    reference: hostspeed.Reference  # scales the op's and the set-up's times

    def __init__(self, seed: int, root: Path, workdir: Path):
        """``root`` is the source checkout; generated inputs go to ``workdir``."""
        self.seed = seed

    def setup(self):
        raise NotImplementedError

    def op(self, state):
        raise NotImplementedError

    def check(self, state, result) -> list[str]:
        return []

    def check_run(self, state) -> list[str]:
        return []

    def work(self, state, result) -> float:
        return 1.0

    def digest(self, results) -> str:
        raise NotImplementedError


class TrainDigits(Workload):
    """``training.train()`` on ``configs/digits_smoke.ini`` with the seed written in."""

    name = "train_digits"
    op_label, work_label = "train", "train_samples"
    reference = hostspeed.ARRAYS

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        parser = configparser.ConfigParser()
        if not parser.read(root / "configs" / "digits_smoke.ini"):
            raise FileNotFoundError(root / "configs" / "digits_smoke.ini")
        parser["data"]["seed"] = str(seed)
        parser["train"]["seed"] = str(seed)
        self.config_path = _write_ini(parser, workdir / f"{self.name}-seed{seed}.ini")

    def setup(self):
        cfg = expconfig.load_config(self.config_path)
        train_ds, eval_ds = expconfig.build_datasets(cfg.data)
        return cfg, train_ds, eval_ds

    def op(self, state):
        cfg, train_ds, eval_ds = state
        return training.train(cfg.model, train_ds, eval_ds, cfg.train)

    def check(self, state, result):
        errors = [f"epoch {m.epoch}: non-finite loss {m.train_loss}"
                  for m in result.metrics if not np.isfinite(m.train_loss)]
        acc = result.metrics[-1].eval_acc
        if not acc >= TRAIN_EVAL_ACC_FLOOR:
            errors.append(f"final eval_acc {acc} below floor {TRAIN_EVAL_ACC_FLOOR}")
        return errors

    def work(self, state, result):
        cfg, train_ds, _ = state
        return cfg.train.epochs * len(train_ds)

    def digest(self, results):
        return _sha(w for r in results for _, w in sorted(r.final_weights().items()))


class EquivK7(Workload):
    """Lockstep branched-vs-scaled run, 7x7 kernel, random masks, README settings."""

    name = "equiv_k7"
    op_label, work_label = "equiv", "equiv_steps"
    reference = hostspeed.CALLS
    steps = 100

    def setup(self):
        masks = reparam.standard_mask_sets((7, 7), "random", count=4, seed=self.seed)
        optimizer = OptimizerConfig(kind="sgd_momentum", momentum=0.9, weight_decay=1e-4)
        return masks, optimizer

    def op(self, state):
        masks, optimizer = state
        return reparam.equivalence_run(masks, optimizer, steps=self.steps, seed=self.seed,
                                       kernel=(7, 7), lr=0.05)

    def check(self, state, result):
        errors = []
        if result.diverged_numerically:
            errors.append("both trainees overflowed")
        if len(result.steps) != self.steps:
            errors.append(f"{len(result.steps)} steps recorded, expected {self.steps}")
        if not result.max_divergence <= EQUIVALENCE_TOLERANCE:
            errors.append(f"max divergence {result.max_divergence:.3e} "
                          f"> {EQUIVALENCE_TOLERANCE:.0e}")
        return errors

    def work(self, state, result):
        return len(result.steps)

    def digest(self, results):
        return _sha(np.array(r.max_rel + r.mean_rel) for r in results)


class RefreshMiK7(Workload):
    """``training.inspect_scalings`` with measure=mi on fresh 3x3 + 7x7 networks.

    Ops cycle through ``NETWORKS`` networks built from the seed. With the
    filter on, the cost of a refresh depends on the network's weights: one
    network per seed made the median refresh differ by up to 16 % between
    seeds. The count is odd so that a traced run, which alternates traced and
    untraced ops, traces every network.
    """

    name = "refresh_mi_k7"
    op_label, work_label = "refresh", "refreshes"
    reference = hostspeed.ARRAYS
    redundancy_filter = "off"
    NETWORKS = 9

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        parser = configparser.ConfigParser()
        parser.read_dict({
            "model": {"layers": REFRESH_MODEL},
            "data": {"kind": "synth_digits", "train_size": "2000", "test_size": "1",
                     "seed": str(seed)},
            "train": {"epochs": "1", "batch_size": "64", "lr": "0.05", "seed": str(seed)},
            "sgs": {"measure": "mi", "refresh_batches": "2", "bins": "32",
                    "redundancy_filter": self.redundancy_filter},
        })
        self.config_path = _write_ini(parser, workdir / f"{self.name}-seed{seed}.ini")

    def setup(self):
        # The same construction as ``spatialgrad inspect-scaling``; the first
        # network is the one it builds.
        cfg = expconfig.load_config(self.config_path)
        train_ds, _ = expconfig.build_datasets(cfg.data)
        ds = train_ds.astype(cfg.train.dtype)
        init_seed, _, refresh_seed = np.random.SeedSequence(cfg.train.seed).spawn(3)
        nets = [network.build_network(cfg.model, ds.images.shape[1:], ds.class_count,
                                      np.random.default_rng(s), cfg.train.dtype)
                for s in [init_seed, *init_seed.spawn(self.NETWORKS - 1)]]
        return cfg, ds, nets, itertools.cycle(nets), np.random.default_rng(refresh_seed)

    def op(self, state):
        cfg, ds, _, nets, rng = state
        return training.inspect_scalings(next(nets), ds, cfg.train.sgs, rng,
                                         cfg.train.batch_size)

    def check(self, state, result):
        errors = []
        for idx, (dep, _) in sorted(result.items()):
            if dep is None:
                errors.append(f"conv{idx}: estimator fell back to uniform scaling")
                continue
            v = dep.values
            kx, ky = v.shape
            if not (np.all(v >= 0) and np.all(v <= 1)):
                errors.append(f"conv{idx}: dependence outside [0, 1]")
            if v[kx // 2, ky // 2] != 1.0:
                errors.append(f"conv{idx}: center dependence {v[kx // 2, ky // 2]!r} != 1")
        return errors

    def check_run(self, state):
        """The unfiltered estimate equals a per-displacement collect_pairs rebuild."""
        cfg, ds, (net, *_), _, _ = state
        captured = training._capture_feature_maps(net, ds, cfg.train.sgs,
                                                  np.random.default_rng(self.seed),
                                                  cfg.train.batch_size)
        errors = []
        for idx, maps in sorted(captured.items()):
            kx, ky = net.layers[idx].spec.kernel
            cfg_bins = dependence.BinningConfig(bins=cfg.train.sgs.bins)
            fast = dependence.spatial_dependence_mi(maps, (kx, ky), cfg_bins).values
            slow = np.array([[dependence.normalized_mi(
                dependence.collect_pairs(maps, (a - kx // 2, b - ky // 2), cfg_bins))
                for b in range(ky)] for a in range(kx)])
            if not np.array_equal(fast, slow):
                errors.append(f"conv{idx}: estimate differs from the collect_pairs rebuild "
                              f"by {np.abs(fast - slow).max():.3e}")
        return errors

    def digest(self, results):
        return _sha(dep.values for r in results for _, (dep, _) in sorted(r.items())
                    if dep is not None)


class RefreshMiK7Filtered(RefreshMiK7):
    """The same refresh with the redundancy filter at one bin width."""

    name = "refresh_mi_k7_filtered"
    redundancy_filter = "auto"


WORKLOADS = {w.name: w for w in (TrainDigits, EquivK7, RefreshMiK7, RefreshMiK7Filtered)}
