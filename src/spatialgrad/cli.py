"""Command-line entry point: train, verify-equivalence, inspect-scaling,
grid-search, magnitude.

Every command is deterministic given its config and seed, and writes plain
CSV / JSON / JSON-lines artifacts meant for offline plotting. This module
renders every artifact; the library modules only return values. Exit codes:
0 success, 1 config error, 2 runtime or numeric failure, 3 equivalence check
failed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import sys
import zipfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
from numpy.lib.npyio import NpzFile

from .data import LabeledDataset
from .expconfig import ConfigError, build_datasets, load_config, resolved_ini
from .network import DenseSpec, kernel_magnitude_matrix, parameter_name
from .optim import KINDS as OPTIMIZER_KINDS
from .optim import OptimizerConfig
from .reparam import MASK_FAMILIES, equivalence_run, standard_mask_sets
from .training import (
    EpochMetrics,
    EvalImageShapeError,
    Run,
    SgsSettings,
    TrainingConfig,
    build_run,
    refresh_scalings,
    train,
    train_run,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_EQUIVALENCE_FAIL = 3

EQUIVALENCE_TOLERANCE = 1e-8


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _overrides(args) -> dict[str, dict[str, str]]:
    """``--seed`` and ``--precision`` as [train] INI text for ``load_config``."""
    given = {key: getattr(args, key) for key in ("seed", "precision")}
    return {"train": {key: str(value) for key, value in given.items() if value is not None}}


def _load(args) -> tuple:
    cfg = load_config(args.config, _overrides(args))
    train_ds, eval_ds = build_datasets(cfg.data)
    return cfg, train_ds, eval_ds


def _build_run(cfg, ds: LabeledDataset, class_count: int) -> Run:
    """``build_run`` on ``ds``; called before anything is written, so that a model
    whose shapes do not chain on the data is a config error."""
    try:
        return build_run(cfg.model, ds.images.shape[1:], class_count, cfg.train)
    except ValueError as exc:
        raise ConfigError(f"[model] {exc}") from exc


def _echo_config(cfg, out: Path) -> None:
    (out / "resolved.ini").write_text(resolved_ini(cfg))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _record(kind: str, layer: str, epoch: int | None, values: np.ndarray) -> dict:
    """The JSON record of one kernel-shaped matrix; ``layer`` is the key of its
    conv weight in ``weights.npz``, and ``epoch`` is ``None`` for a matrix no
    refresh made."""
    kx, ky = values.shape
    return {"kind": kind, "layer": layer, "epoch": epoch, "kernel": [int(kx), int(ky)],
            "values": [float(v) for v in values.ravel()]}


def _refresh_records(run: Run) -> list[dict]:
    """The run's refresh records: per refresh in order, and in it per conv layer
    in order, the layer's dependence record when it has one, then its scaling record."""
    return [_record(m.kind, parameter_name(idx, run.network.layers[idx], "W"), epoch, m.values)
            for epoch, refresh in run.refreshes
            for idx in sorted(refresh) for m in refresh[idx] if m is not None]


def cmd_train(args) -> int:
    cfg, train_ds, eval_ds = _load(args)
    run = _build_run(cfg, train_ds, train_ds.class_count)
    try:
        train_run(run, train_ds, eval_ds)
    except EvalImageShapeError as exc:
        raise ConfigError(f"[data] {exc}") from exc
    out = _out_dir(args.out)
    _echo_config(cfg, out)
    _write_csv(out / "metrics.csv", [f.name for f in fields(EpochMetrics)],
               [astuple(m) for m in run.metrics])
    (out / "scalings.jsonl").write_text("".join(
        json.dumps(record) + "\n" for record in _refresh_records(run)))
    np.savez(out / "weights.npz", **run.final_weights())
    last = run.metrics[-1]
    print(f"trained {cfg.train.epochs} epochs: "
          f"train_loss={last.train_loss:.4f} eval_acc={last.eval_acc:.4f}")
    print(f"wrote {out / 'metrics.csv'}, {out / 'scalings.jsonl'}, {out / 'weights.npz'}")
    return EXIT_OK


def cmd_verify_equivalence(args) -> int:
    kernel = (args.kernel, args.kernel)
    # Each ValueError raised here rejects a flag value; the run itself
    # reports overflow through the report, not by raising.
    try:
        masks = standard_mask_sets(kernel, args.mask_family, count=args.mask_count,
                                   seed=args.seed)
        optimizer = OptimizerConfig(
            kind=args.optimizer,
            momentum=args.momentum,
            weight_decay=args.weight_decay,
        )
        report = equivalence_run(masks, optimizer, steps=args.steps, seed=args.seed,
                                 kernel=kernel, lr=args.lr)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _out_dir(args.out)
    _write_csv(out / "divergence.csv",
               ["step", "max_rel_divergence", "mean_rel_divergence"],
               zip(report.steps, report.max_rel, report.mean_rel))
    print(f"wrote {out / 'divergence.csv'}")
    if report.diverged_numerically:
        print(f"NO VERDICT: both trainees overflowed at step {report.steps[-1]}; "
              f"lower --lr (heavy mask families multiply the effective rate by "
              f"their coverage)", file=sys.stderr)
        return EXIT_RUNTIME
    if not optimizer.is_linear:
        print(f"WARNING: optimizer '{optimizer.kind}' is outside the linear family; "
              "no equivalence guarantee (report is informational)")
        print(f"max divergence over {args.steps} steps: {report.max_divergence:.3e}")
        return EXIT_OK
    if report.max_divergence <= EQUIVALENCE_TOLERANCE:
        print(f"PASS: max divergence {report.max_divergence:.3e} "
              f"<= {EQUIVALENCE_TOLERANCE:.0e} over {args.steps} steps")
        return EXIT_OK
    print(f"FAIL: max divergence {report.max_divergence:.3e} "
          f"> {EQUIVALENCE_TOLERANCE:.0e}")
    return EXIT_EQUIVALENCE_FAIL


def cmd_inspect_scaling(args) -> int:
    cfg, train_ds, _ = _load(args)
    # Inspection never touches labels; size the head by the model itself so
    # unlabeled synthetic datasets work.
    dense_widths = [s.out_features for s in cfg.model if isinstance(s, DenseSpec)]
    class_count = dense_widths[-1] if dense_widths else train_ds.class_count
    run = _build_run(cfg, train_ds, class_count)
    out = _out_dir(args.out)
    _echo_config(cfg, out)
    refresh_scalings(run, train_ds)  # the trainer's refresh, at epoch 0
    records = _refresh_records(run)
    path = out / "scalings.json"
    path.write_text(json.dumps(records, indent=2))
    print(f"wrote {path} ({len(records)} records)")
    return EXIT_OK


def _cell_settings(sgs: SgsSettings, cell: dict) -> SgsSettings:
    """The config's scaling settings with one grid cell applied; a cell that
    ``SgsSettings`` rejects is a config error."""
    measure = "alpha_beta" if "alpha" in cell else sgs.measure
    try:
        return replace(sgs, enabled=True, measure=measure, **cell)
    except ValueError as exc:
        raise ConfigError(f"grid cell {cell}: {exc}") from exc


# (model, fit, val) shared by every grid cell of this process. ``_grid_init``
# sets it once per worker process when the cells run in a pool, so a cell's
# task carries only its TrainingConfig.
_grid_data: tuple | None = None


def _grid_init(model: list, fit: LabeledDataset, val: LabeledDataset) -> None:
    global _grid_data
    _grid_data = (model, fit, val)


def _grid_cell(run: TrainingConfig) -> tuple[float, float]:
    """(validation accuracy, final training loss) of one grid cell on the data
    ``_grid_init`` set; runs in a worker process when the cells run in a pool."""
    model, fit, val = _grid_data
    last = train(model, fit, val, run).metrics[-1]
    return last.eval_acc, last.train_loss


def _float_list(raw: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in raw.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag} must be a comma list of numbers, got {raw!r}") from exc


def cmd_grid_search(args) -> int:
    cfg, train_ds, _ = _load(args)  # fail fast on config errors before spawning workers
    _build_run(cfg, train_ds, train_ds.class_count)
    if args.ks and (args.alphas or args.betas):
        raise ConfigError("grid-search takes --ks or --alphas and --betas, not both")
    if args.ks:
        cells = [{"k": k} for k in _float_list(args.ks, "--ks")]
    elif args.alphas and args.betas:
        alphas = _float_list(args.alphas, "--alphas")
        betas = _float_list(args.betas, "--betas")
        cells = [{"alpha": a, "beta": b} for a in alphas for b in betas]
    else:
        raise ConfigError("grid-search needs either --ks or both --alphas and --betas")
    # Every cell is validated and the split is made before any worker trains.
    runs = [replace(cfg.train, sgs=_cell_settings(cfg.train.sgs, cell)) for cell in cells]
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    fraction, n = args.validation_fraction, len(train_ds)
    if not 0 < fraction < 1:
        raise ConfigError(f"--validation-fraction must lie in (0, 1), got {fraction}")
    n_val = max(1, int(round(fraction * n)))
    if n_val >= n:
        raise ConfigError(f"--validation-fraction {fraction} puts {n_val} of {n} "
                          "training samples in validation, leaving none to train on")
    order = np.random.default_rng(np.random.SeedSequence([cfg.train.seed, 917])).permutation(n)
    fit, val = (LabeledDataset(train_ds.images[idx], train_ds.labels[idx], train_ds.class_count)
                for idx in (order[n_val:], order[:n_val]))
    shared = (cfg.model, fit, val)
    workers = min(args.jobs, len(cells))  # a pool starts all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_grid_init,
                                 initargs=shared) as pool:
            results = list(pool.map(_grid_cell, runs))
    else:
        _grid_init(*shared)
        try:
            results = [_grid_cell(run) for run in runs]
        finally:
            _grid_init(None, None, None)  # the datasets do not outlive the command

    out = _out_dir(args.out)
    _echo_config(cfg, out)
    path = out / "grid.csv"
    _write_csv(path, [*cells[0], "val_acc", "final_train_loss"],
               [[*cell.values(), *result] for cell, result in zip(cells, results)])
    best_cell, (best_acc, _) = max(zip(cells, results), key=lambda pair: pair[1][0])
    print(f"wrote {path}; best cell: "
          + ", ".join(f"{c}={v}" for c, v in best_cell.items())
          + f" (val_acc={best_acc:.4f})")
    return EXIT_OK


def cmd_magnitude(args) -> int:
    path = Path(args.weights)
    if not path.exists():
        raise ConfigError(f"no such weights file: {path}")
    arrays = None  # numpy's own errors are replaced: for a text file, it speaks of pickles
    with open(path, "rb") as f, contextlib.suppress(ValueError, EOFError, zipfile.BadZipFile):
        archive = np.load(f)  # an ndarray for a .npy file
        if isinstance(archive, NpzFile):
            arrays = {name: archive[name] for name in archive.files}
    if arrays is None or not all(isinstance(arr, np.ndarray) for arr in arrays.values()):
        raise ValueError(f"{path} is not an .npz archive of arrays")
    records = [_record("magnitude", name, None, kernel_magnitude_matrix(arr))
               for name, arr in arrays.items() if arr.ndim == 4]
    target = _out_dir(args.out) / "magnitude.json"
    target.write_text(json.dumps(records, indent=2))
    print(f"wrote {target} ({len(records)} conv layers)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatialgrad",
        description="Spatially scaled convolutional training and its reparameterization oracle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="experiment INI file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--precision", type=int, choices=(32, 64), default=None,
                       help="override the config precision")

    p_train = sub.add_parser("train", help="train a model per the config")
    add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_ver = sub.add_parser("verify-equivalence",
                           help="lockstep branched-vs-scaled training check")
    p_ver.add_argument("--kernel", type=int, default=3, help="square kernel size")
    p_ver.add_argument("--mask-family", default="acb",
                       choices=MASK_FAMILIES)
    p_ver.add_argument("--mask-count", type=int, default=None,
                       help="random-family mask count (default 3)")
    p_ver.add_argument("--optimizer", default="sgd_momentum",
                       choices=OPTIMIZER_KINDS)
    p_ver.add_argument("--momentum", type=float, default=None,
                       help="sgd_momentum's momentum (default 0.9)")
    p_ver.add_argument("--weight-decay", type=float, default=1e-4)
    p_ver.add_argument("--lr", type=float, default=0.05)
    p_ver.add_argument("--steps", type=int, default=100)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", required=True)
    p_ver.set_defaults(func=cmd_verify_equivalence)

    p_insp = sub.add_parser("inspect-scaling",
                            help="export dependence and scaling matrices without training")
    add_common(p_insp)
    p_insp.set_defaults(func=cmd_inspect_scaling)

    p_grid = sub.add_parser("grid-search", help="grid search over k or alpha/beta scalings")
    add_common(p_grid)
    p_grid.add_argument("--ks", default=None, help="comma list of k values")
    p_grid.add_argument("--alphas", default=None, help="comma list of alpha values")
    p_grid.add_argument("--betas", default=None, help="comma list of beta values")
    p_grid.add_argument("--validation-fraction", type=float, default=0.2)
    p_grid.add_argument("--jobs", type=int, default=1,
                        help="worker processes (>= 1), at most one per cell")
    p_grid.set_defaults(func=cmd_grid_search)

    p_mag = sub.add_parser("magnitude", help="kernel magnitude matrices of saved weights")
    p_mag.add_argument("--weights", required=True, help="weights.npz from train")
    p_mag.add_argument("--out", required=True)
    p_mag.set_defaults(func=cmd_magnitude)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
