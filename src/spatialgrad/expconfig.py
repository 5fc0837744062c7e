"""Experiment configuration files: INI sections [model], [data], [train], [sgs].

Unknown sections or keys are rejected, and every value is validated against
the module preconditions at load time so a bad config fails before any work
starts. ``resolved_ini`` renders the fully-defaulted configuration back to
INI text for provenance.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import LabeledDataset, read_cifar_binary, read_idx, synth_correlated_field, synth_digits
from .network import (
    ConvLayerSpec,
    DenseSpec,
    FlattenSpec,
    GlobalAvgPoolSpec,
    MaxPoolSpec,
    SoftmaxXentSpec,
    validate_model_spec,
)
from .optim import KINDS as OPTIMIZER_KINDS
from .optim import OptimizerConfig
from .training import MEASURES, SgsSettings, TrainingConfig


class ConfigError(ValueError):
    """A configuration file is malformed; the message names the offending key."""


_DATA_KEYS = {
    "idx": {"kind", "train_images", "train_labels", "test_images", "test_labels"},
    "cifar10": {"kind", "train_files", "test_files"},
    "synth_digits": {"kind", "train_size", "test_size", "seed"},
    "synth_field": {"kind", "samples", "channels", "height", "width", "corr_length", "seed"},
}

# Sizes of the synthetic digit sets when the config leaves them out.
_SYNTH_DIGITS_SIZES = {"train_size": "2000", "test_size": "500"}

_TRAIN_KEYS = {"epochs", "batch_size", "lr", "schedule", "optimizer", "momentum",
               "weight_decay", "seed", "precision"}

_SGS_KEYS = {"enabled", "measure", "k", "refresh_every", "refresh_batches", "warmup_epochs",
             "bins", "epsilon_floor", "redundancy_filter", "scaling_position", "alpha", "beta",
             "fixed_values", "mask_family"}

_TRAIN_DEFAULTS = {
    "schedule": "constant",
    "optimizer": "sgd_momentum",
    "momentum": "0.9",
    "weight_decay": "0.0",
    "seed": "0",
    "precision": "64",
}

# Shipped scaling defaults: k=5 with a refresh every 5 epochs from 2 batches
# after a 1-epoch warm-up.
_SGS_DEFAULTS = {
    "enabled": "true",
    "measure": "mi",
    "k": "5",
    "refresh_every": "5",
    "refresh_batches": "2",
    "warmup_epochs": "1",
    "bins": "32",
    "epsilon_floor": "1e-3",
    "redundancy_filter": "off",
    "scaling_position": "pre",
    "alpha": "1.0",
    "beta": "1.0",
    "mask_family": "acb",
}


@dataclass
class DataConfig:
    kind: str
    options: dict[str, str] = field(default_factory=dict)


@dataclass
class ExperimentConfig:
    model: list
    data: DataConfig
    train: TrainingConfig
    raw: dict[str, dict[str, str]] = field(default_factory=dict)


def _get(section: dict[str, str], key: str, where: str) -> str:
    if key not in section:
        raise ConfigError(f"missing key '{key}' in section [{where}]")
    return section[key]


def _parse_typed(raw: str, key: str, kind: type, where: str):
    try:
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"[{where}] {key} = {raw!r} is not a valid {kind.__name__}") from exc


def _parse_kernel(raw: str, where: str) -> tuple[int, int]:
    parts = raw.lower().split("x")
    try:
        if len(parts) == 1:
            k = int(parts[0])
            return (k, k)
        if len(parts) == 2:
            return (int(parts[0]), int(parts[1]))
    except ValueError:
        pass
    raise ConfigError(f"[{where}] kernel {raw!r} must look like '3' or '3x5'")


def parse_layer_line(line: str) -> object:
    """One model line, e.g. ``conv out=8 kernel=3 pad=1 act=relu bn=off``."""
    tokens = line.split()
    kind, opts = tokens[0], tokens[1:]
    pairs = {}
    for tok in opts:
        if "=" not in tok:
            raise ConfigError(f"[model] bad token {tok!r} in line {line!r}")
        key, _, value = tok.partition("=")
        pairs[key] = value
    known: dict[str, set[str]] = {
        "conv": {"out", "kernel", "stride", "pad", "act", "bn"},
        "maxpool": set(),
        "gap": set(),
        "flatten": set(),
        "dense": {"out"},
        "softmax_xent": set(),
    }
    if kind not in known:
        raise ConfigError(f"[model] unknown layer kind {kind!r}")
    unknown = set(pairs) - known[kind]
    if unknown:
        raise ConfigError(f"[model] unknown options {sorted(unknown)} for {kind!r}")
    if kind == "conv":
        if "out" not in pairs or "kernel" not in pairs:
            raise ConfigError("[model] conv needs out= and kernel=")
        try:
            return ConvLayerSpec(
                out_channels=int(pairs["out"]),
                kernel=_parse_kernel(pairs["kernel"], "model"),
                stride=int(pairs.get("stride", "1")),
                padding=int(pairs.get("pad", "0")),
                activation=pairs.get("act", "relu"),
                batch_norm=_parse_typed(pairs.get("bn", "off"), "bn", bool, "model"),
            )
        except ValueError as exc:
            raise ConfigError(f"[model] {exc}") from exc
    if kind == "dense":
        if "out" not in pairs:
            raise ConfigError("[model] dense needs out=")
        return DenseSpec(out_features=_parse_typed(pairs["out"], "out", int, "model"))
    return {"maxpool": MaxPoolSpec, "gap": GlobalAvgPoolSpec,
            "flatten": FlattenSpec, "softmax_xent": SoftmaxXentSpec}[kind]()


def load_config(path: str | Path) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    sections = set(parser.sections())
    required = {"model", "data", "train"}
    missing = required - sections
    if missing:
        raise ConfigError(f"missing sections: {sorted(missing)}")
    unknown = sections - (required | {"sgs"})
    if unknown:
        raise ConfigError(f"unknown sections: {sorted(unknown)}")

    model_section = dict(parser["model"])
    if set(model_section) != {"layers"}:
        raise ConfigError("[model] must contain exactly the 'layers' key")
    lines = [ln.strip() for ln in model_section["layers"].splitlines() if ln.strip()]
    if not lines:
        raise ConfigError("[model] layers is empty")
    model = [parse_layer_line(ln) for ln in lines]
    try:
        validate_model_spec(model)
    except ValueError as exc:
        raise ConfigError(f"[model] {exc}") from exc

    data_section = dict(parser["data"])
    kind = _get(data_section, "kind", "data")
    if kind not in _DATA_KEYS:
        raise ConfigError(f"[data] unknown kind {kind!r}, expected one of {sorted(_DATA_KEYS)}")
    unknown_keys = set(data_section) - _DATA_KEYS[kind]
    if unknown_keys:
        raise ConfigError(f"[data] unknown keys for kind {kind!r}: {sorted(unknown_keys)}")
    if kind == "synth_digits":
        for key, default in _SYNTH_DIGITS_SIZES.items():
            size = _parse_typed(data_section.get(key, default), key, int, "data")
            if size < 1:
                raise ConfigError(f"[data] {key} = {size} must be >= 1")
    data = DataConfig(kind=kind, options=data_section)

    train_section = dict(_TRAIN_DEFAULTS)
    train_section.update(parser["train"])
    unknown_keys = set(train_section) - _TRAIN_KEYS
    if unknown_keys:
        raise ConfigError(f"[train] unknown keys: {sorted(unknown_keys)}")

    sgs_section = dict(_SGS_DEFAULTS)
    if parser.has_section("sgs"):
        sgs_section.update(parser["sgs"])
    unknown_keys = set(sgs_section) - _SGS_KEYS
    if unknown_keys:
        raise ConfigError(f"[sgs] unknown keys: {sorted(unknown_keys)}")

    optimizer_kind = train_section["optimizer"]
    if optimizer_kind not in OPTIMIZER_KINDS:
        raise ConfigError(
            f"[train] optimizer {optimizer_kind!r} not in {OPTIMIZER_KINDS}"
        )
    momentum = _parse_typed(train_section["momentum"], "momentum", float, "train")
    optimizer = OptimizerConfig(
        kind=optimizer_kind,
        momentum=momentum if optimizer_kind == "sgd_momentum" else 0.0,
        weight_decay=_parse_typed(train_section["weight_decay"], "weight_decay", float, "train"),
    )

    measure = sgs_section["measure"]
    if measure not in MEASURES:
        raise ConfigError(f"[sgs] measure {measure!r} not in {MEASURES}")
    rf_raw = sgs_section["redundancy_filter"].strip().lower()
    redundancy: float | str | None
    if rf_raw in ("off", "none", "false"):
        redundancy = None
    elif rf_raw == "auto":
        redundancy = "auto"
    else:
        redundancy = _parse_typed(rf_raw, "redundancy_filter", float, "sgs")
    fixed_values = None
    if "fixed_values" in sgs_section and sgs_section["fixed_values"].strip():
        raw_fixed = sgs_section["fixed_values"]
        rows = [r for r in raw_fixed.splitlines() if r.strip()]
        try:
            fixed_values = np.array([[float(v) for v in r.split(",")] for r in rows])
        except ValueError as exc:
            raise ConfigError(f"[sgs] fixed_values is not a numeric matrix: {exc}") from exc

    try:
        sgs = SgsSettings(
            enabled=_parse_typed(sgs_section["enabled"], "enabled", bool, "sgs"),
            measure=measure,
            k=_parse_typed(sgs_section["k"], "k", float, "sgs"),
            refresh_every=_parse_typed(sgs_section["refresh_every"], "refresh_every", int, "sgs"),
            refresh_batches=_parse_typed(
                sgs_section["refresh_batches"], "refresh_batches", int, "sgs"),
            warmup_epochs=_parse_typed(sgs_section["warmup_epochs"], "warmup_epochs", int, "sgs"),
            bins=_parse_typed(sgs_section["bins"], "bins", int, "sgs"),
            epsilon_floor=_parse_typed(sgs_section["epsilon_floor"], "epsilon_floor", float, "sgs"),
            redundancy_filter=redundancy,
            scaling_position=sgs_section["scaling_position"],
            alpha=_parse_typed(sgs_section["alpha"], "alpha", float, "sgs"),
            beta=_parse_typed(sgs_section["beta"], "beta", float, "sgs"),
            fixed_values=fixed_values,
            mask_family=sgs_section["mask_family"],
        )
        train = TrainingConfig(
            epochs=_parse_typed(train_section["epochs"], "epochs", int, "train"),
            batch_size=_parse_typed(train_section["batch_size"], "batch_size", int, "train"),
            lr=_parse_typed(train_section["lr"], "lr", float, "train"),
            schedule=train_section["schedule"],
            optimizer=optimizer,
            seed=_parse_typed(train_section["seed"], "seed", int, "train"),
            precision=_parse_typed(train_section["precision"], "precision", int, "train"),
            sgs=sgs,
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc

    raw = {
        "model": {"layers": "\n" + "\n".join(lines)},
        "data": dict(data_section),
        "train": dict(train_section),
        "sgs": dict(sgs_section),
    }
    return ExperimentConfig(model=model, data=data, train=train, raw=raw)


def build_datasets(data: DataConfig) -> tuple[LabeledDataset, LabeledDataset]:
    opts = data.options
    if data.kind == "idx":
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            if key not in opts:
                raise ConfigError(f"missing key '{key}' in section [data]")
            if not Path(opts[key]).exists():
                raise ConfigError(f"[data] {key}: no such file {opts[key]!r}")
        train = read_idx(opts["train_images"], opts["train_labels"])
        test = read_idx(opts["test_images"], opts["test_labels"])
        return train, test
    if data.kind == "cifar10":
        for key in ("train_files", "test_files"):
            if key not in opts:
                raise ConfigError(f"missing key '{key}' in section [data]")
        def paths(key: str) -> list[str]:
            out = [p.strip() for p in opts[key].split(",") if p.strip()]
            for p in out:
                if not Path(p).exists():
                    raise ConfigError(f"[data] {key}: no such file {p!r}")
            return out
        return read_cifar_binary(paths("train_files")), read_cifar_binary(paths("test_files"))
    if data.kind == "synth_digits":
        seed = int(opts.get("seed", "0"))
        train_size = int(opts.get("train_size", _SYNTH_DIGITS_SIZES["train_size"]))
        test_size = int(opts.get("test_size", _SYNTH_DIGITS_SIZES["test_size"]))
        return synth_digits(train_size, seed), synth_digits(test_size, seed + 1)
    if data.kind == "synth_field":
        shape = (int(opts.get("samples", "64")), int(opts.get("channels", "1")),
                 int(opts.get("height", "28")), int(opts.get("width", "28")))
        field_arr = synth_correlated_field(shape, int(opts.get("corr_length", "0")),
                                           int(opts.get("seed", "0")))
        lo, hi = field_arr.min(), field_arr.max()
        span = hi - lo if hi > lo else 1.0
        images = (field_arr - lo) / span
        labels = np.zeros(shape[0], dtype=np.int64)
        ds = LabeledDataset(images, labels, 1)
        return ds, ds
    raise ConfigError(f"[data] unknown kind {data.kind!r}")


def resolved_ini(cfg: ExperimentConfig) -> str:
    out = configparser.ConfigParser()
    for section, values in cfg.raw.items():
        out[section] = values
    from io import StringIO

    buf = StringIO()
    out.write(buf)
    return buf.getvalue()
