"""Experiment configuration files: INI sections [model], [data], [train], [sgs].

The keys, defaults and value types of [sgs] are the fields of
``SgsSettings``; those of [train] are the scalar fields of
``TrainingConfig`` plus three ``OptimizerConfig`` fields. Unknown sections or
keys are rejected, and every value is validated against the module
preconditions at load time so a bad config fails before any work starts.
``resolved_ini`` renders the fully-defaulted configuration back to INI text
for provenance.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

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
from .optim import OptimizerConfig
from .training import SgsSettings, TrainingConfig


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


def _parse_redundancy_filter(raw: str) -> float | str | None:
    lowered = raw.strip().lower()
    if lowered in ("off", "none", "false"):
        return None
    if lowered == "auto":
        return "auto"
    return _parse_typed(lowered, "redundancy_filter", float, "sgs")


def _parse_fixed_values(raw: str) -> np.ndarray | None:
    rows = [r for r in raw.splitlines() if r.strip()]
    if not rows:
        return None
    try:
        return np.array([[float(v) for v in r.split(",")] for r in rows])
    except ValueError as exc:
        raise ConfigError(f"[sgs] fixed_values is not a numeric matrix: {exc}") from exc


# Keys whose value is not one scalar of the field's type.
_SPECIAL_PARSERS = {
    "redundancy_filter": _parse_redundancy_filter,
    "fixed_values": _parse_fixed_values,
}

_SCALAR_TYPES = (bool, int, float, str)


def _schema(cls: type) -> dict[str, tuple[type, object]]:
    """Field name -> (type, default) of a config dataclass; MISSING marks a required field."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.default) for f in fields(cls)}


# [train] exposes the optimizer kind under the key "optimizer", and its
# momentum and weight decay; adam's beta1, beta2 and eps keep their defaults.
# An INI run defaults to momentum 0.9, where OptimizerConfig() has 0.0.
_OPTIMIZER_SCHEMA = _schema(OptimizerConfig)
_TRAIN_SCHEMA = {
    **{key: spec for key, spec in _schema(TrainingConfig).items() if spec[0] in _SCALAR_TYPES},
    "optimizer": _OPTIMIZER_SCHEMA["kind"],
    "momentum": (_OPTIMIZER_SCHEMA["momentum"][0], 0.9),
    "weight_decay": _OPTIMIZER_SCHEMA["weight_decay"],
}
_SGS_SCHEMA = _schema(SgsSettings)


def _parse_section(section: dict[str, str], schema: dict[str, tuple[type, object]],
                   where: str) -> tuple[dict[str, object], dict[str, str]]:
    """Every key's value (given or default) and the section as resolved INI text.

    A default of None means "unset" and is left out of the resolved text.
    """
    unknown = set(section) - set(schema)
    if unknown:
        raise ConfigError(f"[{where}] unknown keys: {sorted(unknown)}")
    values: dict[str, object] = {}
    resolved: dict[str, str] = {}
    for key, (kind, default) in schema.items():
        if key not in section and default is not MISSING:
            values[key] = default
            if default is not None:
                resolved[key] = str(default)
            continue
        raw = resolved[key] = _get(section, key, where)
        special = _SPECIAL_PARSERS.get(key)
        values[key] = special(raw) if special else _parse_typed(raw, key, kind, where)
    return values, resolved


def _build(cls: type, where: str, **kwargs):
    """``cls(**kwargs)``, its validation errors raised as ConfigError."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{where}] {exc}") from exc


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

    sgs_values, sgs_section = _parse_section(
        dict(parser["sgs"]) if parser.has_section("sgs") else {}, _SGS_SCHEMA, "sgs")
    train_values, train_section = _parse_section(dict(parser["train"]), _TRAIN_SCHEMA, "train")
    kind = train_values.pop("optimizer")
    momentum = train_values.pop("momentum")
    optimizer = _build(
        OptimizerConfig, "train",
        kind=kind,
        momentum=momentum if kind == "sgd_momentum" else 0.0,
        weight_decay=train_values.pop("weight_decay"),
    )
    train = _build(TrainingConfig, "train", **train_values, optimizer=optimizer,
                   sgs=_build(SgsSettings, "sgs", **sgs_values))

    raw = {
        "model": {"layers": "\n" + "\n".join(lines)},
        "data": dict(data_section),
        "train": train_section,
        "sgs": sgs_section,
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
