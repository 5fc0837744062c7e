"""Experiment configuration files: INI sections [model], [data], [train], [sgs].

Each section's keys, defaults and value types are dataclass fields: [sgs] is
``SgsSettings``; [train] is the scalar fields of ``TrainingConfig`` plus three
``OptimizerConfig`` fields; [data] is the dataclass its ``kind`` names; each
[model] line is a layer spec. Unknown sections or keys are rejected, and every
value is validated at load time, so a bad config fails before any dataset is
built. ``resolved_ini`` renders the fully-defaulted configuration back to INI
text for provenance.
"""

from __future__ import annotations

import configparser
import io
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


def _at_least(config: object, minimum: int, *names: str) -> None:
    for name in names:
        if getattr(config, name) < minimum:
            raise ValueError(f"{name} = {getattr(config, name)} must be >= {minimum}")


# One dataclass per [data] kind; its fields are the section's keys besides "kind".
@dataclass
class IdxData:
    train_images: str
    train_labels: str
    test_images: str
    test_labels: str


@dataclass
class Cifar10Data:
    train_files: str
    test_files: str


@dataclass
class SynthDigitsData:
    train_size: int = 2000
    test_size: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        _at_least(self, 1, "train_size", "test_size")
        _at_least(self, 0, "seed")


@dataclass
class SynthFieldData:
    samples: int = 64
    channels: int = 1
    height: int = 28
    width: int = 28
    corr_length: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        _at_least(self, 1, "samples", "channels", "height", "width")
        _at_least(self, 0, "corr_length", "seed")


DataConfig = IdxData | Cifar10Data | SynthDigitsData | SynthFieldData
_DATA_KINDS = {"idx": IdxData, "cifar10": Cifar10Data, "synth_digits": SynthDigitsData,
               "synth_field": SynthFieldData}


@dataclass
class ExperimentConfig:
    model: list
    data: DataConfig
    train: TrainingConfig
    raw: dict[str, dict[str, str]] = field(default_factory=dict)


def _get(section: dict[str, str], key: str, where: str) -> str:
    if key not in section:
        raise ConfigError(f"[{where}] missing key '{key}'")
    return section[key]


def _parse_typed(raw: str, key: str, kind: type, where: str):
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        return kind(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"[{where}] {key} = {raw!r} is not a valid {kind.__name__}") from exc


def _parse_redundancy_filter(raw: str) -> str | None:
    lowered = raw.strip().lower()
    if lowered in ("off", "none", "false"):
        return None
    if lowered == "auto":
        return "auto"
    raise ConfigError(f"[sgs] redundancy_filter = {raw!r} must be off, none, false or auto")


def _parse_fixed_values(raw: str) -> np.ndarray | None:
    rows = [r for r in raw.splitlines() if r.strip()]
    if not rows:
        return None
    try:
        return np.array([[float(v) for v in r.split(",")] for r in rows])
    except ValueError as exc:
        raise ConfigError(f"[sgs] fixed_values is not a numeric matrix: {exc}") from exc


def _parse_kernel(raw: str) -> tuple[int, int]:
    try:
        sizes = [int(part) for part in raw.lower().split("x")]
    except ValueError:
        sizes = []
    if len(sizes) not in (1, 2):
        raise ConfigError(f"[model] kernel {raw!r} must look like '3' or '3x5'")
    return (sizes[0], sizes[-1])


# Keys whose value is not one scalar of the field's type.
_SPECIAL_PARSERS = {
    "redundancy_filter": _parse_redundancy_filter,
    "fixed_values": _parse_fixed_values,
    "kernel": _parse_kernel,
}

_SCALAR_TYPES = (bool, int, float, str)


def _schema(cls: type) -> dict[str, tuple[type, object]]:
    """Field name -> (type, default) of a config dataclass; MISSING marks a required field."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.default) for f in fields(cls)}


# [train] exposes the optimizer kind under the key "optimizer", and its
# momentum and weight decay. An unset momentum is resolved by OptimizerConfig.
_OPTIMIZER_SCHEMA = _schema(OptimizerConfig)
_TRAIN_SCHEMA = {
    **{key: spec for key, spec in _schema(TrainingConfig).items() if spec[0] in _SCALAR_TYPES},
    "optimizer": _OPTIMIZER_SCHEMA["kind"],
    "momentum": (float, None),
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


# Model-line layer kind -> its spec class and each option's spec field.
_LAYERS = {
    "conv": (ConvLayerSpec, {"out": "out_channels", "kernel": "kernel", "stride": "stride",
                             "pad": "padding", "act": "activation", "bn": "batch_norm"}),
    "dense": (DenseSpec, {"out": "out_features"}),
    "maxpool": (MaxPoolSpec, {}),
    "gap": (GlobalAvgPoolSpec, {}),
    "flatten": (FlattenSpec, {}),
    "softmax_xent": (SoftmaxXentSpec, {}),
}


def parse_layer_line(line: str) -> object:
    """One model line, e.g. ``conv out=8 kernel=3 pad=1 act=relu bn=off``."""
    kind, *tokens = line.split()
    if kind not in _LAYERS:
        raise ConfigError(f"[model] unknown layer kind {kind!r}")
    section: dict[str, str] = {}
    for key, eq, value in (tok.partition("=") for tok in tokens):
        if not eq:
            raise ConfigError(f"[model] bad token {key!r} in line {line!r}")
        if key in section:
            raise ConfigError(f"[model] option {key!r} repeated in line {line!r}")
        section[key] = value
    cls, options = _LAYERS[kind]
    spec_schema = _schema(cls)
    values, _ = _parse_section(section, {opt: spec_schema[name] for opt, name in options.items()},
                               "model")
    return _build(cls, "model", **{options[opt]: value for opt, value in values.items()})


def load_config(path: str | Path,
                overrides: dict[str, dict[str, str]] | None = None) -> ExperimentConfig:
    """Parse and validate a config; ``overrides`` (section -> key -> INI text) replace
    the file's values before parsing, so they are validated and recorded like them."""
    parser = configparser.ConfigParser()
    try:
        found = parser.read(path)
    except configparser.Error as exc:  # its messages span lines; report them as one
        raise ConfigError(" ".join(str(exc).split())) from exc
    if not found:
        raise ConfigError(f"config file not found: {path}")
    sections = set(parser.sections())
    required = {"model", "data", "train"}
    missing = required - sections
    if missing:
        raise ConfigError(f"missing sections: {sorted(missing)}")
    unknown = sections - (required | {"sgs"})
    if unknown:
        raise ConfigError(f"unknown sections: {sorted(unknown)}")
    parser.read_dict(overrides or {})

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
    data_kind = _get(data_section, "kind", "data")
    data_cls = _DATA_KINDS.get(data_kind)
    if data_cls is None:
        raise ConfigError(f"[data] unknown kind {data_kind!r}, "
                          f"expected one of {sorted(_DATA_KINDS)}")
    del data_section["kind"]
    data_values, data_resolved = _parse_section(data_section, _schema(data_cls), "data")
    data = _build(data_cls, "data", **data_values)

    sgs_values, sgs_section = _parse_section(
        dict(parser["sgs"]) if parser.has_section("sgs") else {}, _SGS_SCHEMA, "sgs")
    train_values, train_section = _parse_section(dict(parser["train"]), _TRAIN_SCHEMA, "train")
    optimizer = _build(OptimizerConfig, "train", kind=train_values.pop("optimizer"),
                       momentum=train_values.pop("momentum"),
                       weight_decay=train_values.pop("weight_decay"))
    train_section["momentum"] = str(optimizer.momentum)
    train = _build(TrainingConfig, "train", **train_values, optimizer=optimizer,
                   sgs=_build(SgsSettings, "sgs", **sgs_values))

    raw = {
        "model": {"layers": "\n" + "\n".join(lines)},
        "data": {"kind": data_kind, **data_resolved},
        "train": train_section,
        "sgs": sgs_section,
    }
    return ExperimentConfig(model=model, data=data, train=train, raw=raw)


def build_datasets(data: DataConfig) -> tuple[LabeledDataset, LabeledDataset]:
    if isinstance(data, IdxData):
        for key, path in vars(data).items():
            if not Path(path).exists():
                raise ConfigError(f"[data] {key}: no such file {path!r}")
        return (read_idx(data.train_images, data.train_labels),
                read_idx(data.test_images, data.test_labels))
    if isinstance(data, Cifar10Data):
        def paths(key: str) -> list[str]:
            out = [p.strip() for p in getattr(data, key).split(",") if p.strip()]
            for p in out:
                if not Path(p).exists():
                    raise ConfigError(f"[data] {key}: no such file {p!r}")
            return out
        return read_cifar_binary(paths("train_files")), read_cifar_binary(paths("test_files"))
    if isinstance(data, SynthDigitsData):
        return (synth_digits(data.train_size, data.seed),
                synth_digits(data.test_size, data.seed + 1))
    shape = (data.samples, data.channels, data.height, data.width)
    field_arr = synth_correlated_field(shape, data.corr_length, data.seed)
    lo, hi = field_arr.min(), field_arr.max()
    span = hi - lo if hi > lo else 1.0
    images = (field_arr - lo) / span
    labels = np.zeros(shape[0], dtype=np.int64)
    ds = LabeledDataset(images, labels, 1)
    return ds, ds


def resolved_ini(cfg: ExperimentConfig) -> str:
    out = configparser.ConfigParser()
    out.read_dict(cfg.raw)
    buf = io.StringIO()
    out.write(buf)
    return buf.getvalue()
