"""In-memory span tracer installed from outside the package under test.

``Tracer.install()`` wraps the public functions and layer methods listed in
``TARGETS`` at every place they are bound: the defining module, every other
``spatialgrad`` module that imported the name (``layers.conv_forward``,
``reparam.step``, ``training.finalize``, the package ``__init__`` re-exports),
and, for methods, the class itself. ``uninstall()`` puts every original back,
so an untraced run executes exactly the shipped code.

Each span records its name, start, end, the id of the span that was open when
it started (its parent), the id of the op it belongs to, and a few attributes
computed from the call's arguments and result (MAC counts, kernel shape,
histogram mass). Spans stay in memory until ``write_jsonl`` at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float
    attrs: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _conv_gmac(n: int, co: int, oh: int, ow: int, spec) -> float:
    kx, ky = spec.kernel
    return n * co * oh * ow * spec.in_channels * kx * ky / 1e9


def _gmac_forward(args, kwargs, result):
    spec = args[2]
    n, co, oh, ow = result.shape
    return {"gmac": _conv_gmac(n, co, oh, ow, spec)}


def _gmac_backward(args, kwargs, result):
    dy, spec = args[0], args[2]
    n, co, oh, ow = dy.shape
    return {"gmac": _conv_gmac(n, co, oh, ow, spec)}


def _pairs(shape: tuple[int, ...], i: int, j: int) -> int:
    """In-bounds (pixel, neighbour) pairs of one map at displacement (i, j)."""
    n, c, h, w = shape
    return n * c * max(h - abs(i), 0) * max(w - abs(j), 0)


def _mi_attrs(args, kwargs, result):
    maps, (kx, ky) = args[0], args[1]
    examined = sum(_pairs(np.shape(fm), a - kx // 2, b - ky // 2)
                   for fm in maps for a in range(kx) for b in range(ky))
    return {"kernel": f"k{kx}" if kx == ky else f"k{kx}x{ky}", "pairs": examined}


def _collect_attrs(args, kwargs, result):
    maps, (i, j) = args[0], args[1]
    return {"examined": sum(_pairs(np.shape(fm), i, j) for fm in maps),
            "kept": int(result.sum())}


def _layer_id(args, kwargs, result):
    return {"layer": id(args[0])}


def _first_layer_id(args, kwargs, result):
    return {"first_layer": id(args[0].layers[0])}


# (module, attribute or Class.method, span name, attribute function)
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("spatialgrad.conv", "conv_forward", "conv.forward", _gmac_forward),
    ("spatialgrad.conv", "conv_backward_weights", "conv.backward_weights", _gmac_backward),
    ("spatialgrad.conv", "conv_backward_input", "conv.backward_input", _gmac_backward),
    ("spatialgrad.layers", "ConvLayer.forward", "layers.conv.forward", None),
    ("spatialgrad.layers", "ConvLayer.backward", "layers.conv.backward", _layer_id),
    ("spatialgrad.layers", "ReLULayer.forward", "layers.relu.forward", None),
    ("spatialgrad.layers", "ReLULayer.backward", "layers.relu.backward", None),
    ("spatialgrad.layers", "MaxPoolLayer.forward", "layers.maxpool.forward", None),
    ("spatialgrad.layers", "MaxPoolLayer.backward", "layers.maxpool.backward", None),
    ("spatialgrad.layers", "GlobalAvgPoolLayer.forward", "layers.gap.forward", None),
    ("spatialgrad.layers", "GlobalAvgPoolLayer.backward", "layers.gap.backward", None),
    ("spatialgrad.layers", "FlattenLayer.forward", "layers.flatten.forward", None),
    ("spatialgrad.layers", "FlattenLayer.backward", "layers.flatten.backward", None),
    ("spatialgrad.layers", "DenseLayer.forward", "layers.dense.forward", None),
    ("spatialgrad.layers", "DenseLayer.backward", "layers.dense.backward", None),
    ("spatialgrad.layers", "BatchNormLayer.forward", "layers.batchnorm.forward", None),
    ("spatialgrad.layers", "BatchNormLayer.backward", "layers.batchnorm.backward", None),
    ("spatialgrad.layers", "SoftmaxCrossEntropy.loss", "layers.softmax_xent", None),
    ("spatialgrad.layers", "SoftmaxCrossEntropy.grad", "layers.softmax_xent", None),
    ("spatialgrad.network", "Network.forward", "network.forward", None),
    ("spatialgrad.network", "Network.backward", "network.backward", _first_layer_id),
    ("spatialgrad.network", "Network.predict", "network.predict", None),
    ("spatialgrad.network", "build_network", "network.build", None),
    ("spatialgrad.optim", "step", "optim.step", None),
    ("spatialgrad.optim", "adaptive_step", "optim.step", None),
    ("spatialgrad.scaling", "k_transform", "scaling", None),
    ("spatialgrad.scaling", "finalize", "scaling", None),
    ("spatialgrad.scaling", "from_masks", "scaling", None),
    ("spatialgrad.dependence", "spatial_dependence_mi", "dependence.mi", _mi_attrs),
    ("spatialgrad.dependence", "spatial_dependence_autocorr", "dependence.autocorr", None),
    ("spatialgrad.dependence", "collect_pairs", "dependence.collect_pairs", _collect_attrs),
    ("spatialgrad.dependence", "normalized_mi", "dependence.normalized_mi", None),
    ("spatialgrad.training", "train", "training.train", None),
    ("spatialgrad.training", "refresh_scalings", "training.refresh", None),
    ("spatialgrad.training", "inspect_scalings", "training.inspect_scalings", None),
    ("spatialgrad.reparam", "branched_forward", "reparam.branched_forward", None),
    ("spatialgrad.reparam", "branched_backward_input", "reparam.branched_backward_input", None),
    ("spatialgrad.reparam", "branched_backward_step", "reparam.branched_backward_step", None),
    ("spatialgrad.reparam", "split_init", "reparam.split_init", None),
    ("spatialgrad.reparam", "BranchedConv.merged_weights", "reparam.merged_weights", None),
    ("spatialgrad.reparam", "DivergenceReport.record", "reparam.record", None),
    ("spatialgrad.reparam", "equivalence_run", "reparam.equivalence_run", None),
    ("spatialgrad.reparam", "standard_mask_sets", "reparam.standard_mask_sets", None),
    ("spatialgrad.data", "synth_digits", "data.synth_digits", None),
    ("spatialgrad.expconfig", "load_config", "expconfig.load_config", None),
    ("spatialgrad.expconfig", "build_datasets", "expconfig.build_datasets", None),
]


class Tracer:
    """Collects spans from wrappers it binds into the ``spatialgrad`` modules."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str, attrs_fn: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                attrs = attrs_fn(args, kwargs, result) if attrs_fn and result is not None else None
                self.spans.append(Span(span_id, parent, self.op, name, start, end, attrs))

        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Bind a wrapper at every site that holds each target."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "spatialgrad" or name.startswith("spatialgrad."))]
        for module_name, qualname, span_name, attrs_fn in TARGETS:
            owner: Any = sys.modules[module_name]
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, span_name, attrs_fn)
            self._patch(owner, attr, wrapper)
            if cls_path:
                continue
            for module in modules:
                for site, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, site, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                                    "start": s.start, "end": s.end, **(s.attrs or {})}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child_time.get(s.id, 0.0) for s in spans}


def self_time_ranking(spans: list[Span], op_ids: list[int]) -> list[tuple[str, float, float]]:
    """(span name, self seconds per op, share of all self time), largest first."""
    ops = set(op_ids)
    selfs = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.op in ops:
            by_name[s.name] += selfs[s.id]
    total = sum(by_name.values()) or 1.0
    return sorted(((name, t / len(ops), t / total) for name, t in by_name.items()),
                  key=lambda row: -row[1])


# Per-layer metric -> unit. Times, calls and computed counts are per timed op;
# data.* and expconfig.* are per set-up; setup.import_s and trace.overhead_ratio
# are measured by the runner.
PER_LAYER: dict[str, str] = {
    **{f"conv.{k}.{q}": u for k in ("forward", "backward_weights", "backward_input")
       for q, u in (("s", "s"), ("calls", "count"), ("gmac", "GMAC"))},
    "conv.gmac_per_s": "GMAC/s",
    **{f"layers.{k}.s": "s" for k in ("maxpool.forward", "maxpool.backward", "relu.forward",
                                      "relu.backward", "dense.forward", "dense.backward",
                                      "softmax_xent")},
    "layers.conv.backward_discarded_s": "s",
    "network.forward.self_s": "s",
    "network.backward.self_s": "s",
    "network.predict.s": "s",
    "optim.step.s": "s",
    "optim.step.calls": "count",
    "scaling.s": "s",
    "scaling.calls": "count",
    "dependence.mi.s": "s",
    "dependence.mi.calls": "count",
    "dependence.mi.k3.s": "s",
    "dependence.mi.k7.s": "s",
    "dependence.collect_pairs.s": "s",
    "dependence.collect_pairs.calls": "count",
    "dependence.normalized_mi.s": "s",
    "dependence.pairs_binned": "count",
    "dependence.filter_keep_ratio": "ratio",
    "training.train.self_s": "s",
    "training.refresh.s": "s",
    "training.refresh.calls": "count",
    "training.inspect_scalings.self_s": "s",
    **{f"reparam.{k}.s": "s" for k in ("branched_forward", "branched_backward_input",
                                       "branched_backward_step", "split_init",
                                       "merged_weights", "record")},
    "reparam.equivalence_run.self_s": "s",
    "data.synth_digits.s": "s",
    "expconfig.load_config.s": "s",
    "setup.import_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _discarded(span: Span, by_id: dict[int, Span]) -> bool:
    """A conv input gradient computed by a network's first layer, which Network.backward drops."""
    layer = by_id.get(span.parent)
    net = by_id.get(layer.parent) if layer is not None else None
    return (layer is not None and net is not None and layer.name == "layers.conv.backward"
            and net.name == "network.backward" and bool(layer.attrs) and bool(net.attrs)
            and net.attrs["first_layer"] == layer.attrs["layer"])


def per_layer_metrics(spans: list[Span], op_ids: list[int],
                      setup_ids: list[int]) -> dict[str, dict]:
    """Every ``PER_LAYER`` metric except the two the runner measures itself."""
    ops, setups = set(op_ids), set(setup_ids)
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    count: dict[str, float] = defaultdict(float)  # gmac, pairs, kept, examined
    setup_total: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.op in setups:
            setup_total[s.name] += s.duration
        if s.op not in ops:
            continue
        total[s.name] += s.duration
        own[s.name] += selfs[s.id]
        calls[s.name] += 1
        attrs = s.attrs or {}
        if "gmac" in attrs:
            count[s.name + ".gmac"] += attrs["gmac"]
        if s.name == "dependence.mi" and attrs:
            total[f"dependence.mi.{attrs['kernel']}"] += s.duration
            count["pairs"] += attrs["pairs"]
        if s.name == "dependence.collect_pairs" and attrs:
            count["kept"] += attrs["kept"]
            count["examined"] += attrs["examined"]
        if s.name == "conv.backward_input" and _discarded(s, by_id):
            total["layers.conv.backward_discarded"] += s.duration

    values: dict[str, float] = {}
    for key in PER_LAYER:
        name, _, quantity = key.rpartition(".")
        if quantity == "s":
            values[key] = total[name]
        elif quantity == "self_s":
            values[key] = own[name]
        elif quantity == "calls":
            values[key] = calls[name]
        elif quantity == "gmac":
            values[key] = count[key]
    conv = ("conv.forward", "conv.backward_weights", "conv.backward_input")
    conv_s = sum(total[c] for c in conv)
    values["layers.conv.backward_discarded_s"] = total["layers.conv.backward_discarded"]
    values["dependence.pairs_binned"] = count["pairs"]
    per_op = {k: v / len(ops) for k, v in values.items()}
    per_op["conv.gmac_per_s"] = (sum(count[c + ".gmac"] for c in conv) / conv_s
                                 if conv_s else 0.0)
    # With the filter off collect_pairs is never called and every pair is kept.
    per_op["dependence.filter_keep_ratio"] = (count["kept"] / count["examined"]
                                              if count["examined"] else 1.0)
    for key in ("data.synth_digits.s", "expconfig.load_config.s"):
        per_op[key] = setup_total[key.removesuffix(".s")] / len(setups)
    return {k: {"value": per_op[k], "unit": PER_LAYER[k]} for k in PER_LAYER if k in per_op}
