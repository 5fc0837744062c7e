"""The benchmark's tracer still finds every name it wraps in the package.

``bench/tracing.py`` wraps the functions and methods its ``TARGETS`` list names,
at every site they are bound. A refactor that renames or drops one of them (say
``training.refresh_scalings``), or stops calling it through its module, breaks
the benchmark; these tests catch that without running the benchmark itself.
The traced-call counts and conv GMAC attributes below are the ones the
benchmark's per-layer metrics rest on, so a refactor that folds those calls
away, or moves the spec from a conv call's third positional argument, fails
here too.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from spatialgrad import network, reparam, training
from spatialgrad.conv import ConvSpec
from spatialgrad.data import synth_digits
from spatialgrad.layers import ConvLayer
from spatialgrad.network import ConvLayerSpec, DenseSpec, FlattenSpec, MaxPoolSpec, SoftmaxXentSpec
from spatialgrad.optim import OptimizerConfig

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    """``bench/tracing.py`` imported by path, without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    for module_name in {target[0] for target in module.TARGETS}:
        importlib.import_module(module_name)
    return module


def _bound(module_name: str, qualname: str):
    owner = sys.modules[module_name]
    *cls_path, attr = qualname.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


def _package_bindings() -> dict[tuple[str, str], object]:
    return {(name, site): value for name, module in sys.modules.items()
            if name == "spatialgrad" or name.startswith("spatialgrad.")
            for site, value in vars(module).items() if callable(value)}


def test_install_wraps_every_target_and_uninstall_restores_it(tracing):
    originals = {(m, q): _bound(m, q) for m, q, _, _ in tracing.TARGETS}
    bindings = _package_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module_name, qualname), original in originals.items():
            wrapped = _bound(module_name, qualname)
            assert wrapped is not original and wrapped.__wrapped__ is original, qualname
    finally:
        tracer.uninstall()
    assert {key: _bound(*key) for key in originals} == originals
    assert _package_bindings() == bindings


def test_a_traced_training_run_reports_its_refresh_and_steps(tracing):
    model = [ConvLayerSpec(out_channels=2, kernel=(3, 3), padding=1), MaxPoolSpec(),
             FlattenSpec(), DenseSpec(out_features=10), SoftmaxXentSpec()]
    cfg = training.TrainingConfig(
        epochs=1, batch_size=16, lr=0.05, optimizer=OptimizerConfig(kind="sgd_momentum"),
        sgs=training.SgsSettings(measure="mi", warmup_epochs=0, refresh_batches=1))
    train_ds, eval_ds = synth_digits(32, seed=0), synth_digits(16, seed=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        training.train(model, train_ds, eval_ds, cfg)
    finally:
        tracer.uninstall()
    names = {span.name for span in tracer.spans}
    assert {"training.train", "training.refresh", "training.inspect_scalings",
            "dependence.mi", "optim.step", "network.forward", "network.backward",
            "network.predict"} <= names


def _traced(tracing, call, *args, **kwargs) -> Counter:
    """Span count per name of one traced call."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        call(*args, **kwargs)
    finally:
        tracer.uninstall()
    return Counter(span.name for span in tracer.spans)


def test_a_filtered_refresh_counts_each_unordered_displacement_once(tracing):
    model = [ConvLayerSpec(out_channels=2, kernel=(3, 3), padding=1), MaxPoolSpec(),
             FlattenSpec(), DenseSpec(out_features=10), SoftmaxXentSpec()]
    net = network.build_network(model, (1, 28, 28), 10, np.random.default_rng(0))
    sgs = training.SgsSettings(measure="mi", refresh_batches=1, redundancy_filter="auto")
    counts = _traced(tracing, lambda: training.inspect_scalings(
        net, synth_digits(16, seed=0), sgs, np.random.default_rng(1), 16))
    # Four {d, -d} pairs off the centre of a 3x3 kernel, one collect_pairs call each.
    assert counts["dependence.mi"] == 1 and counts["dependence.collect_pairs"] == 4


def test_an_acb_equivalence_run_backs_up_branch_by_branch(tracing):
    masks = reparam.standard_mask_sets((3, 3), "acb")
    counts = _traced(tracing, lambda: reparam.equivalence_run(
        masks, OptimizerConfig(kind="sgd"), steps=3, seed=0, kernel=(3, 3), lr=0.05))
    # Per step: one input gradient per branch of the second conv and one for
    # its scaled twin; each twin's two convs take one branched step each.
    assert counts["conv.backward_input"] == (3 + 1) * 3
    assert counts["reparam.branched_backward_input"] == 3
    assert counts["reparam.branched_backward_step"] == 2 * 3


def test_conv_spans_count_the_macs_of_their_call(tracing):
    """The GMAC attributes read the spec as each conv call's third positional argument."""
    n, ci, co, (kx, ky) = 2, 3, 5, (3, 2)
    spec = ConvSpec(ci, co, (kx, ky), stride=2, padding=1)
    rng = np.random.default_rng(0)
    layer = ConvLayer(spec, rng.normal(size=spec.weight_shape))
    x = rng.normal(size=(n, ci, 8, 5))
    oh, ow = spec.out_size(8, 5)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        layer.backward(layer.forward(x, train=True))
    finally:
        tracer.uninstall()
    names = ("conv.forward", "conv.backward_weights", "conv.backward_input")
    gmac = [(span.name, span.attrs["gmac"]) for span in tracer.spans if span.name in names]
    assert (oh, ow) == (4, 3)
    assert gmac == [(name, n * co * oh * ow * ci * kx * ky / 1e9) for name in names]
