"""The benchmark's tracer still finds every name it wraps in the package.

``bench/tracing.py`` wraps the functions and methods its ``TARGETS`` list names,
at every site they are bound. A refactor that renames or drops one of them (say
``training.refresh_scalings``), or stops calling it through its module, breaks
the benchmark; these tests catch that without running the benchmark itself.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from spatialgrad import training
from spatialgrad.data import synth_digits
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
