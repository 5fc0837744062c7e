"""Tests of the benchmark itself: tracer binding, per-layer coverage, determinism, output.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import spatialgrad  # noqa: E402
from spatialgrad import conv, dependence, layers, optim, reparam, scaling, training  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKDIR = ROOT / ".bench_work" / "tests"

# Per-layer metrics each workload must record a call or a nonzero value for,
# as the benchmark notes list which workload exercises which layer.
EXERCISED = {
    "train_digits": [
        "conv.forward.calls", "conv.backward_weights.calls", "conv.backward_input.calls",
        "conv.forward.gmac", "conv.backward_weights.gmac", "conv.backward_input.gmac",
        "conv.gmac_per_s",
        "layers.maxpool.forward.s", "layers.maxpool.backward.s", "layers.relu.forward.s",
        "layers.relu.backward.s", "layers.dense.forward.s", "layers.dense.backward.s",
        "layers.softmax_xent.s", "layers.conv.backward_discarded_s",
        "network.forward.self_s", "network.backward.self_s", "network.predict.s",
        "optim.step.calls", "optim.step.s", "scaling.calls", "scaling.s",
        "dependence.mi.calls", "dependence.mi.s", "dependence.mi.k3.s",
        "dependence.normalized_mi.s", "dependence.pairs_binned",
        "training.train.self_s", "training.refresh.calls", "training.refresh.s",
        "training.inspect_scalings.self_s",
        "data.synth_digits.s", "expconfig.load_config.s",
    ],
    "equiv_k7": [
        "conv.forward.calls", "conv.backward_weights.calls", "conv.backward_input.calls",
        "conv.forward.s", "conv.backward_weights.s", "conv.backward_input.s",
        "optim.step.calls", "scaling.calls",
        "reparam.branched_forward.s", "reparam.branched_backward_input.s",
        "reparam.branched_backward_step.s", "reparam.split_init.s",
        "reparam.merged_weights.s", "reparam.record.s", "reparam.equivalence_run.self_s",
    ],
    "refresh_mi_k7": [
        "conv.forward.calls", "layers.maxpool.forward.s", "network.forward.self_s",
        "dependence.mi.calls", "dependence.mi.k3.s", "dependence.mi.k7.s",
        "dependence.normalized_mi.s", "dependence.pairs_binned",
        "training.inspect_scalings.self_s", "scaling.calls",
        "data.synth_digits.s", "expconfig.load_config.s",
    ],
    "refresh_mi_k7_filtered": [
        "dependence.collect_pairs.calls", "dependence.collect_pairs.s", "dependence.mi.k7.s",
    ],
}

# Measured by the runner rather than derived from spans.
RUNNER_METRICS = {"setup.import_s", "trace.overhead_ratio"}


def test_benchmark_json_lists_the_metrics_the_code_emits():
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == tracing.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


def test_every_per_layer_metric_is_exercised_by_some_workload():
    covered = {m for names in EXERCISED.values() for m in names}
    assert set(tracing.PER_LAYER) - covered - RUNNER_METRICS == {
        "dependence.filter_keep_ratio"}  # checked below: it drops below 1 only when filtering


def test_install_binds_every_import_site_and_uninstall_restores():
    originals = {
        "conv": conv.conv_forward, "step": optim.step, "finalize": scaling.finalize,
        "mi": dependence.spatial_dependence_mi, "maxpool": layers.MaxPoolLayer.forward,
        "train": training.train,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert conv.conv_forward is not originals["conv"]
        for site in (layers.conv_forward, reparam.conv_forward, spatialgrad.conv_forward):
            assert site is conv.conv_forward
        for site in (reparam.step, training.step, spatialgrad.step):
            assert site is optim.step is not originals["step"]
        assert training.finalize is scaling.finalize is not originals["finalize"]
        assert spatialgrad.train is training.train is not originals["train"]
        assert layers.MaxPoolLayer.forward is not originals["maxpool"]
    finally:
        tracer.uninstall()
    assert conv.conv_forward is layers.conv_forward is reparam.conv_forward is originals["conv"]
    assert reparam.step is training.step is optim.step is originals["step"]
    assert training.finalize is originals["finalize"]
    assert dependence.spatial_dependence_mi is originals["mi"]
    assert layers.MaxPoolLayer.forward is originals["maxpool"]
    assert spatialgrad.train is training.train is originals["train"]


def test_self_time_subtracts_direct_children_only():
    spans = [
        tracing.Span(0, None, 1, "root", 0.0, 10.0, None),
        tracing.Span(1, 0, 1, "child", 1.0, 4.0, None),
        tracing.Span(2, 1, 1, "grandchild", 2.0, 3.0, None),
        tracing.Span(3, 0, 1, "child", 5.0, 7.0, None),
    ]
    assert tracing.self_times(spans) == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0}
    ranking = tracing.self_time_ranking(spans, [1])
    assert ranking[0] == ("root", 5.0, 0.5)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert harness.tail([1.0] * 10) is None
    pct, value = harness.tail([float(v) for v in range(40)])
    assert pct == 75.0 and value == 29.0


def _first_op(name: str, seed: int, tracer=None):
    """Digest of a fresh run's first op; traced if a tracer is given."""
    workload = workloads.WORKLOADS[name](seed, ROOT, WORKDIR)
    state, _ = harness.measure_setup(workload, tracer)
    records = harness.timed_ops(workload, state, 0.0, tracer, first_op=harness.SETUP_REPEATS)
    assert [r["traced"] for r in records] == ([False] if tracer is None else [True, False])
    assert all(r["errors"] == [] for r in records)
    assert all(r["ref_s"] > 0 for r in records)
    return workload.digest([records[0]["result"]])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_op_matches_untraced_and_records_its_layers(name):
    seed = 3
    plain = _first_op(name, seed)
    tracer = tracing.Tracer()
    traced = _first_op(name, seed, tracer)
    assert traced == plain, "the wrappers changed the program's output"

    setup_ids = list(range(harness.SETUP_REPEATS))
    metrics = tracing.per_layer_metrics(tracer.spans, [harness.SETUP_REPEATS], setup_ids)
    assert set(metrics) == set(tracing.PER_LAYER) - RUNNER_METRICS
    silent = [m for m in EXERCISED[name] if not metrics[m]["value"] > 0]
    assert silent == []
    keep = metrics["dependence.filter_keep_ratio"]["value"]
    if name == "refresh_mi_k7_filtered":
        assert 0 < keep < 1
    else:
        assert keep == 1.0
    if name == "equiv_k7":
        assert metrics["conv.backward_input.calls"]["value"] == 6 * 100  # 5 branches + 1 scaled


def _run(cwd: Path, *args: str, timeout: float = 170) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, timeout=timeout,
                          capture_output=True, text=True)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_carries_the_declared_metrics(trace, section):
    proc = _run(ROOT, "--workload", "equiv_k7", "--seed", "1", "--seconds", "0.1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_result_outside_a_source_checkout():
    bare = WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "--workload", "equiv_k7", "--seed", "0", "--seconds", "1",
                    "--trace", "0", timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{") and "{" not in proc.stdout
