"""Timed ops, set-up repeats, machine facts and the printed report of one workload."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import tracing
import workloads

SETUP_REPEATS = 5
# Reference chunks run in every gap between ops: at least REF_MIN_CHUNKS, and
# together at least REF_SHARE of the median op time so far.
REF_MIN_CHUNKS = 2
REF_SHARE = 0.1
# Reference chunks run before and after the set-up repeats.
SETUP_REF_CHUNKS = 3

# One import per process varied from 0.31 s to 0.66 s on a 2-core VM, so the
# import share of set-up time is the median over IMPORT_REPEATS fresh interpreters.
# Each interpreter times IMPORT_REF_CHUNKS reference chunks right after its import.
IMPORT_REPEATS = 5
IMPORT_REF_CHUNKS = 2
IMPORT_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[2:]
import spatialgrad, harness
import_s = time.perf_counter() - t0
print(import_s, *harness.hostspeed.CALLS.chunks(int(sys.argv[1])))
"""


def _git_sha(root: Path) -> str:
    """HEAD's commit read from ``.git`` without running git; "none" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def machine_facts(seed: int, root: Path, blas_threads: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "git_sha": _git_sha(root),
        "seed": seed,
    }


def timed_ops(workload, state, seconds: float, tracer=None, first_op: int = 0) -> list[dict]:
    """Run ops back to back for ``seconds``.

    A further op starts only if, at the median op time so far, it would end
    within ``seconds``, so a run lasts about ``seconds`` whatever the op costs.
    Without a tracer at least one op runs. With one, ops alternate traced,
    untraced, traced, ... (at least one of each), so that drift in the
    machine's speed falls on both kinds alike; traced ops get ids from
    ``first_op`` on.

    Before each op and after the last, chunks of the workload's ``hostspeed``
    reference run; each op is scaled by the median chunk time of the gaps on
    either side.

    Each record holds the op's wall time ``s``, that time in reference seconds
    ``ref_s``, whether it was traced, its result (None if it raised), the
    reasons its output is wrong and the process's peak RSS so far.
    """
    min_ops = 1 if tracer is None else 2
    records: list[dict] = []
    gaps: list[list[float]] = []
    begin = time.perf_counter()
    while len(records) < min_ops or (
            time.perf_counter() - begin + statistics.median(r["s"] for r in records) <= seconds):
        gaps.append(_reference_gap(workload.reference, records))
        traced = tracer is not None and len(records) % 2 == 0
        if traced:
            tracer.op = first_op + len(records) // 2
            tracer.install()
        t0 = time.perf_counter()
        try:
            try:
                result = workload.op(state)
            finally:
                elapsed = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            errors = workload.check(state, result)
        except Exception:  # a failed op is counted, not fatal
            result, errors = None, [traceback.format_exc(limit=3)]
        records.append({"s": elapsed, "traced": traced, "result": result, "errors": errors,
                        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
    gaps.append(_reference_gap(workload.reference, records))
    for r, before, after in zip(records, gaps, gaps[1:]):
        r["ref_s"] = r["s"] * workload.reference.scale(before + after)
    return records


def _reference_gap(reference: hostspeed.Reference, records: list[dict]) -> list[float]:
    """Times of the reference chunks run between two ops."""
    target = REF_SHARE * statistics.median(r["s"] for r in records) if records else 0.0
    times = reference.chunks(REF_MIN_CHUNKS)
    while sum(times) < target:
        times.append(reference.chunk())
    return times


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def measure_imports(root: Path) -> list[tuple[float, float]]:
    """(wall, reference) seconds to import the program and the benchmark, each
    in a fresh interpreter that then times ``hostspeed.CALLS`` chunks: an
    import is interpreter-bound work."""
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(IMPORT_REF_CHUNKS),
             str(Path(__file__).resolve().parent), str(root / "src")],
            cwd=root, capture_output=True, text=True, timeout=120, check=True)
        import_s, *chunk_s = map(float, proc.stdout.split())
        times.append((import_s, import_s * hostspeed.CALLS.scale(chunk_s)))
    return times


def measure_setup(workload, tracer=None) -> tuple[object, list[float]]:
    """Repeat the workload's program set-up, traced under op ids 0, 1, ... if a
    tracer is given; returns the last state and every time."""
    times, state = [], None
    if tracer is not None:
        tracer.install()
    try:
        for rep in range(SETUP_REPEATS):
            if tracer is not None:
                tracer.op = rep
            t0 = time.perf_counter()
            state = workload.setup()
            times.append(time.perf_counter() - t0)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return state, times


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 blas_threads: int) -> dict:
    """Set up, run and check one workload; returns the result object the launcher prints."""
    workdir = root / ".bench_work"
    print(f"workload: {name}  seed: {seed}  trace: {int(trace)}  seconds: {seconds:g}")
    print("machine: " + json.dumps(machine_facts(seed, root, blas_threads)))
    workload = workloads.WORKLOADS[name](seed, root, workdir)
    imports = measure_imports(root)
    import_s = statistics.median(wall for wall, _ in imports)
    tracer = tracing.Tracer() if trace else None
    setup_ref = workload.reference.chunks(SETUP_REF_CHUNKS)
    state, setup_times = measure_setup(workload, tracer)
    setup_ref += workload.reference.chunks(SETUP_REF_CHUNKS)

    records = timed_ops(workload, state, seconds, tracer, first_op=SETUP_REPEATS)
    run_errors = workload.check_run(state)
    failed = sum(1 for r in records if r["errors"])
    attempted = len(records)
    for r in records:
        for e in r["errors"]:
            print(f"FAILED op: {e}", file=sys.stderr)
    for e in run_errors:
        print(f"FAILED run check: {e}", file=sys.stderr)

    ok = [r for r in records if r["result"] is not None]
    digest = workload.digest([r["result"] for r in ok])
    setup_wall_s = import_s + statistics.median(setup_times)
    setup_s = (statistics.median(ref for _, ref in imports)
               + statistics.median(setup_times) * workload.reference.scale(setup_ref))
    if not trace:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_ref_s_p50": {"value": statistics.median(r["ref_s"] for r in records),
                             "unit": "s"},
            # After the first op: later ops add allocator growth that depends on
            # how many ops fit in the run, not on the program.
            "peak_rss_mb": {"value": records[0]["rss_mb"], "unit": "MB"},
        }
        work = workload.work(state, ok[0]["result"]) if ok else 0.0
        _print_end_to_end(workload, metrics, records, work, setup_wall_s, import_s, setup_times,
                          failed, attempted)
    else:
        traced_s = statistics.median(r["ref_s"] for r in records if r["traced"])
        untraced_s = statistics.median(r["ref_s"] for r in records if not r["traced"])
        traced_n = sum(r["traced"] for r in records)
        op_ids = list(range(SETUP_REPEATS, SETUP_REPEATS + traced_n))
        layer = tracing.per_layer_metrics(tracer.spans, op_ids, list(range(SETUP_REPEATS)))
        layer["setup.import_s"] = {"value": import_s, "unit": "s"}
        layer["trace.overhead_ratio"] = {"value": traced_s / untraced_s - 1.0, "unit": "ratio"}
        metrics = dict(sorted(layer.items()))
        print(f"traced ops: {traced_n}  untraced ops: {len(records) - traced_n}  "
              f"op reference s traced/untraced: {traced_s:.4f}/{untraced_s:.4f}")
        print("largest self time per op:")
        for span_name, s, share in tracing.self_time_ranking(tracer.spans, op_ids)[:12]:
            print(f"  {span_name:34s} {s:10.5f} s  {100 * share:5.1f}%")
        for key, m in metrics.items():
            print(f"  {key:38s} {m['value']:.6g} {m['unit']}")
        span_path = workdir / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_jsonl(span_path)
        print(f"spans: {len(tracer.spans)} written to {span_path.relative_to(root)}")
    print(f"digest: {digest}")
    return {"correct": failed == 0 and not run_errors, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _print_end_to_end(workload, metrics, records, work, setup_wall_s, import_s, setup_times,
                      failed, attempted):
    """The user-facing metrics under the names the workload gives its op and its work,
    as wall time and, where the result line carries them, in reference seconds."""
    op_times = [r["s"] for r in records]
    n, op_p50 = len(op_times), statistics.median(op_times)
    op, work_name = workload.op_label, workload.work_label
    print(f"  setup_s                {metrics['setup_s']['value']:.4f} s  (reference; wall "
          f"{setup_wall_s:.4f} s = import {import_s:.4f} s + median of {len(setup_times)} "
          f"set-ups {statistics.median(setup_times):.4f} s)")
    print(f"  {work_name + '_per_s':22s} {work / op_p50:.4f} 1/s"
          f"  ({work:g} per op / median op time)")
    print(f"  {op + '_s_p50':22s} {op_p50:.4f} s  (n={n}; reference "
          f"{metrics['op_ref_s_p50']['value']:.4f} s)")
    t = tail(op_times)
    if t is None:
        print(f"  {op + '_s_tail':22s} n/a  (n={n}: no percentile has ten samples beyond it)")
    else:
        print(f"  {op + '_s_tail':22s} {t[1]:.4f} s  (p{t[0]:.1f}, 10 samples beyond, n={n})")
    print(f"  peak_rss_mb            {metrics['peak_rss_mb']['value']:.1f} MB  (after the first op)")
    print(f"  error_rate             {failed / attempted:g}  ({failed} failed / {attempted} attempted)")
