"""spatialgrad benchmark launcher: one workload per invocation, or all four in one process.

    python3 bench/run.py --workload train_digits --seed 0 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``. The BLAS thread count is pinned here, before numpy is imported,
because an unpinned OpenBLAS moved ``train_digits`` by over 20% between runs.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates traced and untraced ops, prints the per-layer metrics
and the tracing overhead, and writes every span to ``.bench_work/``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("train_digits", "equiv_k7", "refresh_mi_k7", "refresh_mi_k7_filtered")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spatialgrad" / "__init__.py").is_file():
        print(f"error: no spatialgrad sources under {ROOT / 'src'}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spatialgrad
    import harness  # imports numpy and every program module the workloads use

    if Path(spatialgrad.__file__).resolve().parent != ROOT / "src" / "spatialgrad":
        print(f"error: imported spatialgrad from {spatialgrad.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = [harness.run_workload(n, args.seed, args.seconds, bool(args.trace), ROOT,
                                    BLAS_THREADS)
               for n in names]
    if len(results) == 1:
        summary = results[0]
    else:
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
