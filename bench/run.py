"""mvreg benchmark: one workload, one closed-loop run, one JSON result line.

Run from the repository root (it imports mvreg from ./src):

    python3 bench/run.py --workload synthetic-30x2048 --seed 1 --seconds 38 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced solve. The last stdout line is the result object; the
line before it records the environment, the workload's seed and sizes, the
pose digests and every solve time. Files a workload writes go under
.bench_out/ and are removed at the end of the run. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
OUT_DIR = Path(".bench_out")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable CPU count, in this process's environment
    only; it must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blas_threads = cap_blas_threads()
    src = Path.cwd() / "src"
    if not (src / "mvreg" / "__init__.py").is_file():
        print(f"bench: no mvreg sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness
    import mvreg
    from workloads import FULL, WORKLOADS

    if Path(mvreg.__file__).resolve().parent != (src / "mvreg").resolve():
        print(f"bench: imported mvreg from {mvreg.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json" if args.trace else None
    work_dir = OUT_DIR / f"work-{args.workload}-seed{args.seed}"
    result, info = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               FULL[args.workload], work_dir, spans_path)
    info["env"] = harness.environment(blas_threads)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
