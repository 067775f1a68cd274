#!/usr/bin/env python3
"""orthorank benchmark: seeded prefill, decode and calibrate workloads.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload prefill --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The library is imported from the checkout's
``src/`` directory; without it the command exits with status 2 and prints
no result. See benchmarks/README.md for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def cap_blas_threads() -> dict:
    """Cap BLAS/OpenMP threads at the CPUs this process may use.

    Must run before numpy is imported. Returns the variables as the caller
    set them.
    """
    nproc = len(os.sched_getaffinity(0))
    as_set = {var: os.environ.get(var) for var in THREAD_VARS}
    for var, value in as_set.items():
        if value is None or not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return as_set


def import_library():
    """Import orthorank from the checkout's src/, or exit with status 2."""
    src = ROOT / "src"
    package = src / "orthorank"
    if not (package / "__init__.py").is_file():
        print(f"error: no orthorank sources at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import orthorank

    if Path(orthorank.__file__).resolve().parent != package.resolve():
        print(f"error: imported orthorank from {orthorank.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)
    return orthorank


def main(argv=None) -> int:
    threads_as_set = cap_blas_threads()
    import_library()
    import harness

    return harness.main(argv, ROOT, threads_as_set)


if __name__ == "__main__":
    sys.exit(main())
