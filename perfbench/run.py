"""Run one workload of the mfmc benchmark and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload ishigami-sobol --seed 1 --seconds 20 --trace 0

The last line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The benchmark imports mfmc from
the checkout's ``src/`` and exits with status 2 when that is missing.
"""

import os
import sys
from pathlib import Path

# BLAS and OpenMP pools are pinned to one thread before numpy loads, here and
# in every process this one starts; default threading made bridged quintic
# replicates vary by almost a factor of two on a 2-CPU machine.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def main() -> int:
    os.environ.update(THREAD_ENV)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "mfmc" / "__init__.py").is_file():
        print(f"error: no mfmc package under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.bench import main as bench_main

    return bench_main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
