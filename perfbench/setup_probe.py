"""Set-up probe: import mfmc, build one workload's config and hierarchy, exit.

The benchmark times fresh runs of ``python3 perfbench/setup_probe.py <workload>``
to measure ``setup_s``, which therefore includes interpreter start-up.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].setup()
