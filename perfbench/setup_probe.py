"""One set-up sample in a fresh interpreter; prints seconds on stdout.

Times what stands between the command and a workload's first decision:
importing the program, expanding the workload's specs, and building the
world and simulator of its first spec.  ``perfbench/run.py`` runs this a few
times per run and reports the median as ``setup_s``.

Usage: ``python3 perfbench/setup_probe.py <workload> <world seed> [max decisions]``
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS  # noqa: E402


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    max_decisions = int(sys.argv[3]) if len(sys.argv) > 3 else None
    specs = workload.specs(int(sys.argv[2]), max_decisions)
    specs[0].build_simulator()
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
