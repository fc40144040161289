"""One set-up sample in a fresh process: import wexpand and build a
workload's inputs, then print the seconds taken.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path


def main(workload: str, seed: int) -> None:
    start = time.perf_counter()
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    import workloads

    next(workloads.inputs(workload, seed, root))
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
