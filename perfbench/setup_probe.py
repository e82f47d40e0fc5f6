"""Print the wall-clock seconds a fresh process spends on import plus a workload's set-up.

Usage: python3 perfbench/setup_probe.py <workload>
"""

import sys
import time

import workloads


def main() -> None:
    workload = workloads.WORKLOADS[sys.argv[1]]()
    t0 = time.perf_counter()
    rc = workloads.import_engine()
    workload.setup(rc)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
