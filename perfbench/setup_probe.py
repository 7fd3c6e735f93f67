"""Time one benchmark set-up: import qbm and build a workload's inputs.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
Prints the seconds from before the first import to inputs ready.
"""

import sys
import time

t0 = time.perf_counter()

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print(time.perf_counter() - t0)
