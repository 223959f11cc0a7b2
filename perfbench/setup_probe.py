"""One set-up of a workload in a fresh process; prints its seconds.

    python3 perfbench/setup_probe.py <workload> <seed> [--toy]

Timed from before tbqkd (and with it numpy) is imported to the end of
the workload's first build_link_model call. run.py starts it several
times and reports the median as setup_s.
"""

import sys
import time

t0 = time.perf_counter()

from run import import_program  # noqa: E402  (run.py sits next to this file)

import_program()
from workloads import FULL, TOY, WORKLOADS  # noqa: E402

workload, seed = sys.argv[1], int(sys.argv[2])
WORKLOADS[workload](seed, TOY if "--toy" in sys.argv[3:] else FULL).setup()
print(time.perf_counter() - t0)
