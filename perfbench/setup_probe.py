"""Time one workload set-up in a fresh interpreter and print it in seconds.

Set-up is importing firingmap (numpy comes with it) and its CLI, then
parsing and validating every system the workload's library requests use.

    python3 perfbench/setup_probe.py <workload>
"""

import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import specs  # noqa: E402  (plain data, imports nothing heavy)

start = time.perf_counter()
import firingmap  # noqa: E402
import firingmap.cli  # noqa: E402,F401

specs.build_systems(firingmap, sys.argv[1])
print(repr(time.perf_counter() - start))
