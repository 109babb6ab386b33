"""Time one fresh interpreter from `import leavitt` to ready for the first op.

    python3 bench/setup_probe.py WORKLOAD SEED [--smoke]

Ready means: the package and its CLI imported, the workload's graph and
degree inputs parsed, and its first round of ops built. Prints the seconds.
run.py starts this several times per run and reports the median as setup_s.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import leavitt  # noqa: E402,F401  (timed: the import is part of set-up)
import workloads  # noqa: E402

name, seed = sys.argv[1], int(sys.argv[2])
size = workloads.SMOKE if "--smoke" in sys.argv[3:] else workloads.FULL
workloads.WORKLOADS[name].prepare(seed, size).ops_for_round(0)
print(time.perf_counter() - start)
