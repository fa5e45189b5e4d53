"""Print the seconds taken to import specmeasure and build every model a
workload uses.  Run in a fresh interpreter by run.py, once per sample:

    python3 perfbench/setup_probe.py mise_closed
"""

import time

start = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]]
workloads.build_models(workloads.import_library(workload), workload)
print(time.perf_counter() - start)
