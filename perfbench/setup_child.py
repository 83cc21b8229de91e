"""Set-up time of one fresh interpreter, for the `setup_s` metric.

    python3 perfbench/setup_child.py WORKLOAD SEED

Times `import itsa` (with NumPy and SciPy) plus the first analysis of the
workload; generating its inputs is left out. Prints one JSON line with
`setup_s` and `failed` (1 if the analysis's output check failed).
run.py starts this script several times per run and reports the median.
"""

import json
import sys
import time

import run  # pins the BLAS threads; imports only the standard library

t0 = time.perf_counter()
run.import_itsa()
import workloads  # noqa: E402

t1 = time.perf_counter()
workload = workloads.WORKLOADS[sys.argv[1]]
inputs = workload.make_inputs(int(sys.argv[2]))
t2 = time.perf_counter()
result = workload.analyse(inputs[0])
t3 = time.perf_counter()
problems = workload.check(inputs[0], result)
print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2), "failed": int(bool(problems))}))
