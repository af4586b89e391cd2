"""Child process for the timings that need a fresh interpreter.

  python bench/probe.py import
      time `import numpy`, then `import lu3q` (numpy excluded)
  python bench/probe.py setup WORKLOAD WARMUP.json
      time `import lu3q` plus the workload's warm-up operations

Each prints one JSON object.  run.py starts it with PYTHONPATH=src; the
warm-up inputs are read before the clock starts, so input handling is not
counted.
"""

import json
import sys
from time import perf_counter


def _matrix(entries):
    import numpy as np
    arr = np.asarray(entries, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def main(argv):
    if argv[0] == "import":
        t0 = perf_counter()
        import numpy  # noqa: F401
        t1 = perf_counter()
        import lu3q  # noqa: F401
        t2 = perf_counter()
        print(json.dumps({"numpy_ms": 1e3 * (t1 - t0), "lu3q_ms": 1e3 * (t2 - t1)}))
        return 0
    workload, path = argv[1], argv[2]
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    t0 = perf_counter()
    import inputs
    import workloads
    op = workloads.operation(workload)
    for pair in data:
        case = inputs.Case("", "", *(_matrix(m) for m in pair))
        workloads.attempt(op, case)
    print(json.dumps({"setup_s": perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
