"""Write one workload's inputs into the current directory, and time it.

    python3 bench/make_inputs.py dp-mc 1

Prints one JSON line: `import_s`, the seconds to import numpy, tolerantlearn
and the workload code; `numpy_s`, the part of it spent importing numpy,
which `run.py` uses as the machine's pace for the set-up; and `inputs_s`, the
seconds to generate the inputs from the seed and write them.  `run.py` runs
this in fresh interpreters, so the set-up's time is measured from a cold
start and its memory stays out of the process that runs the operations.
"""

import time

START = time.perf_counter()

import numpy  # noqa: E402,F401

NUMPY = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tolerantlearn.cli  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

IMPORTED = time.perf_counter()


def main(argv) -> int:
    name, seed = argv
    WORKLOADS[name].write_inputs(int(seed))
    print(json.dumps({"import_s": IMPORTED - START, "numpy_s": NUMPY - START,
                      "inputs_s": time.perf_counter() - IMPORTED}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
