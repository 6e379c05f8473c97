"""Time one set-up of a workload in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints two numbers: the CPU seconds taken to import the package and build
the workload's inputs, and the median of three calibration samples taken
right after (see calibrate.py).  ``run.py`` starts several of these and
reports the median scaled set-up time.
"""

import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Clock for every timed operation, set-up and calibration sample.
CLOCK = time.process_time
CALIBRATION_SAMPLES = 3


def import_workloads():
    """Import the package from this checkout's ``src`` (never an installed
    copy) and the benchmark's workload module."""
    if not os.path.isfile(os.path.join(SRC, "dvbn", "__init__.py")):
        raise SystemExit(f"perfbench: no package source under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import dvbn
    if not os.path.abspath(dvbn.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: dvbn imported from {dvbn.__file__}, not {SRC}")
    import workloads
    return workloads


def main(workload: str, seed: int) -> None:
    t0 = CLOCK()
    workloads = import_workloads()
    workloads.WORKLOADS[workload](seed)
    setup = CLOCK() - t0
    import calibrate
    cal = statistics.median(calibrate.sample(CLOCK) for _ in range(CALIBRATION_SAMPLES))
    print(setup, cal)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
