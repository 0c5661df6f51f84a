"""Time one cold set-up of a workload: import tetmpm, build its scene, construct SimState.

    python3 perfbench/probe_setup.py WORKLOAD SEED

Prints the seconds taken and then the calibration factor of reference work
run right after it (see ``calibrate``).  ``run.py`` runs it in fresh
interpreters so the import is paid every time, as a user's first call pays it.
"""

import sys
from pathlib import Path
from time import perf_counter

REFERENCE_S = 0.25   # reference work after the set-up, in seconds

t0 = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import tetmpm  # noqa: E402
from workloads import WORKLOADS, build_config  # noqa: E402

tetmpm.SimState(build_config(WORKLOADS[sys.argv[1]], int(sys.argv[2])))
setup = perf_counter() - t0

import calibrate  # noqa: E402

reference = calibrate.Reference()
reference.unit()   # warm-up, not counted
reference.run_for(REFERENCE_S)
print(setup, reference.factor())
