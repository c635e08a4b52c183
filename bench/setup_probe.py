"""Set-up probe: import, parse_config, experiment-level build_model and minimizer.

    python3 bench/setup_probe.py <config.yaml>

Runs in a fresh interpreter so that the import is cold.  Prints the seconds
from just before `import ucbfw` until it returns, the seconds from then
until the minimizer returns, and the speed of the calibration kernel timed
in this process right after (see calibrate.py).
"""

import sys
import time

t0 = time.perf_counter()

from ucbfw import cli, harness  # noqa: E402  (the import is part of what is timed)

t1 = time.perf_counter()
config = cli.parse_config(sys.argv[1])
harness.minimizer(harness.build_model(config.model))
t2 = time.perf_counter()

import calibrate  # noqa: E402  (after the timed part)

# a shorter slice than between repetitions: there are many probes
print(t1 - t0, t2 - t1, calibrate.speed(0.15))
