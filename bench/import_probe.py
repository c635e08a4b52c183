"""Reference probe for the set-up import: a cold import of numpy and PyYAML.

    python3 bench/import_probe.py

Runs in a fresh interpreter and prints the seconds the import takes.  It
does not touch `ucbfw`; run.py scales the import part of every set-up
probe by it (see calibrate.py).
"""

import time

t0 = time.perf_counter()

import numpy  # noqa: E402,F401  (the import is what is timed)
import yaml  # noqa: E402,F401

print(time.perf_counter() - t0)
