"""Set-up probe: import the package and build the per-layout caches, then
print the wall clock.  run.py starts it several times and reports the
median of (printed time - launch time) as setup_s.

    python3 benchmarks/probe.py SRC_DIR 2x4,4x2,3x3
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

import qw1.cli  # noqa: E402,F401  (the CLI's imports: numpy, scipy, click)
from qw1 import w1  # noqa: E402

for spec in sys.argv[2].split(","):
    d, n = (int(v) for v in spec.split("x"))
    w1._layout_data(d, n)
print(repr(time.time()))
