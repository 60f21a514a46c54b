"""Set-up probe: import momentkoszul, build one workload's families,
generators and field, then print the monotonic clock in seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED

``run.py`` starts it several times and takes the time from just before each
start to the printed clock as one set-up sample.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import build  # noqa: E402

build(sys.argv[1], int(sys.argv[2]))
print(time.monotonic())
