"""Time one set-up in a fresh interpreter under a speed meter, and print
it in seconds: scaled to the reference speed (see speed.py), then by
wall time.

Set-up is what every workload starts from: importing fdc, then building the
prelude, the four fuzz preludes and the checked corpus environments.
Usage: python3 perfbench/setup_probe.py SRC_DIR
"""

import sys

import speed

with speed.Meter() as meter:
    sys.path.insert(0, sys.argv[1])
    import workloads  # noqa: E402  (imports fdc)

    workloads.build_context()
print(meter.scaled, meter.wall)
