"""Set-up probe: one fresh interpreter gets ready for its first job.

    python3 bench/setup_probe.py <spec-dir>

It imports ``carnot.cli`` from ``src/``, writes the generated specs into
``<spec-dir>`` and prints ``time.monotonic()`` at that moment.  The
monotonic clock is shared by all processes, so the parent subtracts the
time it read just before starting this interpreter.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import carnot.cli  # noqa: E402,F401  (the import is what is measured)
import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.write_specs(sys.argv[1])
    print(time.monotonic())
