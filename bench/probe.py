"""Set-up probe: a fresh process that builds one workload's inputs.

    python3 bench/probe.py <workload> <seed>

It imports mvcheb, builds the workload (specs, Covariance, argv) and prints
``ready``; ``run.py`` times it from spawn to that line as ``setup_s``.
"""

import sys

from workloads import WORKLOADS

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]](int(sys.argv[2]))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
