"""The CLI's one entry, for ``python -m mvcheb`` and the ``mvcheb`` script."""

import os
import sys


def run() -> int:
    # OpenBLAS starts its thread pool when numpy loads it, so the count is set
    # first. Every BLAS call of the CLI runs in linalg.one_blas_thread, so more
    # threads could only spin idle, never change a result: it is set always.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main
    return main()


if __name__ == "__main__":
    sys.exit(run())
