"""Entry point of the kljn benchmark; see bench/README.md.

    python3 bench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
"""

import os
import sys
import time

STARTED = time.perf_counter()

# One thread per BLAS/OpenMP pool; set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(_BENCH), "src"), _BENCH]

from kljnbench.runner import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(started=STARTED))
