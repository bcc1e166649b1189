"""Record the reference digests of the workloads' analytic outputs.

    python3 bench/record_reference.py

Runs one pass of every workload, full and tiny size, at its default
seed and writes the digests of its analytic (bit-exact) outputs to
bench/reference.json.
The benchmark compares every run against them, so re-record only when
a change is meant to alter analytic outputs.
"""

import json
import os
import shutil
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(_BENCH), "src"), _BENCH]

from kljnbench.runner import (  # noqa: E402
    REFERENCE, RESULTS, check_outputs, run_pass, setup,
)
from kljnbench.workloads import workloads  # noqa: E402


def main() -> int:
    reference = {}
    RESULTS.mkdir(exist_ok=True)
    for size in ("full", "tiny"):
        reference[size] = {}
        for name, workload in workloads(size == "tiny").items():
            workdir = RESULTS / f"reference-{name}-{os.getpid()}"
            workdir.mkdir()
            try:
                _, kljn, files = setup(workload, workdir)
                codes = [code for _, code in
                         run_pass(kljn, workload, files, workload.default_seed)]
                problems, digests = check_outputs(
                    kljn, workload, files, workload.default_seed, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            found = [p for items in problems.values() for p in items]
            if any(codes) or found:
                print(f"{size} {name}: exit codes {codes}, problems {found}",
                      file=sys.stderr)
                return 1
            exact = {f"{c.subcommand}-{c.label}" for c in workload.commands
                     if c.exact}
            reference[size][name] = {
                "seed": workload.default_seed,
                "digests": {k: v for k, v in digests.items() if k in exact}}
            print(f"{size} {name}: {digests}")
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
