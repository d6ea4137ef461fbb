"""Print each job's fastest solve on one perfbench workload, and their sum.

perfbench/run.py times whole passes over a workload's jobs and reports
medians. This script builds the same workload (perfbench/workloads.generate,
the given seed, full scale) in a temporary directory, loads every instance
once, then runs REPS passes that solve each job once in turn, so a slow
spell of the host spreads over every job. It prints each job's minimum solve
time and the sum of those minima (the pass sum). Run it from the repository
root, with one BLAS thread, on any source tree:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<tree>/src python tests/job_times.py WORKLOAD [SEED] [REPS]

SEED defaults to 11 and REPS to 8. pytest does not collect this file.
"""

import pathlib
import sys
import tempfile
import time

from divmax import harness
from divmax.solvers import Algorithm, SolverConfig, solve

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (perfbench is not a package)


def main(workload: str, seed: int, repeats: int) -> None:
    with tempfile.TemporaryDirectory() as work:
        manifest = workloads.generate(workload, seed, "full", work)
        instances = [harness.load_instance(meta["path"]) for meta in manifest["instances"]]
    for inst in instances:
        inst.oracle()
    jobs = [(instances[job["instance"]],
             SolverConfig(**{**job["config"], "algorithm": Algorithm(job["config"]["algorithm"])}))
            for job in manifest["jobs"]]
    best = [float("inf")] * len(jobs)
    for _ in range(repeats):
        for i, (inst, config) in enumerate(jobs):
            t0 = time.perf_counter()
            solve(inst, config)
            best[i] = min(best[i], time.perf_counter() - t0)
    for job, t in zip(manifest["jobs"], best):
        name = manifest["instances"][job["instance"]]["name"]
        print(f"{name:>10} {job['label']:<8} {t * 1e3:8.2f} ms")
    print(f"{workload} seed {seed}: pass sum {sum(best) * 1e3:.2f} ms (min of {repeats})")


if __name__ == "__main__":
    if not 2 <= len(sys.argv) <= 4:
        sys.exit(__doc__)
    main(sys.argv[1], int(sys.argv[2]) if len(sys.argv) > 2 else 11,
         int(sys.argv[3]) if len(sys.argv) > 3 else 8)
