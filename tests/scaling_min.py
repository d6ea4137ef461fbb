"""Print criterion 6's solve times as the minimum of N solves per size.

tests/test_acceptance.py::test_criterion_6_scaling_bands times zero-quality
gpa (alpha 0.95) at n = 10k, 20k and 40k and gp at n = 500 and 1000 on
GenSpec(family="random", m=10, budgets=10, seed=0), each size as the median
of a few solves (harness.bench_scaling). This script builds the same five
instances once, then runs N rounds that solve each instance once in turn, so
a slow spell of the host spreads over every size. It prints each size's
fastest solve and the successive ratios. Run it from the repository root,
with one BLAS thread, on any source tree:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<tree>/src python tests/scaling_min.py [N]

N defaults to 40. pytest does not collect this file.
"""

import dataclasses
import sys
import time

from divmax import instgen
from divmax.solvers import Algorithm, SolverConfig, solve

SPEC = instgen.GenSpec(family="random", m=10, budgets=10, seed=0)
CASES = [("gpa", SolverConfig(algorithm=Algorithm.GPA, alpha=0.95), (10_000, 20_000, 40_000)),
         ("gp", SolverConfig(algorithm=Algorithm.GP), (500, 1000))]


def main(repeats: int) -> None:
    runs = []  # (case index, instance)
    for c, (_, _, sizes) in enumerate(CASES):
        for n in sizes:
            inst = instgen.generate(dataclasses.replace(SPEC, n=n))
            inst.oracle()
            runs.append((c, inst))
    best = [float("inf")] * len(runs)
    for _ in range(repeats):
        for i, (c, inst) in enumerate(runs):
            t0 = time.perf_counter()
            solve(inst, CASES[c][1])
            best[i] = min(best[i], time.perf_counter() - t0)
    for c, (name, _, sizes) in enumerate(CASES):
        times = [t for (k, _), t in zip(runs, best) if k == c]
        ratios = [b / a for a, b in zip(times, times[1:])]
        print(f"{name} n={'/'.join(map(str, sizes))}: "
              f"{'/'.join(f'{t * 1e3:.2f}' for t in times)} ms (min of {repeats}), "
              f"ratios {', '.join(f'{r:.2f}' for r in ratios)}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 40)
