"""Print the exhaustive oracle's answers on a seeded batch of small instances.

Instance i is drawn from seed i: n in 4..24 points in the unit square, 1 to
4 overlapping clusters with budgets 1 to 4, zero, modular or coverage
quality, partition cells on or off, and lambda in {0, 0.37, 1, 2.3}. Each
line names the instance (index, quality kind, cells, lambda, n, m) and then
gives solve_exact's solution and its value as float.hex, or `limit` where
the oracle refuses the instance (OracleLimitError; the batch passes a limit
of LIMIT). Run it once per source tree and compare the outputs with diff:

    PYTHONPATH=<tree>/src python tests/exact_batch.py [COUNT] > <tree>.txt

COUNT defaults to 400. pytest does not collect this file.
"""

import sys

import numpy as np

from divmax import Cluster, Instance, QualityFunction
from divmax.solvers import OracleLimitError, solve_exact

KINDS = ("zero", "modular", "coverage")
LAMBDAS = (0.0, 0.37, 1.0, 2.3)
LIMIT = 200_000


def instance(i: int) -> Instance:
    rng = np.random.default_rng(i)
    n = int(rng.integers(4, 25))
    m = int(rng.integers(1, 5))
    kind = KINDS[i % 3]
    cells = (i // 3) % 2 == 1
    lam = LAMBDAS[(i // 6) % 4]
    clusters = []
    for j in range(m):
        size = int(rng.integers(2, min(n, 8) + 1))
        members = rng.choice(n, size=size, replace=False).tolist()
        clusters.append(Cluster(j, tuple(members), int(rng.integers(1, 5))))
    if kind == "modular":
        quality = QualityFunction.modular(rng.random(n).round(3) * 4)
    elif kind == "coverage":
        quality = QualityFunction.coverage(
            [rng.choice(12, size=int(rng.integers(1, 4)), replace=False).tolist()
             for _ in range(n)])
    else:
        quality = QualityFunction.zero()
    partition = rng.integers(0, max(2, n // 2), size=n).tolist() if cells else None
    return Instance(n=n, feature_kind="vector", features=rng.random((n, 2)),
                    clusters=clusters, metric="euclidean", partition=partition,
                    lam=lam, quality=quality)


def main(count: int) -> None:
    for i in range(count):
        inst = instance(i)
        head = (f"{i} {inst.quality.kind} cells={int(inst.partition is not None)} "
                f"lam={inst.lam} n={inst.n} m={inst.m}")
        try:
            sol, val = solve_exact(inst, limit=LIMIT)
        except OracleLimitError:
            print(head, "limit")
            continue
        print(head, list(sol.selected), float(val).hex())


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 400)
