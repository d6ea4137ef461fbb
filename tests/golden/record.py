"""Golden-output corpus: the cases, how to solve them, how to write them.

Each case is one instance plus every solver config in CONFIGS that applies
to it. A case file `<name>.json` holds the canonical instance JSON (or, for
the large uncached case, the recipe that regenerates it) and one entry per
config with the solution and the trace, gains written with float.hex so that
a last-bit change shows. `tests/test_golden.py` re-solves every case and
compares bytes.

Regenerate only for a deliberate behaviour change, and say why in
CHANGES.md:

    PYTHONPATH=src python tests/golden/record.py

A new case is recorded on its own, leaving every other file as it is:

    PYTHONPATH=src python tests/golden/record.py <case> [<case> ...]

A differential between two source trees solves a seeded batch of random
instances (COUNT small ones, default 150, plus two uncached ones) with every
config but exact and writes the records to stdout, recording nothing:

    PYTHONPATH=<tree>/src python tests/golden/record.py --batch [COUNT] > <tree>.txt

Run it once per tree and compare the outputs with diff; a changed solution
or a changed last bit of a gain shows as a differing line. Where a change
moves last bits on purpose, tests/golden/compare.py OLD NEW tells gains that
moved within 1e-12 relative from changed solutions or moves.

With --digest the batch prints only the SHA-256 of that output:

    PYTHONPATH=src python tests/golden/record.py --batch [COUNT] --digest

tests/golden/batch.sha256 holds the digest of the default batch, and
tests/test_golden.py recomputes it. It ties the batch to one numpy/BLAS
build, as the uncached cases are tied: a deliberate last-bit change records
the new digest in the change that regenerates golden files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from divmax import GenSpec, QualityFunction, SolverConfig, harness, instgen, solvers

HERE = os.path.dirname(os.path.abspath(__file__))

# One entry per solver path: both odd policies, several alphas, the
# enhanced covering scheme, the single-element greedies and local search
# (one run to convergence and one that stops at an explicit swap cap).
CONFIGS = {
    "gp-alg1": dict(algorithm="gp", odd_policy="alg1_arbitrary"),
    "gp-roundup": dict(algorithm="gp", odd_policy="roundup_remove"),
    "gpa-a1-alg1": dict(algorithm="gpa", odd_policy="alg1_arbitrary"),
    "gpa-a1-roundup": dict(algorithm="gpa", odd_policy="roundup_remove"),
    "gpa-a0.5": dict(algorithm="gpa", alpha=0.5),
    "gpa-a0.7": dict(algorithm="gpa", alpha=0.7),
    "gpa-a0.95": dict(algorithm="gpa", alpha=0.95),
    "gpa-enh-alg1": dict(algorithm="gpa", enhanced=True, odd_policy="alg1_arbitrary"),
    "gpa-enh-roundup": dict(algorithm="gpa", enhanced=True, odd_policy="roundup_remove"),
    "gelms": dict(algorithm="gelms"),
    "mc": dict(algorithm="mc"),
    "rn": dict(algorithm="rn", seed=3),
    "lsi": dict(algorithm="lsi", seed=5),
    "lsg": dict(algorithm="lsg", seed=5),
    "lsi-cap3": dict(algorithm="lsi", seed=7, max_ls_iters=3),
    "exact": dict(algorithm="exact"),
}
PAIR_CONFIGS = ("gp-alg1", "gp-roundup", "gpa-a1-roundup", "gpa-enh-roundup")


def _cells(n: int, k: int, seed: int) -> list:
    """Uniform random partition labels in [0, k)."""
    return np.random.default_rng(seed).integers(0, k, size=n).tolist()


def _covers(n: int, universe: int, size: int, seed: int) -> QualityFunction:
    rng = np.random.default_rng(seed)
    return QualityFunction.coverage(
        [rng.choice(universe, size=size, replace=False).tolist() for _ in range(n)])


def _modular(n: int, seed: int) -> QualityFunction:
    return QualityFunction.modular(np.random.default_rng(seed).random(n))


def _random(n, m, budgets, seed, overlap=2):
    return instgen.gen_random(GenSpec(family="random", n=n, m=m, budgets=budgets,
                                      overlap=overlap, seed=seed))


def _quality(kind: str, n: int, seed: int) -> QualityFunction:
    if kind == "modular":
        return _modular(n, seed)
    if kind == "coverage":
        return _covers(n, 3 * n, 4, seed)
    return QualityFunction.zero()


def _small_cases() -> dict:
    """Instances small enough to store as JSON, keyed by case name."""
    cases = {}
    for kind in ("zero", "modular", "coverage"):
        base = _random(40, 4, [3, 4, 5, 2], seed=11)
        inst = dataclasses.replace(base, quality=_quality(kind, 40, 12))
        cases[f"random-{kind}"] = inst
        cases[f"random-{kind}-cells"] = dataclasses.replace(
            inst, partition=_cells(40, 18, 13))
        # six cells for 14 budget slots: clusters run out of cross-cell pairs
        cases[f"random-{kind}-fewcells"] = dataclasses.replace(
            inst, partition=_cells(40, 6, 14))
    # lambda * (b' - 1) * d rounds differently from lambda * ((b' - 1) * d) here
    for kind in ("modular", "coverage"):
        base = _random(40, 4, [3, 5, 4, 6], seed=61)
        cases[f"lambda-{kind}-cells"] = dataclasses.replace(
            base, quality=_quality(kind, 40, 62), partition=_cells(40, 18, 63), lam=0.37)
    # explicit all-distinct partition: singleton cells spelled out
    proto = instgen.gen_prototype(GenSpec(family="prototype", n=30, m=3,
                                          budgets=[3, 4, 3], seed=21))
    cases["prototype-coverage-singletons"] = dataclasses.replace(
        proto, partition=list(range(30)), quality=_covers(30, 60, 3, 22), lam=0.5)
    # Jaccard metric with the item sets as covers, lambda != 1
    rng = np.random.default_rng(31)
    sets = [rng.choice(12, size=int(rng.integers(1, 5)), replace=False).tolist()
            for _ in range(24)]
    jac = dataclasses.replace(_random(24, 3, [2, 3, 4], seed=32), feature_kind="set",
                              metric="jaccard", features=sets,
                              quality=QualityFunction.coverage(sets), lam=0.7)
    cases["jaccard-coverage-cells"] = dataclasses.replace(jac, partition=_cells(24, 10, 33))
    cases["fig1"] = instgen.gen_fig1(GenSpec(family="fig1", D=10.0))
    tight, _, _ = instgen.gen_tight(GenSpec(family="tight", q=2, eps=1e-6))
    cases["tight-q2"] = tight
    # small enough for the exhaustive oracle
    tiny = _random(12, 3, [2, 3, 1], seed=41)
    cases["tiny-coverage-cells"] = dataclasses.replace(
        tiny, quality=_covers(12, 20, 3, 42), partition=_cells(12, 8, 43))
    cases["tiny-modular"] = dataclasses.replace(tiny, quality=_modular(12, 44))
    cases["tiny-zero-cells"] = dataclasses.replace(tiny, partition=_cells(12, 8, 45))
    # budgets 9, 11, 13: the ALG1 odd phase sums 8 or more peers and local
    # search reads 8 or more reference rows, where numpy's pairwise summation
    # order shows in the last bit
    odd = _random(60, 3, [9, 11, 13], seed=71)
    cases["odd-zero"] = odd
    cases["odd-coverage-cells"] = dataclasses.replace(
        odd, quality=_quality("coverage", 60, 72), partition=_cells(60, 120, 73))
    # every element in three of five clusters and 24 cells for 50 elements:
    # a pair added to one cluster fills cells that other clusters hold
    shared = _random(50, 5, [6, 4, 7, 4, 6], seed=91, overlap=3)
    cases["overlap-modular-sharedcells"] = dataclasses.replace(
        shared, quality=_quality("modular", 50, 92), partition=_cells(50, 24, 93))
    return cases


# Above geometry.CACHE_LIMIT the oracle computes every read from its row
# kernel, whose last bits may differ from the cache's; the first few
# clusters keep the pair scans small. The dim-10 cases pin that kernel: a
# change to it, or a read that stops going through it, changes recorded
# gains there. The cosine case has odd budgets, so its ALG1 odd phase reads
# d(u, v) through rows of both shapes, transposed where the free members
# outnumber the selection.
UNCACHED = {
    "uncached-coverage-cells": {
        "genspec": {"family": "random", "n": 4200, "m": 140, "budgets": [4, 5, 4, 3],
                    "overlap": 1, "seed": 51},
        "clusters": 4, "covers_seed": 52, "cells": 2000, "cells_seed": 53},
    "uncached-dim10-coverage-cells": {
        "genspec": {"family": "random", "n": 4200, "m": 140, "budgets": [4, 5, 4, 3, 6, 2],
                    "overlap": 1, "seed": 52, "dim": 10},
        "clusters": 6, "covers_seed": 52, "cover_size": 1, "cells": 2000, "cells_seed": 53,
        "lambda": 3.0},
    "uncached-cosine-dim10": {
        "genspec": {"family": "random", "n": 4200, "m": 140, "budgets": [7, 11, 11, 7],
                    "overlap": 1, "seed": 54, "dim": 10},
        "clusters": 4, "metric": "cosine",
        "configs": ["gp-alg1", "gpa-a1-alg1", "gpa-enh-alg1", "lsi", "lsg"]},
}


# zero quality on cosine rows, and coverage with cells and lambda != 1
BATCH_UNCACHED = [
    {"genspec": {"family": "random", "n": 4300, "m": 140, "budgets": [5, 6, 7, 4],
                 "overlap": 1, "seed": 81, "dim": 10},
     "clusters": 4, "metric": "cosine"},
    {"genspec": {"family": "random", "n": 4300, "m": 140, "budgets": [6, 5, 4, 7],
                 "overlap": 2, "seed": 82},
     "clusters": 4, "covers_seed": 83, "cells": 2500, "cells_seed": 84, "lambda": 0.37},
]


def _unit(X: np.ndarray) -> np.ndarray:
    """Points centred on the unit cube's middle, then scaled to unit norm."""
    X = X - 0.5
    return X / np.linalg.norm(X, axis=1)[:, None]


def batch_cases(count: int):
    """(name, instance) for count seeded random instances, then the uncached ones.

    Quality kinds and lambdas cycle so every 12 instances cover each pair;
    cells, the metric (euclidean at dim 2 or 5, cosine, Jaccard), sizes,
    budgets and overlaps are drawn.
    """
    for i in range(count):
        rng = np.random.default_rng([97, i])
        n, m = int(rng.integers(12, 61)), int(rng.integers(1, 6))
        inst = instgen.gen_random(GenSpec(
            family="random", n=n, m=m, budgets=rng.integers(1, 14, size=m).tolist(),
            overlap=int(rng.integers(1, m + 1)), dim=int(rng.choice([2, 5])), seed=1000 + i))
        inst = dataclasses.replace(inst, quality=_quality(("zero", "modular", "coverage")[i % 3],
                                                          n, 2000 + i),
                                   lam=(0.0, 0.37, 1.0, 2.3)[i // 3 % 4])
        if rng.random() < 0.5:
            inst = dataclasses.replace(
                inst, partition=_cells(n, int(rng.integers(n // 3, n + 1)), 3000 + i))
        metric = rng.choice(["euclidean", "euclidean", "cosine", "jaccard"])
        if metric == "cosine":
            inst = dataclasses.replace(inst, metric="cosine", features=_unit(inst.features))
        elif metric == "jaccard":
            sets = [rng.choice(12, size=int(rng.integers(1, 5)), replace=False).tolist()
                    for _ in range(n)]
            inst = dataclasses.replace(inst, feature_kind="set", metric="jaccard", features=sets)
        yield f"batch-{i}", inst
    for k, recipe in enumerate(BATCH_UNCACHED):
        yield f"batch-uncached-{k}", build_uncached(recipe)


def build_uncached(recipe: dict):
    spec = dict(recipe["genspec"])
    m = spec["m"]
    budgets = spec.pop("budgets")
    spec["budgets"] = (budgets * m)[:m]
    inst = instgen.gen_random(GenSpec(**spec))
    n = inst.n
    inst = dataclasses.replace(inst, clusters=inst.clusters[:recipe["clusters"]],
                               lam=recipe.get("lambda", 1.0))
    if recipe.get("metric") == "cosine":
        inst = dataclasses.replace(inst, metric="cosine", features=_unit(inst.features))
    if "covers_seed" in recipe:
        inst = dataclasses.replace(
            inst, quality=_covers(n, 3 * n, recipe.get("cover_size", 4), recipe["covers_seed"]),
            partition=_cells(n, recipe["cells"], recipe["cells_seed"]))
    return inst


def configs_for(name: str, inst) -> list:
    """Config names that a case runs; exact only where it is cheap."""
    if name in UNCACHED:
        return list(UNCACHED[name].get("configs", PAIR_CONFIGS))
    names = [c for c in CONFIGS if c != "exact"]
    if inst.n <= 12:
        names.append("exact")
    return names


def solver_config(name: str) -> SolverConfig:
    d = dict(CONFIGS[name])
    d["algorithm"] = solvers.Algorithm(d["algorithm"])
    if "odd_policy" in d:
        d["odd_policy"] = solvers.OddPolicy(d["odd_policy"])
    return SolverConfig(**d)


def run_record(inst, config: str) -> dict:
    solution, trace = solvers.solve(inst, solver_config(config))
    return {
        "config": config,
        "solution": [list(S) for S in solution.selected],
        "init": None if trace.init is None else [list(S) for S in trace.init],
        "events": [[e.step, e.kind, e.cluster, [int(v) for v in e.elements],
                    float(e.gain).hex()] for e in trace.events],
    }


def render(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def expected_path(name: str) -> str:
    return os.path.join(HERE, f"{name}.json")


def instance_path(name: str) -> str:
    return os.path.join(HERE, f"{name}.instance.json")


def load_case(name: str):
    """The case's instance as the test sees it: read back from its file."""
    if name in UNCACHED:
        return build_uncached(UNCACHED[name])
    return harness.load_instance(instance_path(name))


def case_names() -> list:
    names = sorted(p[:-len(".instance.json")] for p in os.listdir(HERE)
                   if p.endswith(".instance.json"))
    return names + sorted(UNCACHED)


def solve_case(name: str) -> str:
    inst = load_case(name)
    payload = {"case": name, "runs": [run_record(inst, c) for c in configs_for(name, inst)]}
    if name in UNCACHED:
        payload["recipe"] = UNCACHED[name]
    return render(payload)


def batch_records(count: int = 150):
    """The --batch output, one rendered case at a time."""
    configs = [c for c in CONFIGS if c != "exact"]
    for name, inst in batch_cases(count):
        yield render({"case": name, "runs": [run_record(inst, c) for c in configs]})


def batch_digest(count: int = 150) -> str:
    """SHA-256 of the --batch output (ASCII JSON), as hex."""
    h = hashlib.sha256()
    for text in batch_records(count):
        h.update(text.encode("ascii"))
    return h.hexdigest()


def main(argv: list) -> int:
    if argv[:1] == ["--batch"]:
        rest = [a for a in argv[1:] if a != "--digest"]
        count = int(rest[0]) if rest else 150
        if "--digest" in argv:
            print(batch_digest(count))
        else:
            for text in batch_records(count):
                sys.stdout.write(text)
        return 0
    small = _small_cases()
    names = argv or list(small) + sorted(UNCACHED)
    unknown = [name for name in names if name not in small and name not in UNCACHED]
    if unknown:
        print(f"unknown case: {unknown[0]}", file=sys.stderr)
        return 2
    for name in names:
        if name in small:
            harness.save_instance(instance_path(name), small[name])
    for name in names:
        with open(expected_path(name), "w") as fh:
            fh.write(solve_case(name))
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
