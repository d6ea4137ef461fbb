"""Seeded workloads: instance generation and the job list of each.

A workload is a fixed list of instances, each written as canonical JSON with
`save_instance` before anything is timed, plus a list of jobs. A job is one
solver config on one instance, run as solve -> combined_objective ->
save_solution. The same seed always gives the same files and jobs.

`instgen` only makes zero-quality euclidean or matrix instances, so the
coverage covers, modular weights and Jaccard item sets are drawn here.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from divmax import harness, instgen
from divmax.quality import QualityFunction

TIGHT_EPS = 1e-6
GPA_ALPHA = 0.95

WHY = {
    "pairs-cached": (
        "dispersion only on cached euclidean n=1000 plus a tight instance; "
        "gp's Python pair scan dominates, with the odd-budget ALG1 phase"
    ),
    "quality-greedy": (
        "coverage and modular quality on greedy solvers; QualityState "
        "marginals and removal_measure dominate"
    ),
    "local-search": (
        "lsi/lsg swap loops with an explicit swap cap; per-swap oracle rows "
        "and full re-evaluation dominate"
    ),
    "build-and-io": (
        "large JSON inputs (n=40000 uncached, Jaccard n=2000, 1640^2 matrix); "
        "load, validate and oracle build dominate set-up and memory"
    ),
}

# Sizes per scale. "tiny" exists for the self-test only.
SCALES = {
    "full": {
        "pairs-cached": {"n": 1000, "randoms": 2, "q": 10},
        "quality-greedy": {"n": 200, "coverage": 3, "universe": 200, "cover": 8},
        "local-search": {"n": 200, "sets": 2, "universe": 200, "cover": 8, "cap": 50},
        "build-and-io": {"n_big": 40000, "n_jac": 2000, "vocab": 4000, "q": 20},
    },
    "tiny": {
        "pairs-cached": {"n": 60, "randoms": 1, "q": 3},
        "quality-greedy": {"n": 40, "coverage": 1, "universe": 60, "cover": 4},
        "local-search": {"n": 40, "sets": 1, "universe": 60, "cover": 4, "cap": 10},
        "build-and-io": {"n_big": 5000, "n_jac": 80, "vocab": 300, "q": 3},
    },
}


class _Inputs:
    """Collects instance files and jobs for one workload manifest."""

    def __init__(self, workdir: str, seed: int, salt: int):
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, salt])
        self.instances = []
        self.jobs = []

    def subseed(self) -> int:
        return int(self.rng.integers(2**31 - 1))

    def add(self, name: str, inst, tight_q: int | None = None) -> int:
        path = os.path.join(self.workdir, f"{name}.json")
        harness.save_instance(path, inst)
        self.instances.append({"name": name, "path": path, "tight_q": tight_q,
                               "tight_eps": TIGHT_EPS if tight_q else None})
        return len(self.instances) - 1

    def job(self, inst: int, algorithm: str, **config) -> None:
        label = algorithm
        if algorithm == "gpa":
            config.setdefault("alpha", GPA_ALPHA)
            label += "-enh" if config.get("enhanced") else ""
        self.jobs.append({"instance": inst, "label": label,
                          "config": {"algorithm": algorithm, **config}})


def _random(b: _Inputs, n: int, m: int, budget: int):
    spec = instgen.GenSpec(family="random", n=n, m=m, budgets=budget,
                           overlap=2, seed=b.subseed())
    return instgen.gen_random(spec)


def _covers(b: _Inputs, n: int, universe: int, size: int) -> QualityFunction:
    return QualityFunction.coverage(
        [b.rng.choice(universe, size=size, replace=False).tolist() for _ in range(n)])


def _tight(q: int):
    inst, _, _ = instgen.gen_tight(instgen.GenSpec(family="tight", q=q, eps=TIGHT_EPS))
    return inst


def pairs_cached(b: _Inputs, p: dict) -> None:
    ids = [b.add(f"random{i}", _random(b, p["n"], 10, 9)) for i in range(p["randoms"])]
    ids.append(b.add("tight", _tight(p["q"]), tight_q=p["q"]))
    for i in ids:
        b.job(i, "gp")
        b.job(i, "gpa")
        b.job(i, "gpa", enhanced=True)
        b.job(i, "gelms")
        b.job(i, "rn", seed=b.subseed())


def quality_greedy(b: _Inputs, p: dict) -> None:
    ids = []
    for i in range(p["coverage"]):
        base = _random(b, p["n"], 10, 9)
        cov = dataclasses.replace(base, quality=_covers(b, p["n"], p["universe"], p["cover"]))
        ids.append(b.add(f"coverage{i}", cov))
        if i == 0:
            mod = dataclasses.replace(base, quality=QualityFunction.modular(b.rng.random(p["n"])))
            ids.append(b.add("modular0", mod))
    for i in ids:
        b.job(i, "gp")
        b.job(i, "gpa")
        b.job(i, "gpa", enhanced=True)
        b.job(i, "gelms")
        b.job(i, "mc")


def local_search(b: _Inputs, p: dict) -> None:
    for s in range(p["sets"]):
        base = _random(b, p["n"], 5, 5)
        variants = {
            "zero": base,
            "modular": dataclasses.replace(
                base, quality=QualityFunction.modular(b.rng.random(p["n"]))),
            "coverage": dataclasses.replace(
                base, quality=_covers(b, p["n"], p["universe"], p["cover"])),
        }
        for kind, inst in variants.items():
            i = b.add(f"{kind}{s}", inst)
            start_seed = b.subseed()
            for algorithm in ("lsi", "lsg"):
                b.job(i, algorithm, seed=start_seed, max_ls_iters=p["cap"])


def _jaccard_sets(b: _Inputs, n: int, vocab: int) -> list:
    # Zipf-like item popularity, so that some pairs share items.
    weights = 1.0 / (np.arange(vocab) + 20.0)
    weights /= weights.sum()
    sizes = b.rng.integers(10, 41, size=n)
    return [b.rng.choice(vocab, size=int(k), replace=False, p=weights).tolist()
            for k in sizes]


def build_and_io(b: _Inputs, p: dict) -> None:
    ids = [b.add("big", _random(b, p["n_big"], 10, 9))]
    base = _random(b, p["n_jac"], 10, 9)
    jac = dataclasses.replace(base, feature_kind="set", metric="jaccard",
                              features=_jaccard_sets(b, p["n_jac"], p["vocab"]))
    ids.append(b.add("jaccard", jac))
    ids.append(b.add("tight", _tight(p["q"]), tight_q=p["q"]))
    for i in ids:
        b.job(i, "gpa")
        b.job(i, "gelms")
        b.job(i, "mc")
        b.job(i, "rn", seed=b.subseed())


WORKLOADS = {
    "pairs-cached": pairs_cached,
    "quality-greedy": quality_greedy,
    "local-search": local_search,
    "build-and-io": build_and_io,
}


def generate(workload: str, seed: int, scale: str, workdir: str) -> dict:
    """Write the workload's instances under workdir and return its manifest."""
    b = _Inputs(workdir, seed, list(WORKLOADS).index(workload))
    WORKLOADS[workload](b, SCALES[scale][workload])
    return {"workload": workload, "seed": seed, "scale": scale,
            "why": WHY[workload], "instances": b.instances, "jobs": b.jobs}
