"""Experiment harness: instance and solution I/O, runs, scaling benchmarks.

JSON files use a canonical form (sorted keys, two-space indent, trailing
newline) so that save(load(path)) reproduces the bytes exactly. CSV reports
keep floats at 17 significant digits so they round-trip.

Files are read with orjson, which parses the long float lists of vector
features and distance matrices to the same floats as the stdlib json, in
about 0.6 of its time (0.22 against 0.38 s for a 1640^2 matrix, 29 MB).
They are written with the stdlib json, because the canonical bytes hold its
float spelling (1e-06 where orjson writes 1e-6). Writing refuses NaN and
Infinity: they are not JSON, orjson does not read them, and every file
written here must read back.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import statistics
import time
import typing
from dataclasses import dataclass, field

import numpy as np
import orjson

from . import instgen, objective, solvers
from .model import Cluster, Instance, Solution
from .quality import QualityFunction


class SchemaError(ValueError):
    """Malformed instance or solution payload; the message names the field."""


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise SchemaError(f"missing field {where}{key}")
    return d[key]


def _ints(values, where: str) -> list:
    """values, if it is a list of JSON ints (bools excluded); else SchemaError."""
    if not isinstance(values, list):
        raise SchemaError(f"{where} must be a list of ints, got {values!r}")
    if not set(map(type, values)) <= {int}:  # one pass in C; the loop below names the culprit
        k, v = next((k, v) for k, v in enumerate(values) if type(v) is not int)
        raise SchemaError(f"{where}[{k}] must be an int, got {v!r}")
    return values


def _float_array(values, where: str) -> np.ndarray:
    """values as a float array, or SchemaError if ragged or not all numbers.

    Strings, nulls and all-bool arrays are rejected by the dtype numpy
    infers; a bool among numbers still converts to 0.0 or 1.0.
    """
    try:
        array = np.array(values)
    except (TypeError, ValueError):
        array = None
    if array is None or array.dtype.kind not in "iuf":
        raise SchemaError(f"{where} must be a rectangular array of numbers")
    return array.astype(float, copy=False)


def _item_sets(values) -> list:
    """values, if it is a list of lists of JSON scalars; else SchemaError."""
    if not isinstance(values, list):
        raise SchemaError(f"features must be a list of item lists, got {values!r}")
    for i, items in enumerate(values):
        if not isinstance(items, list) or {list, dict} & set(map(type, items)):
            raise SchemaError(f"features[{i}] must be a list of strings or numbers, got {items!r}")
    return values


def instance_to_dict(instance: Instance) -> dict:
    if instance.features is None:
        features = None
    elif instance.feature_kind == "vector":
        features = [[float(x) for x in row] for row in instance.features]
    else:
        features = [sorted(s, key=repr) for s in instance.features]
    M = instance.distance_matrix
    if M is None:
        matrix = None
    elif isinstance(M, np.ndarray):
        matrix = [[float(x) for x in row] for row in M]
    else:
        raise SchemaError(
            "structural distance matrices cannot be serialized; "
            "regenerate the instance instead")
    return {
        "n": int(instance.n),
        "feature_kind": instance.feature_kind,
        "features": features,
        "clusters": [
            {"members": [int(v) for v in c.members], "budget": int(c.budget)}
            for c in instance.clusters
        ],
        "partition": (None if instance.partition is None
                      else [int(c) for c in instance.partition]),
        "metric": instance.metric,
        "distance_matrix": matrix,
        "lambda": float(instance.lam),
        "quality": instance.quality.to_dict(),
    }


def instance_from_dict(d: dict) -> Instance:
    """The instance a JSON payload describes.

    Raises SchemaError, naming the field, where a value has the wrong JSON
    type: n, member ids, budgets and partition labels must be ints (not
    bools), lambda a number, vector features and distance_matrix
    rectangular arrays of numbers, and set features lists of strings or
    numbers. validate_instance checks the rest.
    """
    n = _require(d, "n", "")
    if type(n) is not int:
        raise SchemaError(f"n must be an int, got {n!r}")
    metric = _require(d, "metric", "")
    feature_kind = _require(d, "feature_kind", "")
    features = d.get("features")
    if features is not None and feature_kind == "vector":
        features = _float_array(features, "features")
    elif features is not None and feature_kind == "set":
        features = _item_sets(features)
    clusters_raw = _require(d, "clusters", "")
    if not isinstance(clusters_raw, list):
        raise SchemaError(f"clusters must be a list, got {clusters_raw!r}")
    clusters = []
    for j, c in enumerate(clusters_raw):
        if not isinstance(c, dict):
            raise SchemaError(f"clusters[{j}] must be an object, got {c!r}")
        members = _ints(_require(c, "members", f"clusters[{j}]."), f"clusters[{j}].members")
        budget = _require(c, "budget", f"clusters[{j}].")
        if type(budget) is not int:
            raise SchemaError(f"clusters[{j}].budget must be an int, got {budget!r}")
        clusters.append(Cluster(j, tuple(members), budget))
    partition = d.get("partition")
    if partition is not None:
        _ints(partition, "partition")
    lam = d.get("lambda", 1.0)
    if type(lam) not in (int, float):
        raise SchemaError(f"lambda must be a number, got {lam!r}")
    matrix = d.get("distance_matrix")
    if matrix is not None:
        matrix = _float_array(matrix, "distance_matrix")
    try:
        quality = QualityFunction.from_dict(d.get("quality", {"kind": "zero"}))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"quality must be a zero, modular or coverage object: {exc!r}") from None
    return Instance(
        n=n, feature_kind=feature_kind, features=features,
        clusters=clusters, metric=metric, distance_matrix=matrix,
        partition=partition, lam=float(lam), quality=quality,
    )


def _canonical_dump(payload: dict, path: str) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def save_instance(path: str, instance: Instance) -> None:
    """Write an instance as canonical JSON."""
    _canonical_dump(instance_to_dict(instance), path)


def _read_json(path: str) -> dict:
    """The top-level object of a JSON file; SchemaError if it is not one."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        d = orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(d, dict):
        raise SchemaError("top-level payload must be an object")
    return d


def load_instance(path: str) -> Instance:
    """Read an instance, raising SchemaError on malformed payloads."""
    return instance_from_dict(_read_json(path))


def save_solution(path: str, solution: Solution,
                  objective_value: objective.ObjectiveValue | None = None,
                  trace_file: str | None = None) -> None:
    payload = {"selected": [list(S) for S in solution.selected]}
    if objective_value is not None:
        payload["objective"] = {
            "quality": objective_value.quality,
            "dispersion": objective_value.dispersion,
            "combined": objective_value.combined,
        }
    if trace_file is not None:
        payload["trace_file"] = trace_file
    _canonical_dump(payload, path)


def load_solution(path: str) -> Solution:
    """Read a solution, raising SchemaError unless selected is a list of
    lists of int ids (bools excluded)."""
    selected = _require(_read_json(path), "selected", "")
    if not isinstance(selected, list):
        raise SchemaError(f"selected must be a list of id lists, got {selected!r}")
    return Solution.from_sets([_ints(S, f"selected[{j}]") for j, S in enumerate(selected)])


@dataclass
class ExperimentSpec:
    """One instance, several solver configs, several runs per config.

    vary controls what changes between runs: "seed" offsets the seed by the
    run index, "cluster_order" hands each run a fresh random permutation
    (affecting order-sensitive solvers), "alpha" cycles the alphas list.
    """

    instance: Instance
    algorithms: list
    runs: int = 10
    vary: str = "seed"  # "seed" | "cluster_order" | "alpha"
    alphas: list = field(default_factory=lambda: [0.5, 0.75, 0.9, 0.95, 1.0])


@dataclass
class ExperimentRow:
    label: str
    algorithm: str
    run: int
    alpha: float
    seed: int
    quality: float
    dispersion: float
    combined: float
    normalized: float
    wall_time_s: float
    fills: list  # one fill_<j> column per cluster

    @classmethod
    def columns(cls) -> dict:
        """The CSV columns before the fills: every other field's name and
        type, in field order. A float is written with 17 significant digits,
        and each type parses its column back."""
        hints = typing.get_type_hints(cls)
        return {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.name != "fills"}


@dataclass
class ExperimentReport:
    rows: list

    def labels(self) -> list:
        seen = []
        for r in self.rows:
            if r.label not in seen:
                seen.append(r.label)
        return seen

    def mean_normalized(self, label: str) -> float:
        vals = [r.normalized for r in self.rows if r.label == label]
        return statistics.fmean(vals)

    def to_csv(self, path: str) -> None:
        if not self.rows:
            raise ValueError("empty report")
        cols = ExperimentRow.columns()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([*cols, *(f"fill_{j}" for j in range(len(self.rows[0].fills)))])
            for r in self.rows:
                w.writerow([f"{getattr(r, c):.17g}" if t is float else getattr(r, c)
                            for c, t in cols.items()] + list(r.fills))

    @staticmethod
    def from_csv(path: str) -> "ExperimentReport":
        cols = ExperimentRow.columns()
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            fill_cols = sorted((c for c in reader.fieldnames if c.startswith("fill_")),
                               key=lambda c: int(c.split("_")[1]))
            return ExperimentReport([
                ExperimentRow(**{c: t(rec[c]) for c, t in cols.items()},
                              fills=[int(rec[c]) for c in fill_cols])
                for rec in reader])


def _config_label(cfg: solvers.SolverConfig) -> str:
    label = solvers.Algorithm(cfg.algorithm).value
    if solvers.Algorithm(cfg.algorithm) == solvers.Algorithm.GPA:
        label += f"[a={cfg.alpha:g}]"
        if cfg.enhanced:
            label += "[enh]"
    return label


def _derive_config(base: solvers.SolverConfig, spec: ExperimentSpec,
                   run: int) -> solvers.SolverConfig:
    if spec.vary == "seed":
        return dataclasses.replace(base, seed=base.seed + run)
    if spec.vary == "cluster_order":
        rng = np.random.default_rng(base.seed + run)
        order = rng.permutation(spec.instance.m).tolist()
        return dataclasses.replace(base, cluster_order=order)
    if spec.vary == "alpha":
        return dataclasses.replace(base, alpha=spec.alphas[run % len(spec.alphas)])
    raise ValueError(f"unknown vary mode {spec.vary!r}")


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run every configured solver `runs` times and normalize scores.

    The instance's distance cache is built once up front and shared; each
    row records objective parts, per-cluster fill counts and wall time.
    normalized = combined / best combined over all rows, so the best row is
    exactly 1.0 (all rows score 1.0 when everything is zero).
    """
    instance = spec.instance
    instance.oracle()
    rows = []
    for base in spec.algorithms:
        for run in range(spec.runs):
            cfg = _derive_config(base, spec, run)
            t0 = time.perf_counter()
            solution, _ = solvers.solve(instance, cfg)
            dt = time.perf_counter() - t0
            val = objective.combined_objective(instance, solution)
            rows.append(ExperimentRow(
                label=_config_label(base),
                algorithm=solvers.Algorithm(cfg.algorithm).value,
                run=run, alpha=cfg.alpha, seed=cfg.seed,
                quality=val.quality, dispersion=val.dispersion,
                combined=val.combined, normalized=0.0, wall_time_s=dt,
                fills=solution.fills(),
            ))
    best = max((r.combined for r in rows), default=0.0)
    for r in rows:
        r.normalized = r.combined / best if best > 0 else 1.0
    return ExperimentReport(rows)


@dataclass
class BenchPoint:
    n: int
    seconds: float
    ratio: float | None  # seconds / previous seconds


def bench_scaling(spec: instgen.GenSpec, sizes: list,
                  config: solvers.SolverConfig,
                  repeats: int = 1) -> list:
    """Time one solver across instance sizes.

    Generates spec with each n in sizes, times the solve `repeats` times and
    keeps the median, and reports successive time ratios.
    """
    points = []
    prev = None
    for n in sizes:
        inst = instgen.generate(dataclasses.replace(spec, n=int(n)))
        if isinstance(inst, tuple):
            inst = inst[0]
        inst.oracle()
        times = []
        for _ in range(max(repeats, 1)):
            t0 = time.perf_counter()
            solvers.solve(inst, config)
            times.append(time.perf_counter() - t0)
        sec = statistics.median(times)
        points.append(BenchPoint(int(n), sec, None if prev is None else sec / prev))
        prev = sec
    return points
