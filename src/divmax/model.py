"""Data model: instances, solutions, validation and feasibility checks.

An instance is a set of n elements (ids 0..n-1) with a metric over them, a
list of possibly overlapping clusters with per-cluster budgets, an optional
partition of the elements into exclusivity cells, a trade-off weight lambda
and a quality function. A solution assigns each cluster a subset of its
members; subsets must respect budgets, be pairwise disjoint and use at most
one element per partition cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import geometry
from .quality import QualityFunction, VALID_KINDS

TRIANGLE_SLACK = 1e-9


@dataclass
class Violation:
    """One validation or feasibility defect, with a location string."""

    kind: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.where}: {self.message}"


@dataclass
class Cluster:
    id: int
    members: tuple
    budget: int

    def __post_init__(self):
        self.members = tuple(sorted(set(int(v) for v in self.members)))


@dataclass
class Instance:
    """Immutable problem instance.

    Construct once, then treat as read-only; the distance oracle is cached on
    first use and shared by reference. Use dataclasses.replace to derive
    variants (it rebuilds the caches).
    """

    n: int
    feature_kind: str  # "vector" | "set"
    features: object  # (n, dim) float array, list of item sets, or None
    clusters: list
    metric: str
    distance_matrix: object = None
    partition: list | None = None
    lam: float = 1.0
    quality: QualityFunction = field(default_factory=QualityFunction.zero)

    def __post_init__(self):
        self._oracle = None
        self._cells = None
        self._members = None
        if self.feature_kind == "vector" and self.features is not None:
            self.features = np.asarray(self.features, dtype=float)
        elif self.feature_kind == "set" and self.features is not None:
            self.features = [frozenset(s) for s in self.features]

    @property
    def m(self) -> int:
        return len(self.clusters)

    def budgets(self) -> np.ndarray:
        return np.array([c.budget for c in self.clusters], dtype=int)

    def oracle(self) -> geometry.DistanceOracle:
        """Distance oracle for this instance, built eagerly on first call."""
        if self._oracle is None:
            self._oracle = geometry.DistanceOracle(
                self.metric, features=self.features, matrix=self.distance_matrix
            )
        return self._oracle

    def cell_of(self) -> np.ndarray:
        """Partition cell index per element; singleton cells when absent."""
        if self._cells is None:
            if self.partition is None:
                self._cells = np.arange(self.n)
            else:
                index = {}
                cells = np.empty(self.n, dtype=int)
                for v, raw in enumerate(self.partition):
                    cells[v] = index.setdefault(raw, len(index))
                self._cells = cells
        return self._cells

    def member_arrays(self) -> list:
        """Each cluster's members as a read-only int64 array, built on first
        call. The ids are range-checked here, once per instance: an id
        outside [0, n) raises IndexError naming it and its cluster, and
        solvers read distances over these arrays without checking them
        again."""
        if self._members is None:
            members = [np.asarray(c.members, dtype=np.int64) for c in self.clusters]
            for c, ids in zip(self.clusters, members):
                out = (ids < 0) | (ids >= self.n)
                if out.any():
                    raise IndexError(f"cluster {c.id}: element id {ids[out][0]} "
                                     f"out of range [0, {self.n})")
                ids.flags.writeable = False
            self._members = members
        return self._members


@dataclass
class Solution:
    """Per-cluster selections, stored as sorted tuples."""

    selected: tuple

    def __post_init__(self):
        self.selected = tuple(
            tuple(sorted(int(v) for v in S)) for S in self.selected
        )

    @staticmethod
    def from_sets(sets: Iterable[Iterable[int]]) -> "Solution":
        return Solution(selected=tuple(tuple(S) for S in sets))

    def as_sets(self) -> list:
        return [set(S) for S in self.selected]

    def union(self) -> list:
        out = sorted({v for S in self.selected for v in S})
        return out

    def fills(self) -> list:
        return [len(S) for S in self.selected]


def _selected_sets(partial, m: int) -> list:
    if isinstance(partial, Solution):
        sets = partial.as_sets()
    else:
        sets = [set(S) for S in partial]
    if len(sets) != m:
        raise ValueError(
            f"solution has {len(sets)} cluster selections, instance has {m}"
        )
    return sets


def _partial_sets(partial, instance: Instance) -> list:
    """_selected_sets of a partial solution, once its element ids are
    checked: an id outside [0, n) raises IndexError naming it and its
    selection."""
    sets = _selected_sets(partial, instance.m)
    for j, S in enumerate(sets):
        bad = [v for v in S if not 0 <= v < instance.n]
        if bad:
            raise IndexError(f"selected[{j}]: element id {min(bad)} "
                             f"out of range [0, {instance.n})")
    return sets


def _check_cluster(instance: Instance, cluster_id: int) -> None:
    if not 0 <= cluster_id < instance.m:
        raise IndexError(f"cluster id {cluster_id} out of range [0, {instance.m})")


def validate_instance(instance: Instance) -> list:
    """Structural and semantic validation.

    Returns a list of Violation records (empty means valid). Checks element
    counts, feature shapes, cluster membership ranges, budgets, partition
    length, metric and feature-kind compatibility, matrix symmetry and
    nonnegativity with a sampled triangle-inequality test, cosine norms,
    lambda and quality-function well-formedness, including the nonnegative
    modular weights that monotonicity needs.
    """
    out = []
    n = instance.n
    if not isinstance(n, (int, np.integer)) or n < 1:
        out.append(Violation("schema", "n", f"n must be a positive int, got {n!r}"))
        return out

    # features
    feats_ok = True
    if instance.metric in ("euclidean", "cosine"):
        X = instance.features
        if not isinstance(X, np.ndarray) or X.ndim != 2 or X.shape[0] != n:
            out.append(Violation(
                "schema", "features",
                f"{instance.metric} metric needs an (n, dim) vector array"))
            feats_ok = False
        elif not np.all(np.isfinite(X)):
            out.append(Violation("schema", "features", "non-finite feature values"))
            feats_ok = False
        elif instance.metric == "cosine":
            norms = np.linalg.norm(X, axis=1)
            bad = np.flatnonzero(np.abs(norms - 1.0) > geometry.COSINE_NORM_TOL)
            if bad.size:
                out.append(Violation(
                    "metric", f"features[{bad[0]}]",
                    f"cosine mode needs unit-norm vectors; norm is {norms[bad[0]]:.9g}"))
                feats_ok = False
    elif instance.metric == "jaccard":
        S = instance.features
        if not isinstance(S, list) or len(S) != n:
            out.append(Violation(
                "schema", "features", "jaccard metric needs a list of n item sets"))
            feats_ok = False
    elif instance.metric == "matrix":
        pass
    else:
        out.append(Violation("schema", "metric", f"unknown metric {instance.metric!r}"))
        return out

    # clusters
    if not instance.clusters:
        out.append(Violation("schema", "clusters", "at least one cluster is required"))
    for j, c in enumerate(instance.clusters):
        where = f"clusters[{j}]"
        if not c.members:
            out.append(Violation("schema", where, "cluster has no members"))
        elif c.members[0] < 0 or c.members[-1] >= n:
            bad = [v for v in c.members if v < 0 or v >= n]
            out.append(Violation(
                "schema", where, f"member id {bad[0]} outside [0, {n})"))
        if not isinstance(c.budget, (int, np.integer)) or c.budget < 0:
            out.append(Violation(
                "schema", f"{where}.budget",
                f"budget must be a nonnegative int, got {c.budget!r}"))

    # partition
    if instance.partition is not None and len(instance.partition) != n:
        out.append(Violation(
            "schema", "partition",
            f"partition has {len(instance.partition)} entries, expected {n}"))

    # lambda
    lam = instance.lam
    if not np.isfinite(lam) or lam < 0:
        out.append(Violation("schema", "lambda", f"lambda must be >= 0, got {lam!r}"))

    # quality
    q = instance.quality
    if q.kind not in VALID_KINDS:
        out.append(Violation("schema", "quality.kind", f"unknown kind {q.kind!r}"))
    elif q.kind == "modular":
        if q.weights is None or len(q.weights) != n:
            out.append(Violation("schema", "quality.weights", "needs n weights"))
        elif not np.all(np.isfinite(q.weights)):
            out.append(Violation("schema", "quality.weights", "non-finite weight"))
        elif np.any(q.weights < 0):
            bad = int(np.flatnonzero(q.weights < 0)[0])
            out.append(Violation(
                "quality", "quality.weights",
                f"monotone quality needs nonnegative weights; "
                f"weight {bad} is {q.weights[bad]:.9g}"))
    elif q.kind == "coverage":
        if q.covers is None or len(q.covers) != n:
            out.append(Violation("schema", "quality.covers", "needs n cover sets"))

    # distance matrix
    M = instance.distance_matrix
    if instance.metric == "matrix":
        if M is None:
            out.append(Violation(
                "schema", "distance_matrix",
                "metric 'matrix' needs a distance_matrix"))
        else:
            out.extend(_check_matrix(M, n))
    elif M is not None:
        out.append(Violation(
            "schema", "distance_matrix",
            f"distance_matrix given but metric is {instance.metric!r}"))

    # sampled triangle inequality on 10n triples, matrix mode only, once the
    # oracle builds: euclidean and jaccard are metrics by construction, cosine
    # is checked for normalization above and is exempt from the triangle test.
    if instance.metric == "matrix" and M is not None and not any(
            v.where.startswith("distance_matrix") for v in out) and feats_ok:
        try:
            instance.oracle()
        except (ValueError, IndexError) as exc:
            out.append(Violation("metric", "distance_matrix", str(exc)))
        else:
            rng = np.random.default_rng(0)
            us, vs, ws = rng.integers(0, n, size=(10 * n, 3)).T
            # paired gathers, zero where the two ids meet as the oracle reads d(v, v)
            duw, duv, dvw = (np.where(a == b, 0.0, np.asarray(M[a, b], dtype=float))
                             for a, b in ((us, ws), (us, vs), (vs, ws)))
            bad = np.flatnonzero(duw > duv + dvw + TRIANGLE_SLACK)
            if bad.size:
                i = bad[0]
                out.append(Violation(
                    "metric", "distance_matrix",
                    f"triangle inequality fails on ({us[i]}, {vs[i]}, {ws[i]}): "
                    f"{duw[i]:.9g} > {duv[i]:.9g} + {dvw[i]:.9g}"))
    return out


def _check_matrix(M, n: int) -> list:
    out = []
    shape = getattr(M, "shape", None)
    if shape != (n, n):
        out.append(Violation(
            "schema", "distance_matrix", f"shape {shape} != ({n}, {n})"))
        return out
    if isinstance(M, np.ndarray):
        if not np.all(np.isfinite(M)):
            out.append(Violation("schema", "distance_matrix", "non-finite entries"))
            return out
        if np.any(M < 0):
            i, j = np.argwhere(M < 0)[0]
            out.append(Violation(
                "metric", "distance_matrix", f"negative distance at ({i}, {j})"))
        if not np.array_equal(M, M.T):  # every entry is finite here
            diff = np.argwhere(M != M.T)
            i, j = diff[0]
            out.append(Violation(
                "metric", "distance_matrix",
                f"asymmetric at ({i}, {j}): {M[i, j]!r} != {M[j, i]!r}"))
        if np.any(np.diag(M) != 0):
            i = int(np.flatnonzero(np.diag(M))[0])
            out.append(Violation(
                "metric", "distance_matrix", f"nonzero diagonal at ({i}, {i})"))
    else:
        # structural matrix: sample the same properties
        rng = np.random.default_rng(0)
        for _ in range(min(10 * n, 5000)):
            i = int(rng.integers(n))
            j = int(rng.integers(n))
            dij = float(M[i, j])
            if dij < 0:
                out.append(Violation(
                    "metric", "distance_matrix", f"negative distance at ({i}, {j})"))
                break
            if dij != float(M[j, i]):
                out.append(Violation(
                    "metric", "distance_matrix", f"asymmetric at ({i}, {j})"))
                break
            if i == j and dij != 0:
                out.append(Violation(
                    "metric", "distance_matrix", f"nonzero diagonal at ({i}, {i})"))
                break
    return out


def is_feasible(instance: Instance, solution: Solution) -> list:
    """Feasibility of a solution against an instance.

    Returns a list of Violation records; empty means feasible. A solution
    whose number of cluster selections differs from the instance's cluster
    count is a shape mismatch and raises ValueError instead.
    """
    sets = _selected_sets(solution, instance.m)
    out = []
    n = instance.n
    cells = instance.cell_of()
    seen = {}
    cell_seen = {}
    for j, (S, c) in enumerate(zip(sets, instance.clusters)):
        where = f"selected[{j}]"
        members = set(c.members)
        for v in sorted(S):
            if not 0 <= v < n:
                out.append(Violation("schema", where, f"element id {v} outside [0, {n})"))
                continue
            if v not in members:
                out.append(Violation(
                    "membership", where, f"element {v} is not a member of cluster {j}"))
            if v in seen:
                out.append(Violation(
                    "overlap", where,
                    f"element {v} already selected in cluster {seen[v]}"))
            else:
                seen[v] = j
                cell = int(cells[v])
                if cell in cell_seen:
                    u, jj = cell_seen[cell]
                    out.append(Violation(
                        "cell", where,
                        f"element {v} shares partition cell with {u} "
                        f"(cluster {jj})"))
                else:
                    cell_seen[cell] = (v, j)
        if len(S) > c.budget:
            out.append(Violation(
                "budget", where, f"{len(S)} selected, budget is {c.budget}"))
    return out


def available_elements(instance: Instance, partial, cluster_id: int) -> list:
    """Members of the cluster that can still be added to it.

    An element is available when no selected element occupies its partition
    cell. A selected element occupies its own cell, so it is never
    available. Returned sorted ascending. An element id of partial outside
    [0, n) raises IndexError.
    """
    _check_cluster(instance, cluster_id)
    sets = _partial_sets(partial, instance)
    cells = instance.cell_of()
    load = np.bincount(cells[[v for S in sets for v in S]], minlength=instance.n)
    ids = instance.member_arrays()[cluster_id]
    return ids[load[cells[ids]] == 0].tolist()


def even_budget(budget, up: bool = True):
    """The budget rounded to an even number, up (b') or down: the one
    even-budget rule of the pair solvers. Works elementwise on int arrays."""
    return budget + budget % 2 if up else budget - budget % 2


def is_saturated(instance: Instance, partial, cluster_id: int,
                 pair_mode: bool = False) -> bool:
    """Whether a cluster can take no further addition.

    Element mode: saturated when the budget is reached or no member is
    available. Pair mode: saturated when fewer than two slots remain against
    the budget rounded down to even, or the available members span fewer
    than two partition cells.
    """
    avail = available_elements(instance, partial, cluster_id)  # checks cluster_id
    c = instance.clusters[cluster_id]
    size = len(_selected_sets(partial, instance.m)[cluster_id])
    if not pair_mode:
        return size >= c.budget or not avail
    cells = instance.cell_of()
    return even_budget(c.budget, up=False) - size < 2 or len({int(cells[v]) for v in avail}) < 2


def min_coverage_filter(instance: Instance, t: int | None) -> Instance:
    """Drop weakly covering elements from clusters.

    For coverage quality, removes an element from every cluster when its
    cover set has fewer than t items. t of None or 0 returns the instance
    unchanged. Elements stay in the ground set; only cluster membership
    shrinks, so ids and the metric are untouched.
    """
    import dataclasses

    if not t or instance.quality.kind != "coverage":
        return instance
    covers = instance.quality.covers
    clusters = [
        Cluster(c.id, tuple(v for v in c.members if len(covers[v]) >= t), c.budget)
        for c in instance.clusters
    ]
    return dataclasses.replace(instance, clusters=clusters)
