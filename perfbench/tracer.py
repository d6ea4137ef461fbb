"""In-memory span recorder that wraps divmax's public entry points.

A span is (name, start, end, parent, job, elems). `elems` is the amount of
work the call was handed (ids in a row lookup, entries of a pairwise block,
bytes of a file, bytes of a dense distance cache), or 0 where that has no
meaning. Spans are stored column-wise in `array` buffers so that a traced
pass with millions of calls stays small.

Each wrapper is installed where the caller looks the name up: class
attributes for methods, module attributes for functions, and a second copy
in `divmax.solvers`, which imports `is_feasible` by name. `uninstall`
restores every original, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from array import array

import numpy as np

from divmax import geometry, harness, model, objective, quality, solvers

ROOT_JOB = "bench.job"
ROOT_SETUP = "bench.setup"
ROOT_CHECK = "bench.check"

# Objective functions whose outermost span counts as one evaluation.
EVAL_NAMES = (
    "objective.combined_objective",
    "objective.intra_dispersion",
    "objective.cluster_dispersion",
    "objective.global_dispersion",
)
ORACLE_NAMES = ("geometry.row", "geometry.pairwise", "geometry.distance")


def _ids_len(args, kwargs, pos, key):
    ids = args[pos] if len(args) > pos else kwargs[key]
    return int(np.size(ids))


def _row_elems(args, kwargs):
    return _ids_len(args, kwargs, 2, "ids")


def _pairwise_elems(args, kwargs):
    return _ids_len(args, kwargs, 1, "ids") ** 2


def _vec_elems(args, kwargs):
    return _ids_len(args, kwargs, 1, "ids")


def _file_size(args, kwargs):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _cache_bytes(args, kwargs):
    """Dense cache size computed from its shape (n x n float64), else 0."""
    oracle = args[0]
    return oracle.n * oracle.n * 8 if getattr(oracle, "_cache", None) is not None else 0


# (owner, attribute, span name, elems before the call, elems after the call)
TARGETS = [
    (geometry.DistanceOracle, "__init__", "geometry.build", None, _cache_bytes),
    (geometry.DistanceOracle, "row", "geometry.row", _row_elems, None),
    (geometry.DistanceOracle, "pairwise", "geometry.pairwise", _pairwise_elems, None),
    (geometry.DistanceOracle, "distance", "geometry.distance", None, None),
    (geometry, "set_distance_sum", "geometry.set_distance_sum", None, None),
    (quality.QualityState, "value", "quality.state_value", None, None),
    (quality.QualityState, "add", "quality.state_add", None, None),
    (quality.QualityState, "remove", "quality.state_remove", None, None),
    (quality.QualityState, "marginal", "quality.state_marginal", None, None),
    (quality.QualityState, "marginal_vec", "quality.state_marginal_vec", _vec_elems, None),
    (quality.QualityState, "marginal_pair", "quality.state_marginal_pair", None, None),
    (quality, "value", "quality.value", None, None),
    (quality, "marginal", "quality.marginal", None, None),
    (quality, "marginal_pair", "quality.marginal_pair", None, None),
    (objective, "combined_objective", "objective.combined_objective", None, None),
    (objective, "intra_dispersion", "objective.intra_dispersion", None, None),
    (objective, "cluster_dispersion", "objective.cluster_dispersion", None, None),
    (objective, "global_dispersion", "objective.global_dispersion", None, None),
    (objective, "removal_measure", "objective.removal_measure", None, None),
    (objective, "pair_gain_dispersion", "objective.pair_gain_dispersion", None, None),
    (objective, "pair_gain_combined", "objective.pair_gain_combined", None, None),
    (model, "validate_instance", "model.validate_instance", None, None),
    (model, "is_feasible", "model.is_feasible", None, None),
    (solvers, "is_feasible", "model.is_feasible", None, None),
    (harness, "load_instance", "harness.load_instance", _file_size, None),
    (harness, "save_instance", "harness.save_instance", None, _file_size),
    (harness, "load_solution", "harness.load_solution", _file_size, None),
    (harness, "save_solution", "harness.save_solution", None, _file_size),
    (solvers, "solve", "solvers.solve", None, None),
]


class Tracer:
    """Span buffers plus the patch set; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.elems = array("q")
        self._stack = [-1]
        self._job = -1
        self._originals = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def open(self, nid: int, elems: int = 0) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self._job)
        self.elems.append(elems)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, elems: int | None = None) -> None:
        self.end[idx] = time.perf_counter()
        if elems is not None:
            self.elems[idx] = elems
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str, job: int):
        """A root span (one job, set-up or check); nested spans carry its job id."""
        self._job = job
        idx = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(idx)
            self._job = -1

    def _wrap(self, fn, name, pre, post):
        nid = self.intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid, pre(args, kwargs) if pre else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx, post(args, kwargs) if post else None)

        return traced

    def install(self) -> None:
        if self._originals:
            return
        for owner, attr, name, pre, post in TARGETS:
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, pre, post))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals = []

    def columns(self, lo: int = 0, hi: int | None = None) -> dict:
        """Spans [lo, hi) as numpy columns, parents re-based to lo."""
        hi = len(self) if hi is None else hi
        cols = {key: np.frombuffer(getattr(self, key), dtype=dtype)[lo:hi].copy()
                for key, dtype in (("name", np.int16), ("start", np.float64),
                                   ("end", np.float64), ("parent", np.int32),
                                   ("job", np.int32), ("elems", np.int64))}
        cols["parent"][cols["parent"] >= 0] -= lo
        return cols

    def truncate(self, n: int) -> None:
        """Drop every span recorded after the first n."""
        for buf in (self.name, self.start, self.end, self.parent, self.job, self.elems):
            del buf[n:]


class SpanTable:
    """Derived quantities over one set of spans: self time, roots, lookups."""

    def __init__(self, cols: dict, names: list[str]):
        self.cols = cols
        self.names = names
        self.dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        n = parent.size
        idx = np.arange(n)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        root = np.where(has_parent, parent, idx)
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        self.root = root
        self.layer_of = np.array([nm.split(".")[0] for nm in names])

    def nid(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.nid(nm) for nm in names]
        return np.isin(self.cols["name"], [i for i in ids if i >= 0])

    def under_root(self, root_name: str) -> np.ndarray:
        return self.mask(root_name)[self.root]

    def under(self, name: str) -> np.ndarray:
        """Spans with an ancestor (or self) named `name`."""
        flag = self.mask(name)
        parent = self.cols["parent"]
        has_parent = parent >= 0
        while True:
            nxt = flag.copy()
            nxt[has_parent] |= flag[parent[has_parent]]
            if np.array_equal(nxt, flag):
                return flag
            flag = nxt

    def outermost(self, names) -> np.ndarray:
        m = self.mask(*names)
        parent = self.cols["parent"]
        parent_in = np.zeros_like(m)
        has_parent = parent >= 0
        parent_in[has_parent] = m[parent[has_parent]]
        return m & ~parent_in

    def root_self_residual(self, root_name: str) -> float:
        """Largest |sum of self times in a root's tree - root duration|."""
        roots = np.flatnonzero(self.mask(root_name) & (self.cols["parent"] < 0))
        if roots.size == 0:
            return 0.0
        sums = np.bincount(self.root, weights=self.self_time, minlength=self.root.size)
        return float(np.max(np.abs(sums[roots] - self.dur[roots])))

    def layer_self(self, where: np.ndarray) -> dict:
        out = {}
        layers = self.layer_of[self.cols["name"][where]]
        for layer in sorted(set(layers.tolist())):
            out[layer] = float(self.self_time[where][layers == layer].sum())
        return out
