"""Quality functions over element subsets.

Three kinds are supported: "zero" (identically zero), "modular" (additive
per-element weights) and "coverage" (size of the union of per-element cover
sets). All three are monotone and submodular, which the solvers rely on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

VALID_KINDS = ("zero", "modular", "coverage")


@dataclass
class QualityFunction:
    """Declarative description of a quality function.

    Attributes
    ----------
    kind : str
        One of "zero", "modular", "coverage".
    weights : np.ndarray or None
        Per-element weights, required when kind == "modular".
    covers : list[frozenset] or None
        Per-element cover sets, required when kind == "coverage".
    """

    kind: str = "zero"
    weights: np.ndarray | None = None
    covers: list | None = None

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown quality kind: {self.kind!r}")

    @staticmethod
    def zero() -> "QualityFunction":
        return QualityFunction(kind="zero")

    @staticmethod
    def modular(weights) -> "QualityFunction":
        return QualityFunction(kind="modular", weights=np.asarray(weights, dtype=float))

    @staticmethod
    def coverage(covers) -> "QualityFunction":
        return QualityFunction(kind="coverage", covers=[frozenset(c) for c in covers])

    def to_dict(self) -> dict:
        if self.kind == "zero":
            return {"kind": "zero"}
        if self.kind == "modular":
            return {"kind": "modular", "weights": [float(w) for w in self.weights]}
        return {"kind": "coverage", "covers": [sorted(c, key=repr) for c in self.covers]}

    @staticmethod
    def from_dict(d: dict) -> "QualityFunction":
        kind = d.get("kind")
        if kind == "zero":
            return QualityFunction.zero()
        if kind == "modular":
            return QualityFunction.modular(d["weights"])
        if kind == "coverage":
            return QualityFunction.coverage(d["covers"])
        raise ValueError(f"unknown quality kind: {kind!r}")


def value(q: QualityFunction, selected: Iterable[int]) -> float:
    """Quality of a set of elements.

    Parameters
    ----------
    q : QualityFunction
    selected : iterable of element ids (duplicates are ignored)

    Returns
    -------
    float
    """
    ids = set(int(v) for v in selected)
    if q.kind == "zero" or not ids:
        return 0.0
    if q.kind == "modular":
        return float(sum(q.weights[v] for v in ids))
    covered = set()
    for v in ids:
        covered |= q.covers[v]
    return float(len(covered))


def marginal(q: QualityFunction, selected: Iterable[int], v: int) -> float:
    """Marginal gain of adding v to the selected set; 0 if v is already in it."""
    ids = set(int(u) for u in selected)
    if v in ids or q.kind == "zero":
        return 0.0
    if q.kind == "modular":
        return float(q.weights[v])
    covered = set()
    for u in ids:
        covered |= q.covers[u]
    return float(len(q.covers[v] - covered))


def marginal_pair(q: QualityFunction, selected: Iterable[int], u: int, v: int) -> float:
    """Joint marginal gain of adding the pair {u, v} to the selected set.

    Equals value(selected | {u, v}) - value(selected). Raises ValueError when
    u == v because a pair must consist of two distinct elements.
    """
    if u == v:
        raise ValueError("marginal_pair needs two distinct elements")
    ids = set(int(w) for w in selected)
    return value(q, ids | {u, v}) - value(q, ids)


class QualityState:
    """Incremental quality evaluation for one solver run.

    Tracks the globally selected set and answers value / marginal queries in
    time proportional to the touched cover sets instead of the whole
    selection. remove() exists for the round-up removal step and local search.
    """

    def __init__(self, q: QualityFunction, n: int):
        self.q = q
        self.n = n
        self.in_sel = np.zeros(n, dtype=bool)
        self._total = 0.0
        self._counts: Counter = Counter()

    def value(self) -> float:
        if self.q.kind == "coverage":
            return float(len(self._counts))
        return self._total

    def add(self, v: int) -> None:
        if self.in_sel[v]:
            return
        self.in_sel[v] = True
        if self.q.kind == "modular":
            self._total += float(self.q.weights[v])
        elif self.q.kind == "coverage":
            self._counts.update(self.q.covers[v])

    def remove(self, v: int) -> None:
        if not self.in_sel[v]:
            return
        self.in_sel[v] = False
        if self.q.kind == "modular":
            self._total -= float(self.q.weights[v])
        elif self.q.kind == "coverage":
            self._counts.subtract(self.q.covers[v])
            self._counts += Counter()  # drop zero entries

    def marginal(self, v: int) -> float:
        if self.in_sel[v] or self.q.kind == "zero":
            return 0.0
        if self.q.kind == "modular":
            return float(self.q.weights[v])
        return float(sum(1 for item in self.q.covers[v] if self._counts[item] == 0))

    def marginal_vec(self, ids: np.ndarray) -> np.ndarray:
        """Vector of marginal gains for a batch of candidate elements."""
        if self.q.kind == "zero":
            return np.zeros(len(ids))
        if self.q.kind == "modular":
            return np.where(self.in_sel[ids], 0.0, self.q.weights[ids])
        return np.array([self.marginal(int(v)) for v in ids])

    def swap_delta(self, outs: np.ndarray, inns: np.ndarray) -> np.ndarray:
        """Matrix of value changes for swapping a selected out for an unselected inn.

        Entry [a, i] equals value(sel - {outs[a]} + {inns[i]}) - value(sel).
        Entries whose inns[i] is already selected carry no meaning; callers
        mask them out.
        """
        outs = np.asarray(outs, dtype=int)
        inns = np.asarray(inns, dtype=int)
        if self.q.kind == "zero":
            return np.zeros((outs.size, inns.size))
        if self.q.kind == "modular":
            w = self.q.weights
            return w[inns][None, :] - w[outs][:, None]
        # An item that only outs[a] covers is lost, unless inns[i] covers it too.
        counts = self._counts
        owner = {}
        lost = np.zeros(outs.size)
        for a, v in enumerate(outs):
            for item in self.q.covers[v]:
                if counts.get(item) == 1:
                    owner[item] = a
                    lost[a] += 1
        kept = np.zeros((outs.size, inns.size))
        gained = np.zeros(inns.size)
        for i, v in enumerate(inns):
            g = 0
            for item in self.q.covers[v]:
                c = counts.get(item, 0)
                if c == 0:
                    g += 1
                elif c == 1 and item in owner:
                    kept[owner[item], i] += 1
            gained[i] = g
        return gained[None, :] - (lost[:, None] - kept)

    def marginal_pair(self, u: int, vs: np.ndarray) -> np.ndarray:
        """Joint marginal gains of adding u together with each element of vs."""
        vs = np.asarray(vs, dtype=int)
        if np.any(vs == u):
            raise ValueError("marginal_pair needs two distinct elements")
        if self.q.kind == "zero":
            return np.zeros(vs.size)
        mu = self.marginal(u)
        if self.q.kind == "modular":
            return mu + self.marginal_vec(vs)
        cov_u = self.q.covers[u] if not self.in_sel[u] else frozenset()
        counts = self._counts
        extra = [
            0 if self.in_sel[v] else sum(
                1 for item in self.q.covers[v] if counts[item] == 0 and item not in cov_u)
            for v in vs
        ]
        return mu + np.asarray(extra, dtype=float)
