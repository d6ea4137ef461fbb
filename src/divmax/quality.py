"""Quality functions over element subsets.

Three kinds are supported: "zero" (identically zero), "modular" (additive
per-element weights) and "coverage" (size of the union of per-element cover
sets). All three are monotone and submodular, which the solvers rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import sparse

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
        self._inc = None

    def cover_incidence(self) -> sparse.csr_matrix:
        """incidence(covers), built on first use and shared by later callers."""
        if self._inc is None:
            self._inc = incidence(self.covers)
        return self._inc

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


def _ranges(lo: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated index ranges lo[i], ..., lo[i] + lens[i] - 1."""
    first = np.cumsum(lens) - lens  # output position of each range's start
    return np.arange(lens.sum()) + np.repeat(lo - first, lens)


def incidence(sets) -> sparse.csr_matrix:
    """Element-by-item 0/1 CSR matrix of item sets, items numbered by first use.

    Items may be any hashable values; a repeated item counts once.
    """
    index: dict = {}
    rows = [sorted({index.setdefault(item, len(index)) for item in s}) for s in sets]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([k for r in rows for k in r], dtype=int)
    return sparse.csr_matrix((np.ones(indices.size), indices, indptr),
                             shape=(len(rows), len(index)))


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

    Tracks the globally selected set and, for coverage, how many selected
    elements cover each item; a query counts a batch's items by that count.
    remove() exists for the round-up removal step and local search.
    """

    def __init__(self, q: QualityFunction, n: int):
        self.q = q
        self.n = n
        self.in_sel = np.zeros(n, dtype=bool)
        self._total = 0.0
        if q.kind == "coverage":
            self._inc = q.cover_incidence()
            self._count = np.zeros(self._inc.shape[1], dtype=int)

    def _items(self, v: int) -> np.ndarray:
        return self._inc.indices[self._inc.indptr[v]:self._inc.indptr[v + 1]]

    def _entries(self, ids: np.ndarray) -> tuple:
        """Batch position and item of every incidence entry of the elements ids."""
        ptr = self._inc.indptr
        lo = ptr[ids]
        lens = ptr[ids + 1] - lo
        return np.repeat(np.arange(ids.size), lens), self._inc.indices[_ranges(lo, lens)]

    def value(self) -> float:
        if self.q.kind == "coverage":
            return float(np.count_nonzero(self._count))
        return self._total

    def add(self, v: int) -> None:
        if self.in_sel[v]:
            return
        self.in_sel[v] = True
        if self.q.kind == "modular":
            self._total += float(self.q.weights[v])
        elif self.q.kind == "coverage":
            self._count[self._items(v)] += 1

    def remove(self, v: int) -> None:
        if not self.in_sel[v]:
            return
        self.in_sel[v] = False
        if self.q.kind == "modular":
            self._total -= float(self.q.weights[v])
        elif self.q.kind == "coverage":
            self._count[self._items(v)] -= 1

    def marginal(self, v: int) -> float:
        if self.in_sel[v] or self.q.kind == "zero":
            return 0.0
        if self.q.kind == "modular":
            return float(self.q.weights[v])
        return float(np.count_nonzero(self._count[self._items(v)] == 0))

    def marginal_vec(self, ids: np.ndarray) -> np.ndarray:
        """Vector of marginal gains for a batch of candidate elements."""
        if self.q.kind == "zero":
            return np.zeros(len(ids))
        if self.q.kind == "modular":
            return np.where(self.in_sel[ids], 0.0, self.q.weights[ids])
        # a selected element covers no uncovered item
        pos, items = self._entries(ids)
        return np.bincount(pos[self._count[items] == 0], minlength=ids.size).astype(float)

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
        # drop outs[a] for a moment: items left uncovered are lost, inns[i] gains those it covers
        pos, items = self._entries(inns)
        delta = np.empty((outs.size, inns.size))
        for a, out in enumerate(outs):
            mine = self._items(out)
            self._count[mine] -= 1
            delta[a] = (np.bincount(pos[self._count[items] == 0], minlength=inns.size)
                        - np.count_nonzero(self._count[mine] == 0))
            self._count[mine] += 1
        return delta

    def marginal_pair(self, u: int, vs: np.ndarray) -> np.ndarray:
        """Joint marginal gains of adding u together with each element of vs."""
        vs = np.asarray(vs, dtype=int)
        if np.any(vs == u):
            raise ValueError("marginal_pair needs two distinct elements")
        mu = self.marginal(u)
        if self.q.kind != "coverage":
            return mu + self.marginal_vec(vs)
        # an item of v is new when it is uncovered and u does not cover it
        pos, items = self._entries(vs)
        new = (self._count[items] == 0) & ~np.isin(items, self._items(u))
        return mu + np.bincount(pos[new], minlength=vs.size)

    def marginal_block(self, ids: np.ndarray) -> np.ndarray:
        """Joint marginal gains of every pair of ids: [a, b] = marginal_pair(ids[a], [ids[b]]).

        That is m_a + m_b minus the uncovered items both cover; the diagonal
        carries no meaning.
        """
        m = self.marginal_vec(ids)
        block = m[:, None] + m[None, :]
        if self.q.kind == "coverage":
            # take 1 from [a, b] for each uncovered item both ids[a] and ids[b]
            # cover: sorted by item, each entry pairs with every entry of its
            # item. Every value is an integer, so the order cannot matter
            pos, items = self._entries(ids)
            keep = self._count[items] == 0
            order = np.argsort(items[keep])
            pos, items = pos[keep][order], items[keep][order]
            lo = np.searchsorted(items, items)
            lens = np.searchsorted(items, items, side="right") - lo
            np.subtract.at(block, (np.repeat(pos, lens), pos[_ranges(lo, lens)]), 1.0)
        return block
