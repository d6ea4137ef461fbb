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
        self._hold = None

    def cover_incidence(self) -> sparse.csr_matrix:
        """incidence(covers), built on first use and shared by later callers."""
        if self._inc is None:
            self._inc = incidence(self.covers)
        return self._inc

    def cover_holders(self) -> sparse.csr_matrix:
        """Item-by-element transpose of cover_incidence(), built and shared likewise."""
        if self._hold is None:
            self._hold = self.cover_incidence().T.tocsr()
        return self._hold

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


def _entries(mat: sparse.csr_matrix, rows: np.ndarray) -> tuple:
    """Batch position and column of every stored entry of the given CSR rows.

    The columns may be a view of mat.indices; callers only read them.
    """
    if rows.size == 1:
        # one row is a slice; the batch gather below costs a dozen numpy calls
        r = int(rows[0])
        cols = mat.indices[mat.indptr[r]:mat.indptr[r + 1]]
        return np.zeros(cols.size, dtype=np.intp), cols
    lo = mat.indptr[rows]
    lens = mat.indptr[rows + 1] - lo
    pos = np.arange(rows.size).repeat(lens)
    # output j of row r reads indices[lo[r] + j - first[r]], first = cumsum(lens) - lens
    return pos, mat.indices[np.arange(pos.size) + (lo - lens.cumsum() + lens)[pos]]


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

    Zero quality returns 0.0 before selected is read, so it builds no id
    set. Modular quality sums the weights in the id set's iteration order;
    coverage counts the union of the cover sets.

    Parameters
    ----------
    q : QualityFunction
    selected : iterable of element ids (duplicates are ignored)

    Returns
    -------
    float
    """
    if q.kind == "zero":
        return 0.0
    ids = set(int(v) for v in selected)
    if not ids:
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

    Equals value(selected | {u, v}) - value(selected), computed directly:
    for modular quality the weights of {u, v} minus the selected set, summed
    from 0, which gives the solvers' w_u + w_v bit for bit. Raises
    ValueError when u == v because a pair must consist of two distinct
    elements.
    """
    if u == v:
        raise ValueError("marginal_pair needs two distinct elements")
    ids = set(int(w) for w in selected)
    if q.kind == "modular":
        return float(sum(q.weights[w] for w in {u, v} - ids))
    return value(q, ids | {u, v}) - value(q, ids)


class QualityState:
    """Incremental quality evaluation for one solver run.

    Tracks the globally selected set and one gain per element for every
    kind: _gain[v] is v's marginal and 0 while v is selected, so every
    marginal is a gather. Out of the selection it is v's weight (modular),
    0 (zero) or how many of v's items no selected element covers
    (coverage); coverage's small integer counts are exact in float64.
    added[v] is _gain[v] just before v's last add, which the round-up
    removal reads as v's marginal over the elements added before it.

    Zero and modular quality are additive: add zeroes v's entry and remove
    puts back its weight, added[v]. Only coverage keeps more: _count[i] is
    how many selected elements cover item i, and add and remove update
    _gain through the item -> holders index (cover_holders()), at a cost in
    the holders of the items they cover or uncover, not in n; pair queries
    count overlaps through it (_shared). remove() exists for the round-up
    removal step and local search.

    Joint pair marginals have one kernel, marginal_pairs(us, vs): one
    _shared call for any number of us against any number of vs.
    marginal_pair is its one-row form. gp's square blocks come from
    kept_pairs(key, ids), which under coverage keeps each key's block of
    shared uncovered items across calls instead of calling _shared.
    """

    def __init__(self, q: QualityFunction, n: int):
        self.q = q
        self.in_sel = np.zeros(n, dtype=bool)
        self.added = np.zeros(n)
        if q.kind == "coverage":
            self._inc = q.cover_incidence()
            self._hold = q.cover_holders()
            self._count = np.zeros(self._inc.shape[1], dtype=int)
            # add and remove step it by a float 1.0: an int step slows ufunc.at 4x
            self._gain = np.diff(self._inc.indptr).astype(float)
            self._pos = np.full(n, -1)  # reused buffer: batch position of each id, -1 elsewhere
            self._kept = {}  # key -> [its, H, unc, S], see kept_pairs
        else:
            self._gain = np.zeros(n) if q.weights is None else np.array(q.weights, dtype=float)

    def _items(self, v: int) -> np.ndarray:
        return self._inc.indices[self._inc.indptr[v]:self._inc.indptr[v + 1]]

    def value(self) -> float:
        if self.q.kind == "coverage":
            return float(np.count_nonzero(self._count))
        return float(self.added[self.in_sel].sum())

    def add(self, v: int) -> None:
        if self.in_sel[v]:
            return
        self.in_sel[v] = True
        self.added[v] = self._gain[v]
        if self.q.kind == "coverage":
            items = self._items(v)
            count = self._count[items] + 1  # a row's items are distinct
            self._count[items] = count
            np.subtract.at(self._gain, _entries(self._hold, items[count == 1])[1], 1.0)
        else:
            self._gain[v] = 0.0

    def remove(self, v: int) -> None:
        if not self.in_sel[v]:
            return
        self.in_sel[v] = False
        if self.q.kind == "coverage":
            self._kept.clear()  # S only subtracts items, so one uncovered again would be missing
            items = self._items(v)
            count = self._count[items] - 1
            self._count[items] = count
            np.add.at(self._gain, _entries(self._hold, items[count == 0])[1], 1.0)
        else:
            self._gain[v] = self.added[v]

    def marginal(self, v: int) -> float:
        return float(self._gain[v])

    def marginal_vec(self, ids: np.ndarray) -> np.ndarray:
        """Vector of marginal gains for a batch of candidate elements."""
        return self._gain[ids]

    def _shared(self, us: np.ndarray, vs: np.ndarray, level: int) -> np.ndarray:
        """[a, b]: items of us[a] that exactly level selected elements cover and vs[b] covers.

        vs's ids must be distinct, since their positions share one buffer;
        us may repeat an id.
        """
        a, items = _entries(self._inc, us)
        keep = self._count[items] == level
        k, holders = _entries(self._hold, items[keep])
        self._pos[vs] = np.arange(vs.size)
        b = self._pos[holders]
        self._pos[vs] = -1
        hit = b >= 0
        flat = b[hit]
        if us.size > 1:  # one u's entries all sit at position 0
            flat += a[keep][k][hit] * vs.size
        return np.bincount(flat, minlength=us.size * vs.size).reshape(us.size, vs.size)

    def swap_delta(self, outs: np.ndarray, inns: np.ndarray) -> np.ndarray:
        """Matrix of value changes for swapping a selected out for an unselected inn.

        Entry [a, i] equals value(sel - {outs[a]} + {inns[i]}) - value(sel).
        Entries whose inns[i] is already selected carry no meaning; callers
        mask them out.
        """
        outs = np.asarray(outs, dtype=int)
        inns = np.asarray(inns, dtype=int)
        g = self._gain[inns][None, :]
        if self.q.kind != "coverage":
            return g - self.added[outs][:, None]  # an additive out loses its weight
        # outs[a] alone covers the items it would leave uncovered (lost);
        # inns[i] wins its uncovered items back plus those of lost it covers
        pos, items = _entries(self._inc, outs)
        lost = np.bincount(pos[self._count[items] == 1], minlength=outs.size)
        return g + self._shared(outs, inns, 1) - lost[:, None]

    def marginal_pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Joint marginal gains of adding us[a] together with vs[b], at [a, b].

        That is m_a + m_b minus, for coverage, the uncovered items both
        cover. us may repeat an id and vs may not; an entry whose two ids
        are equal carries no meaning.
        """
        pairs = self._gain[us][:, None] + self._gain[vs]
        if self.q.kind == "coverage":
            pairs -= self._shared(us, vs, 0)
        return pairs

    def kept_pairs(self, key, ids: np.ndarray) -> np.ndarray:
        """marginal_pairs(ids, ids), bit for bit, from a block kept under key.

        Every call with one key must pass the same distinct ids. Under
        coverage the first call keeps its, the distinct items of ids; H, their
        0/1 incidence (ids x its, float); unc, which of them are uncovered;
        and S = H[:, unc] @ H[:, unc].T, the uncovered items each pair shares.
        A later call subtracts the outer products of the items covered
        since, so it costs a product over those alone. Every entry is a
        small integer, exact in float64, so g_u + g_v - S equals
        marginal_pairs' block. remove() discards
        every kept block, and the next call builds afresh. Zero and modular
        quality keep nothing.
        """
        if self.q.kind != "coverage":
            return self.marginal_pairs(ids, ids)
        kept = self._kept.get(key)
        if kept is None:
            pos, items = _entries(self._inc, ids)
            its, col = np.unique(items, return_inverse=True)
            H = np.zeros((ids.size, its.size))
            H[pos, col] = 1.0
            unc = self._count[its] == 0
            kept = self._kept[key] = [its, H, unc, H[:, unc] @ H[:, unc].T]
        its, H, unc, S = kept
        now = self._count[its] == 0
        new = unc & ~now
        if new.any():
            Hn = H[:, new]
            S -= Hn @ Hn.T
            kept[2] = now
        g = self._gain[ids]
        return g[:, None] + g - S

    def marginal_pair(self, u: int, vs: np.ndarray) -> np.ndarray:
        """Joint marginal gains of adding u together with each element of vs."""
        vs = np.asarray(vs, dtype=int)
        if (vs == u).any():
            raise ValueError("marginal_pair needs two distinct elements")
        return self.marginal_pairs(np.array([u]), vs)[0]
