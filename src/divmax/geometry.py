"""Metric distance evaluation, set distance sums and diameter routines."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .quality import incidence

VALID_METRICS = ("euclidean", "cosine", "jaccard", "matrix")

# Full pairwise matrices are precomputed up to this many elements; above it
# distances are evaluated on demand from features.
CACHE_LIMIT = 4096

COSINE_NORM_TOL = 1e-6

# The Jaccard cache counts intersections over the HOT_ITEMS most-held items
# with a dense 0/1 BLAS product and over the rest with a sparse one. On 2000
# sets of 10-40 items drawn with weight 1/(k + 20) from 4000 (3924 distinct),
# one BLAS thread, the oracle took 0.12, 0.073, 0.069, 0.090 and 0.095 s
# (median of 9) with 0, 64, 100, 200 and 300 hot items.
HOT_ITEMS = 100

# Rows per step of the Jaccard cache build; its temporaries are a few
# (256, n) blocks instead of several (n, n) ones. The uncached euclidean
# rows kernel steps through blocks of CHUNK_ROWS * 64 entries (128 KiB), so
# its dozen temporaries stay in a core's L2 cache.
CHUNK_ROWS = 256


def _pairwise_sum(term, lo: int, n: int):
    """term(lo) + ... + term(lo + n - 1), n >= 1, added in the order of
    numpy's add.reduce along a contiguous axis (its pairwise sum): one
    after another below 8 terms; up to 128 terms, eight interleaved partial
    sums, combined as a tree, then the terms left over past the last
    multiple of 8; above 128, the two halves, split at a multiple of 8,
    each summed so. term returns a new array, which may be summed into.
    """
    if n < 8:
        res = term(lo)
        for c in range(lo + 1, lo + n):
            res += term(c)
        return res
    if n <= 128:
        r = [term(lo + i) for i in range(8)]
        end = lo + n - n % 8
        for c in range(lo + 8, end, 8):
            for i in range(8):
                r[i] += term(c + i)
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for c in range(end, lo + n):
            res += term(c)
        return res
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(term, lo, half) + _pairwise_sum(term, lo + half, n - half)


def _jaccard_from_counts(inter: np.ndarray, size_a, size_b) -> np.ndarray:
    """Jaccard distances, written over the intersection counts inter.

    inter[i, j] counts the items that row set i (size_a[i] items) and column
    set j (size_b[j] items) share. Two empty sets (union 0) are at distance 0.
    """
    union = size_a[:, None] + size_b[None, :] - inter
    nonempty = union > 0
    np.divide(inter, union, out=inter, where=nonempty)
    np.subtract(1.0, inter, out=inter, where=nonempty)  # an empty pair keeps its count, 0
    return inter


class DistanceOracle:
    """Uniform distance lookups for one instance's elements.

    Modes
    -----
    euclidean / cosine : over an (n, dim) float array of vector features.
        Cosine requires unit-norm rows (checked at construction) and is
        1 - <x, y>.
    jaccard : over a list of n item sets.
    matrix : over an explicit (n, n) distance matrix. Any object supporting
        scalar [i, j] indexing, [i, id_array] rows, paired [us, vs] index
        arrays and rectangular [np.ix_(us, ids)] blocks works, so large
        structured matrices can be plugged in without materializing n^2
        floats.

    When n <= cache_limit a dense matrix is built eagerly so later lookups
    are array slices; the oracle is immutable and safe to share across
    threads after construction.

    Within one oracle, d(u, v) has one value in every read: in any block
    and in either direction. Above cache_limit, each entry of row depends
    only on its own two elements. rows(us, ids) is its block form: a new
    C-contiguous (len(us), len(ids)) array whose row i equals row(us[i],
    ids) bit for bit, zero where ids == us[i] included, so its row sums
    equal the sums of the single rows too. Euclidean rows has a kernel of
    its own, which builds the block one feature column at a time and adds
    the squared differences in the order in which row's reduction adds
    them; the other metrics stack rows, or read the Jaccard and matrix
    blocks at once. pairwise(ids) is rows(ids, ids) and distance(u, v) is
    row(u, [v])[0]. Cached and uncached reads may still differ in the last
    bit. distance, row, rows and pairwise all raise IndexError for an id
    outside [0, n); _row reads ids that its caller has checked.
    """

    def __init__(self, metric: str, features=None, matrix=None,
                 cache_limit: int = CACHE_LIMIT):
        if metric not in VALID_METRICS:
            raise ValueError(f"unknown metric: {metric!r}")
        self.metric = metric
        self._X = None
        self._inc = None
        self._matrix = None
        self._cache = None

        if metric in ("euclidean", "cosine"):
            X = np.asarray(features, dtype=float)
            if X.ndim != 2:
                raise ValueError("vector metrics need a 2-d feature array")
            self._X = X
            self.n = X.shape[0]
            if metric == "cosine":
                norms = np.linalg.norm(X, axis=1)
                bad = np.flatnonzero(np.abs(norms - 1.0) > COSINE_NORM_TOL)
                if bad.size:
                    raise ValueError(
                        f"cosine mode needs unit-norm features; element {bad[0]} "
                        f"has norm {norms[bad[0]]:.9g}"
                    )
        elif metric == "jaccard":
            self._inc = incidence(features)
            self._sizes = np.diff(self._inc.indptr)
            self.n = self._inc.shape[0]
        else:
            if matrix is None:
                raise ValueError("matrix metric needs a distance matrix")
            self._matrix = matrix
            self.n = matrix.shape[0]

        if self.n <= cache_limit:
            self._cache = self._build_cache()

    def _build_cache(self) -> np.ndarray:
        if self.metric == "euclidean":
            D = cdist(self._X, self._X)
        elif self.metric == "cosine":
            D = np.clip(1.0 - self._X @ self._X.T, 0.0, None)
        elif self.metric == "jaccard":
            D = self._jaccard_cache()
        else:
            if isinstance(self._matrix, np.ndarray):
                D = np.asarray(self._matrix, dtype=float)
                if np.may_share_memory(D, self._matrix) and D.diagonal().any():
                    D = D.copy()  # zero the diagonal below, not in the caller's matrix
            else:
                ids = np.arange(self.n)
                D = np.asarray(self._matrix[np.ix_(ids, ids)], dtype=float)
        np.fill_diagonal(D, 0.0)
        return D

    def _jaccard_block(self, a, b) -> np.ndarray:
        """Jaccard distances from each id of a (rows) to each id of b (columns)."""
        inter = (self._inc[a] @ self._inc[b].T).toarray()
        return _jaccard_from_counts(inter, self._sizes[a], self._sizes[b])

    def _jaccard_cache(self) -> np.ndarray:
        """_jaccard_block over all ids, bit for bit, in one preallocated array.

        Each chunk of rows adds the hot items' dense product to the rest's
        sparse product; the counts are integers, exact in float64 in any
        order of summation.
        """
        inc, sizes = self._inc, self._sizes
        held = np.bincount(inc.indices, minlength=inc.shape[1])
        order = np.argsort(-held, kind="stable")
        hot = inc[:, order[:HOT_ITEMS]].toarray()
        cold = inc[:, order[HOT_ITEMS:]]
        cold_t = cold.T.tocsr()
        D = np.empty((self.n, self.n))
        for r in range(0, self.n, CHUNK_ROWS):
            rows = slice(r, r + CHUNK_ROWS)
            block = D[rows]
            np.matmul(hot[rows], hot.T, out=block)
            block += (cold[rows] @ cold_t).toarray()
            _jaccard_from_counts(block, sizes[rows], sizes)
        return D

    def _check(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise IndexError(f"element id {u} out of range [0, {self.n})")

    def _check_all(self, ids) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        # read as unsigned, a negative id is as far out of range as one >= n
        if ids.size and np.maximum.reduce(ids.view(np.uint64), axis=None) >= self.n:
            self._check(int(ids[(ids < 0) | (ids >= self.n)][0]))
        return ids

    def distance(self, u: int, v: int) -> float:
        return float(self.row(u, [v])[0])

    def row(self, u: int, ids) -> np.ndarray:
        """Distances from u to each element of ids, as a float array."""
        self._check(u)
        return self._row(u, self._check_all(ids))

    def _row(self, u: int, ids: np.ndarray) -> np.ndarray:
        """row(u, ids) for a checked u and a checked int64 ids array."""
        if self._cache is not None:
            return self._cache[u, ids]  # a new array; the cache's diagonal is zero
        if self.metric == "euclidean":
            # np.linalg.norm(d, axis=1) without its wrapper, bit for bit; u's
            # own entry needs no fix-up, as x - x is exactly zero
            d = self._X[ids] - self._X[u]
            d *= d
            return np.sqrt(np.add.reduce(d, axis=1))
        if self.metric == "cosine":
            # einsum without optimize sums each entry's products on its own,
            # where a BLAS product rounds an entry with the rest of its block
            out = np.clip(1.0 - np.einsum("ij,j->i", self._X[ids], self._X[u]), 0.0, None)
        elif self.metric == "jaccard":
            out = self._jaccard_block([u], ids)[0]
        else:
            out = np.asarray(self._matrix[u, ids], dtype=float)
        out[ids == u] = 0.0
        return out

    def rows(self, us, ids) -> np.ndarray:
        """Distances from each element of us (rows) to each element of ids."""
        us = self._check_all(us)
        ids = self._check_all(ids)
        if self._cache is not None:
            return self._cache[us[:, None], ids]  # np.ix_ without its dtype checks
        if self.metric == "jaccard":
            out = self._jaccard_block(us, ids)
        elif self.metric == "matrix":
            out = np.array(self._matrix[np.ix_(us, ids)], dtype=float)
        else:
            # one block row per element of the shorter side; d(u, v) reads
            # the same in a row of u and in one of v
            flip = ids.size < us.size
            a, b = (ids, us) if flip else (us, ids)
            out = np.empty((a.size, b.size))
            if self.metric == "euclidean":
                self._euclidean_block(a, b, out)
            else:
                for i, u in enumerate(a.tolist()):  # every id was checked above
                    out[i] = self._row(u, b)
            return np.ascontiguousarray(out.T) if flip else out
        out[us[:, None] == ids[None, :]] = 0.0
        return out

    def _euclidean_block(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        """Fill out with the euclidean distances from each id of a (rows) to
        each id of b, bit for bit as row(a[i], b): the squared differences
        of one feature column at a time are added in row's order of
        np.add.reduce (_pairwise_sum), over steps of rows of at most
        CHUNK_ROWS * 64 entries. x - x is exactly zero, so equal ids read 0.
        """
        dim = self._X.shape[1]
        if not (a.size and dim):  # nothing to read, or every distance is zero
            out.fill(0.0)
            return
        A, B = self._X[a], self._X[b]
        step = max(1, CHUNK_ROWS * 64 // b.size)  # b is the longer side
        for lo in range(0, a.size, step):
            part = A[lo:lo + step]

            def term(c):
                d = np.subtract.outer(part[:, c], B[:, c])
                d *= d
                return d
            np.sqrt(_pairwise_sum(term, 0, dim), out=out[lo:lo + step])

    def pairwise(self, ids) -> np.ndarray:
        """Square block of pairwise distances among ids."""
        return self.rows(ids, ids)


def set_distance_sum(oracle: DistanceOracle, v: int, S: Iterable[int]) -> float:
    """Sum of distances from v to every element of S.

    S may contain v itself; the d(v, v) = 0 term contributes nothing.
    """
    ids = np.asarray(sorted(int(u) for u in S), dtype=int)
    if ids.size == 0:
        return 0.0
    return float(oracle.row(v, ids).sum())


def exact_diameter(oracle: DistanceOracle, S: Sequence[int]) -> tuple[int, int, float]:
    """Farthest pair within S by exhaustive pairwise scan.

    Returns (u, v, d) with u < v; ties resolve to the lexicographically
    smallest (u, v). Raises ValueError when S has fewer than two elements.
    """
    ids = np.asarray(sorted(set(int(u) for u in S)), dtype=int)
    if ids.size < 2:
        raise ValueError("diameter needs at least two elements")
    D = oracle.pairwise(ids)
    iu = np.triu_indices(ids.size, k=1)
    vals = D[iu]
    k = int(np.argmax(vals))  # first maximum = lexicographically smallest pair
    return int(ids[iu[0][k]]), int(ids[iu[1][k]]), float(vals[k])


def approx_diameter(oracle: DistanceOracle, S: Sequence[int],
                    anchor: int | None = None) -> tuple[int, int, float]:
    """One-sided diameter estimate: the farthest element from an anchor.

    The anchor defaults to the smallest id in S. The returned distance is at
    least half the exact diameter by the triangle inequality. Ties on the
    farthest element resolve to the smallest id.
    """
    ids = np.asarray(sorted(set(int(u) for u in S)), dtype=int)
    if ids.size < 2:
        raise ValueError("diameter needs at least two elements")
    a = int(ids[0]) if anchor is None else int(anchor)
    if a not in set(ids.tolist()):
        raise ValueError(f"anchor {a} is not in S")
    others = ids[ids != a]
    d = oracle.row(a, others)
    k = int(np.argmax(d))
    return a, int(others[k]), float(d[k])
