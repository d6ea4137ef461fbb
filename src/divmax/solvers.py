"""Solvers for budgeted diversity maximization over overlapping clusters.

All solvers are deterministic for a fixed config. Every choice among the
candidates of a round goes through _pick, whose key (-gain, cluster id,
minimum element id, maximum element id) is the one tie-break: larger gain
first, then smaller cluster id, then smaller minimum element id, then smaller
maximum element id. Randomized components draw from numpy's default_rng
seeded by the config.

Availability: an element is free when no selected element shares its
partition cell. _State keeps the per-cell count of selected elements, and a
selected element fills its own cell, so this one rule also excludes elements
already taken (model.available_elements applies the same rule to a partial
solution).

Pair-based solvers score a candidate pair {u, v} for cluster j with
objective.pair_score, the one pair score. On dispersion-only instances it is
(b_j - 1) * d(u, v), applied after the argmax. When a quality function is
present it is the joint quality marginal of the pair over the current union
(QualityState.marginal_pairs) plus lambda * (b'_j - 1) * d(u, v), with b'_j
the budget rounded up to even (model.even_budget), which keeps quality and
once-counted dispersion on the same scale. objective.pair_gain_dispersion
and objective.pair_gain_combined return the recorded gains bit for bit.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, count

import numpy as np

from . import objective, quality as qual
from .model import (Instance, Solution, _check_cluster, _partial_sets, even_budget,
                    is_feasible)

DEFAULT_ORACLE_LIMIT = 10_000_000


class Algorithm(str, Enum):
    GP = "gp"
    GPA = "gpa"
    GELMS = "gelms"
    LSI = "lsi"
    LSG = "lsg"
    MC = "mc"
    RN = "rn"
    EXACT = "exact"


class OddPolicy(str, Enum):
    ALG1_ARBITRARY = "alg1_arbitrary"
    ROUNDUP_REMOVE = "roundup_remove"


class OracleLimitError(RuntimeError):
    """Raised when the exhaustive oracle's search space exceeds its limit."""


@dataclass
class SolverConfig:
    algorithm: Algorithm = Algorithm.GP
    alpha: float = 1.0
    epsilon: float = 1e-3
    seed: int = 0
    cluster_order: list | None = None
    enhanced: bool = False
    odd_policy: OddPolicy | None = None  # None picks a default by quality kind
    max_ls_iters: int | None = None  # None means 10 * n * max budget


@dataclass
class TraceEvent:
    step: int
    kind: str  # "pair" | "single" | "remove" | "swap"
    cluster: int
    elements: tuple
    gain: float


@dataclass
class SolveTrace:
    algorithm: str
    events: list
    init: tuple | None = None  # starting selection for local search


def check_config(config: SolverConfig, m: int | None = None) -> SolverConfig:
    """config, once its fields are checked; ValueError names the first field
    that no solve accepts. Given the cluster count m, a nonempty
    cluster_order must also be a permutation of 0..m-1."""
    if not 0.0 < config.alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {config.alpha!r}")
    if not config.epsilon >= 0:
        raise ValueError(f"epsilon must be >= 0, got {config.epsilon!r}")
    if config.max_ls_iters is not None and config.max_ls_iters < 0:
        raise ValueError(f"max_ls_iters must be >= 0, got {config.max_ls_iters!r}")
    if m is not None and config.cluster_order:
        _check_order(config.cluster_order, m)
    return config


def _check_order(order, m: int) -> list:
    order = [int(j) for j in order]
    if sorted(order) != list(range(m)):
        raise ValueError(f"cluster_order must be a permutation of 0..{m - 1}")
    return order


class _State:
    """Selection bookkeeping for one solver run.

    load[c] counts the selected elements in partition cell c, and an element
    is free when its cell's load is zero. A selected element fills its own
    cell, so the same rule also excludes every element already taken. start
    seeds the selection (per-cluster collections) without trace events; q
    overrides the tracked quality function. qmode says whether that function
    is nonzero, and weights[j] is cluster j's pair weight: b_j without a
    quality function, b'_j = even_budget(b_j) with one.

    sums(j)[i] is the sum of distances from S_j to members[j][i]. The first
    sums call builds them for every cluster from the current selection, and
    every later add, remove and swap keeps them exact; a pair adds
    row(u) + row(v) as one term.

    _row(j, v) reads distances from v to members[j] through the oracle's
    _row, without the per-call id checks: Instance.member_arrays checked
    every member id once, and v is always a member.
    It keeps the last row it read per cluster and returns it again for the
    same v, so the add_pair that takes a zero-quality gpa proposal reuses
    the anchor row that _gpa_candidate read.

    empty_cells()[j] counts cluster j's cells with load zero: j has a free
    member while it is at least 1 and a pair across cells while it is at
    least 2. The first call builds the counts, and every add, remove and swap
    keeps them current from then on. While only adds happen a count only
    falls, and it falls exactly when j's free members change, so _lazy_round
    reads it as j's version.

    pair_blocks(j) is gp's (D, bad) over all of cluster j's members: D =
    pairwise(members[j]) and bad[a, b] true where a >= b or the two share a
    cell. Neither reads the selection, so each is built at j's first call
    and kept for the run; _best_pair masks the members that are not free
    at each call. The coverage block of shared uncovered items that goes
    with them is kept by QualityState.kept_pairs under key j, and _drop
    discards it through QualityState.remove, so after a remove or a swap
    the next _best_pair builds it afresh.
    """

    def __init__(self, instance: Instance, algorithm: str,
                 q: qual.QualityFunction | None = None, start=None):
        self.inst = instance
        self.oracle = instance.oracle()
        self.n = instance.n
        self.m = instance.m
        self.lam = float(instance.lam)
        self.budgets = instance.budgets()
        self.cells = instance.cell_of()
        self.members = instance.member_arrays()
        self.member_cells = [self.cells[ids] for ids in self.members]
        self._empty = None  # built by the first empty_cells call
        self.dsum = None  # built by the first sums call
        self._kept = {}  # j -> (v, row(v, members[j])), the last row read for j
        self._blocks = {}  # j -> pair_blocks(j), built by its first call
        self.load = np.zeros(self.n, dtype=int)
        self.sel = [set() for _ in range(self.m)]
        self.qstate = qual.QualityState(instance.quality if q is None else q, self.n)
        self.qmode = self.qstate.q.kind != "zero"
        self.weights = even_budget(self.budgets) if self.qmode else self.budgets
        self.events = []
        self.algorithm = algorithm
        self.init = start
        for j, S in enumerate(start or ()):
            for v in S:
                self._add(j, int(v))

    @functools.cached_property
    def member_of(self) -> np.ndarray:
        """member_of[j, v]: v is a member of cluster j (m x n); built on first use."""
        member_of = np.zeros((self.m, self.n), dtype=bool)
        for j, ids in enumerate(self.members):
            member_of[j, ids] = True
        return member_of

    def free_mask(self, j: int) -> np.ndarray:
        """Which members of cluster j are free, aligned with members[j]."""
        return self.load[self.member_cells[j]] == 0

    def free_members(self, j: int) -> np.ndarray:
        return self.members[j][self.free_mask(j)]

    def empty_cells(self) -> np.ndarray:
        """Per cluster, how many of its cells have load zero."""
        if self._empty is None:
            # cell_in[j, c]: cluster j has a member in cell c
            self.cell_in = np.zeros((self.m, self.n), dtype=bool)
            for i, cells in enumerate(self.member_cells):
                self.cell_in[i, cells] = True
            self._empty = (self.cell_in & (self.load == 0)).sum(axis=1)
        return self._empty

    def sums(self, j: int) -> np.ndarray:
        """Distance sums from S_j to each member of cluster j, aligned with members[j]."""
        if self.dsum is None:
            # an empty S_j sums to zeros, with no read
            self.dsum = [self.oracle.rows(sorted(S), ids).sum(axis=0) if S
                         else np.zeros(ids.size) for S, ids in zip(self.sel, self.members)]
        return self.dsum[j]

    def pair_blocks(self, j: int) -> tuple:
        """(D, bad) over cluster j's members, aligned with members[j]."""
        blocks = self._blocks.get(j)
        if blocks is None:
            cells = self.member_cells[j]
            bad = (cells[:, None] == cells) | np.tri(cells.size, dtype=bool)
            blocks = self._blocks[j] = (self.oracle.pairwise(self.members[j]), bad)
        return blocks

    def _row(self, j: int, v: int) -> np.ndarray:
        kept = self._kept.get(j)
        if kept is None or kept[0] != v:
            kept = self._kept[j] = (v, self.oracle._row(v, self.members[j]))
        return kept[1]

    def _add(self, j: int, v: int) -> None:
        self.sel[j].add(v)
        self.qstate.add(v)
        c = self.cells[v]
        if self._empty is not None and self.load[c] == 0:
            self._empty -= self.cell_in[:, c]
        self.load[c] += 1

    def _drop(self, j: int, v: int) -> None:
        self.sel[j].discard(v)
        self.qstate.remove(v)
        c = self.cells[v]
        self.load[c] -= 1
        if self._empty is not None and self.load[c] == 0:
            self._empty += self.cell_in[:, c]

    def _event(self, kind: str, j: int, elements: tuple, gain: float) -> None:
        self.events.append(TraceEvent(len(self.events), kind, j, elements, gain))

    def add_pair(self, j: int, u: int, v: int, gain: float) -> None:
        if self.load[self.cells[u]] or self.load[self.cells[v]]:
            # a proposal kept past an add that took one of its elements
            raise RuntimeError(f"pair ({u}, {v}) for cluster {j} is not free")
        self._add(j, u)
        self._add(j, v)
        if self.dsum is not None:
            self.dsum[j] += self._row(j, u) + self._row(j, v)
        self._event("pair", j, (u, v), gain)

    def add_single(self, j: int, v: int, gain: float) -> None:
        if self.load[self.cells[v]]:
            raise RuntimeError(f"element {v} for cluster {j} is not free")
        self._add(j, v)
        if self.dsum is not None:
            self.dsum[j] += self._row(j, v)
        self._event("single", j, (v,), gain)

    def remove(self, j: int, v: int, gain: float) -> None:
        self._drop(j, v)
        if self.dsum is not None:
            self.dsum[j] -= self._row(j, v)
        self._event("remove", j, (v,), gain)

    def swap(self, j: int, out: int, inn: int, gain: float) -> None:
        self._drop(j, out)
        self._add(j, inn)
        if self.dsum is not None:
            self.dsum[j] += self._row(j, inn) - self._row(j, out)
        self._event("swap", j, (out, inn), gain)

    def finish(self) -> tuple:
        solution = Solution.from_sets(self.sel)
        return solution, SolveTrace(self.algorithm, self.events, init=self.init)


def _default_policy(instance: Instance, config: SolverConfig) -> OddPolicy:
    if config.odd_policy is not None:
        return OddPolicy(config.odd_policy)
    if instance.quality.kind == "zero":
        return OddPolicy.ALG1_ARBITRARY
    return OddPolicy.ROUNDUP_REMOVE


def _pick(cands: list) -> tuple:
    """The candidate (gain, j, *ids) of least key (-gain, j, min id, max id), first of equals.

    The key is applied a part at a time, so ids are compared only between
    candidates that tie on gain and cluster; gains are never NaN.
    """
    if len(cands) == 1:
        return cands[0]
    top = max(c[0] for c in cands)
    j = min(c[1] for c in cands if c[0] == top)
    return min((c for c in cands if c[0] == top and c[1] == j),
               key=lambda c: (min(c[2:]), max(c[2:])))


def _best_pair(st: _State, j: int) -> tuple:
    """Exact best feasible pair in cluster j, as (gain, j, u, v).

    Scans every remaining pair; the first maximum wins, which is the
    lexicographically smallest (u, v) because ids are ascending. Same-cell
    pairs score -inf; the pair loop passes only clusters with a pair across
    two cells.

    Without a quality function the scan runs in Python over the block of
    free members. With one it scores the kept block over all members
    (st.pair_blocks(j), QualityState.kept_pairs), with every pair outside
    the free members at -inf. Free positions are ascending, so that block's
    row-major first maximum is the pair that the free members' own block
    gives, with the same bits: pairwise reads one value per distance, and
    pair_score works elementwise.
    """
    weight = int(st.weights[j])
    if not st.qmode:
        ids = st.free_members(j)
        k = ids.size
        D = st.oracle.pairwise(ids)
        cells = st.cells[ids]
        # raw distances, scored after the argmax: a zero weight must not tie
        D[cells[:, None] == cells[None, :]] = -np.inf
        best = None
        for a in range(k):
            Da = D[a]
            for bb in range(a + 1, k):
                d = Da[bb]
                if best is None or d > best[0]:
                    best = (d, a, bb)
        gain = objective.pair_score(0.0, 1.0, weight, float(best[0]))
        return gain, j, int(ids[best[1]]), int(ids[best[2]])
    ids = st.members[j]
    D, bad = st.pair_blocks(j)
    free = st.free_mask(j)
    g = objective.pair_score(st.qstate.kept_pairs(j, ids), st.lam, weight, D)
    g[bad | ~(free[:, None] & free)] = -np.inf
    a, b = divmod(int(np.argmax(g)), ids.size)
    return float(g[a, b]), j, int(ids[a]), int(ids[b])


def _removal_measures(st: _State) -> list:
    """(j, S, measures) for each over-full cluster j after the pair loop.

    S is sorted S_j and measures[i] equals objective.removal_measure of S[i]
    over the pair events, bit for bit:
    - the quality part, each element's marginal over the elements added
      before it, is the gain QualityState.added kept at its add: only the
      pair events' adds precede the odd phase;
    - the distance part is one rows(S, S) block per cluster with the
      diagonal dropped before each row's sum: a kept zero can move the last
      bit of a pairwise sum.
    """
    out = []
    for j in range(st.m):
        if len(st.sel[j]) <= st.budgets[j]:
            continue
        S = np.asarray(sorted(st.sel[j]), dtype=int)
        peers = ~np.eye(S.size, dtype=bool)
        dsums = st.oracle.rows(S, S)[peers].reshape(S.size, -1).sum(axis=1)
        out.append((j, S, st.qstate.added[S] + st.lam * dsums))
    return out


def _odd_phase(st: _State, policy: OddPolicy) -> None:
    """Fix up odd budgets after the pair loop.

    ALG1 adds to each odd cluster below its budget the free member farthest
    from its selection in distance sum. Round-up removal drops from each
    over-full cluster the element of least objective.removal_measure, the
    first minimum over sorted ids. Every measure reads the selection as the
    pair loop left it, so _removal_measures computes all of them before any
    removal.
    """
    if policy == OddPolicy.ALG1_ARBITRARY:
        for j in range(st.m):
            if st.budgets[j] % 2 == 0 or len(st.sel[j]) >= st.budgets[j]:
                continue
            ids = st.free_members(j)
            if ids.size == 0:
                continue
            if st.sel[j]:
                peers = np.asarray(sorted(st.sel[j]), dtype=int)
                dsums = st.oracle.rows(ids, peers).sum(axis=1)
            else:
                dsums = np.zeros(ids.size)
            k = int(np.argmax(dsums))
            st.add_single(j, int(ids[k]), float(dsums[k]))
    else:
        for j, S, meas in _removal_measures(st):
            k = int(np.argmin(meas))
            st.remove(j, int(S[k]), float(meas[k]))


def _greedy_pairs(st: _State, config: SolverConfig, propose) -> tuple:
    """The pair loop of gp and gpa.

    Each round lists the open clusters: those with room for a pair under
    their loop budget (even-rounded down, or up under the round-up removal
    policy) whose free members span two cells. propose(st, open_) returns
    candidates (gain, j, u, v), and the _pick winner is added. Odd budgets
    are then settled by the configured policy: one extra element per odd
    cluster, or removal of the element with the smallest contribution
    measure.

    gp and gpa propose through _lazy_round, which keeps each cluster's last
    proposal and returns the same winner as proposing for every open
    cluster:
    - Versions: the loop only adds, so empty_cells()[j] only falls, and it
      falls exactly when a cell of cluster j fills. That changes the free
      members of j, and every add to S_j fills a cell of j, so a change to
      sums(j) moves it too. empty_cells()[j] is therefore j's version.
    - Exact reuse: with zero or modular quality a proposal depends only on
      the free members and, for zero-quality gpa, on sums(j), so one whose
      version has not moved is reused as it is. Coverage marginals move with
      every add, so there a proposal is fresh only within its own round.
    - Bounds (gp only): the free set only shrinks, coverage marginals only
      fall and fl(m + c) is monotone in m, so a cluster's best pair score
      never rises and a stale score bounds the current one. Proposals wait
      in a heap keyed (-gain, j); a stale top is refreshed and pushed back
      until the top is fresh. Every other cluster then scores below it, or
      ties it with a larger j, so the top is the _pick winner.
    - Kept blocks (gp with a quality function): a refresh reads no new
      distances and rebuilds no mask. Its shared-uncovered block under
      coverage is kept from j's last refresh, less the items covered since:
      the loop only adds, so an item once covered stays covered.
    gpa's anchor can change with no bound, so it refreshes every stale
    cluster at once: with a quality function in one _gpa_batch call, and
    under coverage every open cluster is stale each round. The covering
    scheme (_enhanced_candidates) proposes whole rounds; it shares
    _gpa_batch's steps, _anchors and _best_partners.
    """
    policy = _default_policy(st.inst, config)
    loopb = even_budget(st.budgets, up=policy == OddPolicy.ROUNDUP_REMOVE).tolist()
    open_ = range(st.m)
    while True:
        # room and a pair across cells (two empty cells) only get lost, so
        # closed stays closed
        empty = st.empty_cells().tolist()
        open_ = [j for j in open_ if len(st.sel[j]) + 2 <= loopb[j] and empty[j] >= 2]
        if not open_:
            break
        g, j, u, v = _pick(propose(st, open_))
        st.add_pair(j, u, v, g)
    _odd_phase(st, policy)
    return st.finish()


def _lazy_round(propose, bound: bool):
    """A round proposer over propose(st, js), one proposal per cluster of the
    ascending js, that reuses proposals by the rules in _greedy_pairs and
    returns the winner alone.

    bound says whether a stale proposal's gain bounds the cluster's current
    one; the caller decides, since only it knows what its proposals read.
    Without bounds, and in the first round, every stale open cluster is
    refreshed in one call; with them, the stale cluster that leads the heap,
    as [j]. The loop that calls it must only add, so that empty_cells() only
    falls. gp, gpa and mc propose through it.
    """
    heap = []  # (-gain, j, seq) of every proposal made, newest per j valid
    last = {}  # j -> (seq, version when proposed, proposal)
    seq = count()

    def round_(st, open_):
        # each cluster's current version: under coverage quality every add
        # moves marginals, so it is the round, len(st.events); otherwise
        # empty_cells(), which falls exactly when j's free members change
        if st.qstate.q.kind == "coverage":
            now = [len(st.events)] * st.m
        else:
            now = st.empty_cells().tolist()

        def refresh(js):
            for j, cand in zip(js, propose(st, js)):
                k = next(seq)
                last[j] = (k, now[j], cand)
                heapq.heappush(heap, (-cand[0], j, k))

        if not (last and bound):
            # no bounds to trust: refresh every stale cluster before the top
            stale = [j for j in open_ if j not in last or last[j][1] != now[j]]
            if stale:
                refresh(stale)
        opened = set(open_)
        while True:
            _, j, k = heap[0]
            kj, version, cand = last[j]
            if version == now[j] and k == kj and j in opened:
                return [cand]
            heapq.heappop(heap)
            if k == kj and j in opened:
                refresh([j])  # stale, and its bound leads
    return round_


def solve_gp(instance: Instance, config: SolverConfig | None = None) -> tuple:
    """Greedy pairs: repeatedly add the globally best feasible pair.

    Each round adds the pair with the largest score in any open cluster; see
    _greedy_pairs for the rounds, the reuse of proposals and the odd budgets.

    Returns (Solution, SolveTrace).
    """
    cfg = check_config(config or SolverConfig(algorithm=Algorithm.GP))
    propose = _lazy_round(lambda st, js: [_best_pair(st, j) for j in js], bound=True)
    return _greedy_pairs(_State(instance, "gp"), cfg, propose)


def _gpa_candidate(st: _State, j: int, alpha: float) -> tuple:
    """gpa's proposal for cluster j without a quality function, as (gain, j,
    x, y); with one, gpa proposes through _gpa_batch.

    The anchor's distances come from st._row(j, x), over all of j's
    members, which _State keeps: if the proposal wins, add_pair(j, x, y)
    reads that row again at no cost.
    """
    free = st.free_mask(j)
    ids, sums = st.members[j], st.sums(j)
    # while S_j is empty every sum is zero and the anchor is j's first free member
    x = int(ids[np.where(free, sums, -np.inf).argmax()])
    pool = free & (st.member_cells[j] != st.cells[x])
    rows = st._row(j, x)
    # only near partners compete; the farthest is one, since alpha <= 1
    near = pool & (rows >= alpha * float(rows.max(where=pool, initial=-np.inf)))
    k = int(np.where(near, sums, -np.inf).argmax())
    return objective.pair_score(0.0, 1.0, int(st.weights[j]), float(rows[k])), j, x, int(ids[k])


def _first_max(vals: np.ndarray, seg: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Index of the first maximum of vals in each segment.

    Segments are contiguous runs of vals: seg[i] is entry i's segment and
    starts[s] segment s's first index. No segment is empty, no value NaN.
    """
    top = np.maximum.reduceat(vals, starts)
    hits = np.flatnonzero(vals == top[seg])
    return hits[np.searchsorted(hits, starts)]


def _distinct(a: np.ndarray) -> np.ndarray:
    """np.unique(a) for an int array, by one sort: np.unique's hash pass
    costs several times the sort on the few hundred ids of a round."""
    a = np.sort(a)
    head = np.ones(a.size, dtype=bool)
    head[1:] = a[1:] != a[:-1]
    return a[head]


def _runs(seg: np.ndarray, k: int) -> tuple:
    """(sizes, starts) of the k contiguous runs that the sorted labels seg form."""
    sizes = np.bincount(seg, minlength=k)
    return sizes, sizes.cumsum() - sizes


def _anchors(st: _State, open_: list) -> tuple:
    """(ids, seg, a, top, free): the ascending open_'s free members, one
    segment per cluster (seg[i] is entry i's, free[s] the segment's slice
    of ids), and each segment's anchor ids[a[s]], its first maximum top[s]
    of the quality marginal, or of sums(j) without a quality function. One
    free mask covers the members of open_ alone, and one marginal_vec
    serves every segment.
    """
    k = len(open_)
    keep = st.load[np.concatenate([st.member_cells[j] for j in open_])] == 0
    seg = np.repeat(np.arange(k), [st.members[j].size for j in open_])[keep]
    ids = np.concatenate([st.members[j] for j in open_])[keep]
    sizes, starts = _runs(seg, k)
    meas = (st.qstate.marginal_vec(ids) if st.qmode
            else np.concatenate([st.sums(j) for j in open_])[keep])
    a = _first_max(meas, seg, starts)
    free = [ids[lo:lo + size] for lo, size in zip(starts.tolist(), sizes.tolist())]
    return ids, seg, a, meas[a], free


def _best_partners(st: _State, xs: np.ndarray, pool: np.ndarray, seg: np.ndarray,
                   homes: np.ndarray) -> tuple:
    """(gains, b): pool[b[s]] is anchor xs[s]'s best partner in run s of pool
    (seg[i] is entry i's run, homes[i] the cluster that would take it, whose
    pair weight it gets), first of equals. The reads are one row(xs[s], run
    s) per anchor, as a per-anchor loop makes, and with a quality function
    one marginal_pairs(xs, union) for pair_score; without one the farthest
    partner wins, scored by pair_score after the argmax so that a zero
    weight does not tie.
    """
    sizes, starts = _runs(seg, len(xs))
    dist = np.concatenate([st.oracle.row(x, pool[lo:lo + n]) for x, lo, n
                           in zip(xs.tolist(), starts.tolist(), sizes.tolist())])
    weights = st.weights[homes]
    if not st.qmode:
        b = _first_max(dist, seg, starts)
        return objective.pair_score(0.0, 1.0, weights[b], dist[b]), b
    union = _distinct(pool)
    marg = st.qstate.marginal_pairs(xs, union)[seg, np.searchsorted(union, pool)]
    score = objective.pair_score(marg, st.lam, weights, dist)
    b = _first_max(score, seg, starts)
    return score[b], b


def _gpa_batch(st: _State, js: list) -> list:
    """gpa's proposals under a quality function, one per cluster of the
    ascending js, at once: the anchor is the free member of largest
    marginal, the partner the free member outside the anchor's cell of
    largest pair_score, first of equals in member order.
    """
    ids, seg, a, _, _ = _anchors(st, js)
    xs, cells = ids[a], st.cells[ids]
    part = cells != cells[a][seg]
    pool, seg = ids[part], seg[part]
    gains, b = _best_partners(st, xs, pool, seg, np.asarray(js)[seg])
    return list(zip(gains.tolist(), js, xs.tolist(), pool[b].tolist()))


def _enhanced_candidates(st: _State, open_: list) -> list:
    """Candidate pairs from the covering scheme.

    Rounds pick a first element from the still uncovered open clusters
    (largest set distance to its cluster's selection, or largest quality
    marginal), pair it with the best partner available in any open cluster
    containing it, assign the pair to the eligible cluster of largest budget
    and mark every open cluster containing the first element covered. One
    candidate per round; the caller picks the best.

    Nothing changes _State within a call, so one _anchors pass gives every
    open cluster's first element, and which of them start a round depends
    on member_of alone: the walk over them comes first. One sort of (round,
    partner, rank) keys then gives every round's pool in id order with each
    partner's home, and one _best_partners pass scores them all.
    """
    ids, seg, a, top, free = _anchors(st, open_)
    k = len(open_)
    firsts = ids[a]
    # segments by largest budget, then lowest id: a round's eligible clusters in this order
    ranked = np.argsort(-st.budgets[open_], kind="stable").tolist()
    rank_ids = np.asarray(open_)[ranked]
    # the _pick order of the first elements, which stay fixed within the call
    order = np.argsort(-top, kind="stable").tolist()
    # inside[i][r]: the first element of segment order[i] is a member of ranked[r]
    inside = st.member_of[rank_ids[:, None], firsts[order]].T.tolist()
    uncovered = set(range(k))
    rounds, parts = [], []  # parts: (round, rank of an eligible cluster, its free ids)
    for s, hits in zip(order, inside):
        if s not in uncovered:
            continue
        ranks = [i for i, hit in enumerate(hits) if hit]
        parts += [(len(rounds), i, free[ranked[i]]) for i in ranks]
        rounds.append(s)
        uncovered.difference_update(ranked[i] for i in ranks)
    # key (round * n + partner) * k + rank: distinct, and sorted they list
    # each round's partners in id order and a partner's eligible clusters in
    # rank order, so a partner's first key names its home
    key = np.concatenate([p[2] for p in parts]) * k + np.repeat(
        [(t * st.n) * k + i for t, i, _ in parts], [p[2].size for p in parts])
    pair, rank = np.divmod(np.sort(key), k)
    head = np.ones(pair.size, dtype=bool)
    head[1:] = pair[1:] != pair[:-1]
    rnd, pool = np.divmod(pair[head], st.n)
    homes = rank_ids[rank[head]]
    xs = firsts[rounds]
    part = st.cells[pool] != st.cells[xs][rnd]
    rnd, pool, homes = rnd[part], pool[part], homes[part]
    gains, b = _best_partners(st, xs, pool, rnd, homes)
    return list(zip(gains.tolist(), homes[b].tolist(), xs.tolist(), pool[b].tolist()))


def solve_gpa(instance: Instance, config: SolverConfig | None = None) -> tuple:
    """Anchored greedy pairs with an alpha-relaxed far-point choice.

    Per round each open cluster proposes one pair: the anchor x maximizes the
    set distance to the cluster's selection (first anchor: smallest available
    id) and the partner y maximizes the set distance among elements at least
    alpha times as far from x as the farthest one. With a quality function
    the anchor maximizes the quality marginal and the partner maximizes the
    combined pair score; both are exact argmaxes, which satisfy the alpha
    relaxation for every alpha <= 1. The best proposal wins the round. The
    enhanced flag switches proposals to the covering scheme (alpha ignored).
    Rounds, the reuse of proposals and odd budgets are as in _greedy_pairs:
    _lazy_round refreshes the stale clusters' proposals, through _gpa_batch
    with a quality function and _gpa_candidate without one.

    Returns (Solution, SolveTrace).
    """
    cfg = check_config(config or SolverConfig(algorithm=Algorithm.GPA))
    st = _State(instance, "gpa")
    if cfg.enhanced:
        propose = _enhanced_candidates
    elif st.qmode:
        propose = _lazy_round(_gpa_batch, bound=False)
    else:
        propose = _lazy_round(lambda st, js: [_gpa_candidate(st, j, cfg.alpha) for j in js],
                              bound=False)
    return _greedy_pairs(st, cfg, propose)


def _fill(st: _State, cfg: SolverConfig, order, pick) -> tuple:
    """gelms's and rn's fill: in cfg.cluster_order, or else order(), each
    cluster j takes v of (v, gain) = pick(j, ids, free), ids its free members
    and free their mask, until it is at its budget or has no free member."""
    order = _check_order(cfg.cluster_order, st.m) if cfg.cluster_order else order()
    for j in order:
        while len(st.sel[j]) < st.budgets[j]:
            free = st.free_mask(j)
            ids = st.members[j][free]
            if ids.size == 0:
                break
            st.add_single(j, *pick(j, ids, free))
    return st.finish()


def solve_gelms(instance: Instance, config: SolverConfig | None = None) -> tuple:
    """Greedy single elements, cluster by cluster.

    Visits clusters in the configured order (identity by default) and fills
    each to its budget by repeatedly adding the available member with the
    largest quality marginal plus lambda times the distance sum to the
    cluster's current selection.

    Returns (Solution, SolveTrace).
    """
    cfg = check_config(config or SolverConfig(algorithm=Algorithm.GELMS))
    st = _State(instance, "gelms")

    def pick(j, ids, free):
        # zero quality gathers no marginals; adding 0.0 keeps the sum's signed zero
        gains = st.lam * st.sums(j)[free]
        gains += st.qstate.marginal_vec(ids) if st.qmode else 0.0
        k = gains.argmax()
        return int(ids[k]), float(gains[k])
    return _fill(st, cfg, lambda: range(st.m), pick)


def _best_single(st: _State, j: int) -> tuple:
    """mc's proposal for cluster j: its free member of largest quality
    marginal, first of equals, as (gain, j, v). Under zero quality every
    marginal is 0.0, so that is its first free member, found with no gather."""
    if not st.qmode:
        return 0.0, j, int(st.members[j][st.free_mask(j).argmax()])
    ids = st.free_members(j)
    margs = st.qstate.marginal_vec(ids)
    k = int(margs.argmax())
    return float(margs[k]), j, int(ids[k])


def solve_mc(instance: Instance, config: SolverConfig | None = None) -> tuple:
    """Max-coverage style greedy: globally best quality marginal, one at a time.

    A cluster is open while it is below its budget and has a free member.
    Each round adds the _pick winner among the open clusters' best singles,
    proposed through _lazy_round (Minoux's lazy greedy). The loop only adds,
    so a cluster's free members only shrink and its best marginal never
    rises: under zero or modular quality a proposal whose empty_cells()
    version has not moved is reused as it is, and under coverage a stale
    marginal bounds the current one. No distance is read.

    Returns (Solution, SolveTrace).
    """
    check_config(config or SolverConfig(algorithm=Algorithm.MC))
    st = _State(instance, "mc")
    propose = _lazy_round(lambda st, js: [_best_single(st, j) for j in js], bound=True)
    open_ = range(st.m)
    while True:
        # budgets and free members only get used up, so closed stays closed
        open_ = [j for j in open_
                 if len(st.sel[j]) < st.budgets[j] and st.empty_cells()[j] >= 1]
        if not open_:
            break
        g, j, v = propose(st, open_)[0]
        st.add_single(j, v, g)
    return st.finish()


def solve_rn(instance: Instance, config: SolverConfig | None = None) -> tuple:
    """Random baseline: random cluster order, uniform fills to saturation.

    Returns (Solution, SolveTrace).
    """
    cfg = check_config(config or SolverConfig(algorithm=Algorithm.RN))
    st = _State(instance, "rn")
    rng = np.random.default_rng(cfg.seed)
    return _fill(st, cfg, lambda: rng.permutation(st.m).tolist(),
                 lambda j, ids, free: (int(ids[int(rng.integers(ids.size))]), 0.0))


def _local_search(instance: Instance, config: SolverConfig | None,
                  init: Solution | None, use_combined: bool) -> tuple:
    """lsi (use_combined) or lsg: one batched scan of every cluster's swaps per move.

    A scan scores every (j, out, inn) swap as one flat array of pairs,
    cluster by cluster, then by out, then by inn, and its first maximum is
    the move, taken while it passes the epsilon test. Per scan lsi reads
    rows(S_j, members[j]) for each cluster j with a selection, and lsg one
    rows(U, M), M those clusters' members concatenated: sum_j |ref_j| *
    |members[j]| distances, ref_j = S_j or U. Besides that block a scan
    holds a few arrays of one entry per pair, sum_j |S_j| * |members[j]|
    each. A cluster with an empty S_j has no pair, so it never swaps.
    """
    algorithm = Algorithm.LSI if use_combined else Algorithm.LSG
    cfg = check_config(config or SolverConfig(algorithm=algorithm))
    if init is None:
        init, _ = solve_rn(instance, dataclasses.replace(cfg, algorithm=Algorithm.RN))
    else:
        bad = is_feasible(instance, init)
        if bad:
            raise ValueError(f"infeasible local search start: {bad[0]}")
    # lsg climbs the union's global dispersion and ignores quality.
    st = _State(instance, algorithm.value, None if use_combined else qual.QualityFunction.zero(),
                start=init.selected)
    oracle, cells, n = st.oracle, st.cells, st.n
    scale = st.lam if use_combined else 1.0
    # evaluated once; each applied swap adds its gain
    f_cur = (objective.combined_objective(instance, init).combined if use_combined
             else objective.global_dispersion(oracle, init))
    cap = cfg.max_ls_iters
    if cap is None:
        cap = 10 * st.n * (int(st.budgets.max()) if st.m else 0)
    # A swap keeps every |S_j|, so the layout is fixed for the solve: the
    # clusters js with a selection; their members concatenated in M, whose
    # slots are keyed j * n + member (sorted); one out row per element of
    # each S_j, in sorted order at each scan; and one pair per (out row,
    # slot of its cluster), whose inn is the slot's member.
    js = [j for j in range(st.m) if st.sel[j]]
    if not js:
        return st.finish()
    mems = [st.members[j] for j in js]
    M = np.concatenate(mems)
    sizes = np.array([ids.size for ids in mems])
    base = np.array(js) * n
    key = np.repeat(base, sizes) + M
    nout = np.array([len(st.sel[j]) for j in js])
    ends = nout.cumsum().tolist()
    of_row = np.repeat(np.arange(len(js)), nout)  # position in js of each out row
    row_key = base[of_row]
    width = sizes[of_row]
    row = np.repeat(np.arange(of_row.size), width)  # out row of each pair
    # pair p of row a takes slot p - (a's first pair) + (a's cluster's first slot)
    slot = np.arange(row.size) + np.repeat((sizes.cumsum() - sizes)[of_row]
                                            - (width.cumsum() - width), width)
    inns = M[slot]
    inn_cells = cells[inns]
    while len(st.events) < cap:
        outs = np.array([v for j in js for v in sorted(st.sel[j])])
        out_slot = np.searchsorted(key, row_key + outs)
        # Distance sums t to every member slot from S_j (lsi) or U (lsg):
        # swapping out for inn changes the objective's distance part by
        # (t[inn] - d(out, inn)) - t[out]. lsi reads rows(S_j, mem_j) per
        # cluster, whose row-major blocks are the pair order; bincount sums
        # each slot over its rows in order from 0.0, as a column sum does.
        if use_combined:
            d = np.concatenate([oracle.rows(outs[a:b], mem).ravel()
                                for a, b, mem in zip([0] + ends, ends, mems)])
            t = np.bincount(slot, weights=d, minlength=M.size)
        else:
            union = np.flatnonzero(st.qstate.in_sel)
            R = oracle.rows(union, M)
            t = R.sum(axis=0)
            d = R[np.searchsorted(union, outs)[row], slot]
        gains = (scale * ((t[slot] - d) - t[out_slot][row])
                 + st.qstate.swap_delta(outs, row, inns))
        # inn's cell must be empty once out leaves; inn == out is no move
        out_of = outs[row]
        load = st.load[inn_cells] - (inn_cells == cells[out_of])
        gains[(load > 0) | (inns == out_of)] = -np.inf
        # the first maximum: smallest cluster, then smallest out, then smallest inn
        p = int(np.argmax(gains))
        gain = float(gains[p])
        if not gain > cfg.epsilon * f_cur:
            break
        st.swap(js[of_row[row[p]]], int(out_of[p]), int(inns[p]), gain)
        f_cur += gain
    return st.finish()


def solve_lsi(instance: Instance, config: SolverConfig | None = None,
              init: Solution | None = None) -> tuple:
    """Local search on the combined objective with single-element swaps.

    Starts from init (validated) or the seeded rn solution. A swap replaces
    one element of S_j by a free member of cluster j whose cell is unused
    once the element leaves. Each step applies the best swap, breaking ties
    by smaller cluster id, then smaller outgoing id, then smaller incoming
    id, while its gain exceeds epsilon times the current objective (the
    start's objective plus the gains taken), up to max_ls_iters swaps
    (default 10 * n * max budget). Each move scores every cluster's swaps
    in one scan, which reads the distances from each S_j to its cluster's
    members; see _local_search. Returns (Solution, SolveTrace); the trace
    stores the start and one swap event per move, whose gain is the change
    of the combined objective up to rounding.
    """
    return _local_search(instance, config, init, use_combined=True)


def solve_lsg(instance: Instance, config: SolverConfig | None = None,
              init: Solution | None = None) -> tuple:
    """Local search on the global dispersion of the union (quality ignored).

    Same start, swap moves, tie-breaking, epsilon rule and swap cap as
    solve_lsi, but the objective is the once-counted dispersion over all
    pairs of the union, cross-cluster pairs included. Each move reads the
    distances from the union to the members of every cluster with a
    selection, in one block. Returns (Solution, SolveTrace).
    """
    return _local_search(instance, config, init, use_combined=False)


def alpha_acceptable(instance: Instance, partial, cluster_id: int,
                     x: int, y: int, alpha: float) -> bool:
    """Alpha-relaxed acceptance test for a quality-mode candidate pair.

    True when x's quality marginal is at least alpha times the best available
    marginal in the cluster, and the pair score of (x, y) beyond x's marginal
    is at least alpha times the best such margin over partners of x.
    """
    check_config(SolverConfig(alpha=alpha))
    _check_cluster(instance, cluster_id)
    st = _State(instance, "alpha", start=_partial_sets(partial, instance))
    ids = st.free_members(cluster_id)
    if x not in ids:
        return False
    partners = ids[st.cells[ids] != st.cells[x]]  # leaves out x too
    if y not in partners:
        return False
    marg_x = st.qstate.marginal(x)
    if marg_x < alpha * st.qstate.marginal_vec(ids).max():
        return False
    w = even_budget(st.budgets[cluster_id])
    margin = objective.pair_score(st.qstate.marginal_pair(x, partners), st.lam, w,
                                  st.oracle.row(x, partners)) - marg_x
    return bool(margin[partners == y][0] >= alpha * margin.max())


def solve_exact(instance: Instance, limit: int | None = None) -> tuple:
    """Exhaustive oracle over per-cluster feasible subsets.

    Enumerates every combination of per-cluster selections (subsets of
    members up to the budget with pairwise distinct cells), rejecting
    combinations that reuse elements or cells, and returns the solution with
    the largest combined objective. Equal objectives resolve to the
    lexicographically smallest solution encoding. Raises OracleLimitError
    when the estimated search space exceeds the limit (default 1e7), and
    ValueError, before any search, for a limit below 1: the estimate is
    always at least 1.

    A depth-first search takes one subset per cluster in turn; there is no
    lookup table. Each subset's quality is quality.value of its elements,
    computed once, and so is a union's, except under coverage: there the
    search carries the union's covered items, not its elements, each subset
    keeps its cover union beside its bitmasks, and a union's quality is the
    count of its covered items. Taking a subset for cluster j has the bound
    quality(union so far) + quality(subset) + lambda * (dispersion so far +
    the subset's) + suffix[j + 1], the sum of each later cluster's best
    lambda * dispersion + quality. Quality is subadditive, so no completion exceeds it. The
    subset is pruned when the bound falls below the best value found by more
    than 1e-12 of itself: bound and leaf add the same terms in different
    orders, and the slack keeps rounding from pruning a tie. So a tie is
    never pruned, and the answer is that of the search without pruning.
    Each complete selection is one leaf: its value quality(union) + lambda *
    dispersion takes the lead when it is larger than the best, or equal to
    it with a smaller encoding. No state is shared with the solvers (_State,
    QualityState), so the oracle stays an independent reference for them.

    Returns (Solution, float combined objective).
    """
    if limit is None:
        limit = DEFAULT_ORACLE_LIMIT
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    m = instance.m
    budgets = instance.budgets()
    est = 1
    for j, c in enumerate(instance.clusters):
        size = len(c.members)
        est *= sum(math.comb(size, k) for k in range(min(budgets[j], size) + 1))
        if est > limit:
            raise OracleLimitError(
                f"search space estimate exceeds limit ({est:.3g} > {limit:g})")
    oracle = instance.oracle()
    cells = instance.cell_of()
    lam = float(instance.lam)
    q = instance.quality
    if q.kind == "coverage":
        def part(combo):
            return frozenset().union(*(q.covers[v] for v in combo))

        def value(union):
            return float(len(union))
    else:
        part, value = set, functools.partial(qual.value, q)

    # per cluster, the empty one included: (combo, element bitmask, cell
    # bitmask, dispersion, quality, part: its cover union under coverage,
    # its element set otherwise); members are ascending, so each combo is
    # already in encoding order
    cand = []
    for j, c in enumerate(instance.clusters):
        members = list(c.members)
        D = oracle.pairwise(np.asarray(members, dtype=int)) if members else None
        pos = {v: i for i, v in enumerate(members)}
        subsets = []
        for k in range(min(budgets[j], len(members)), -1, -1):
            for combo in combinations(members, k):
                cset = [int(cells[v]) for v in combo]
                if len(set(cset)) != len(cset):
                    continue
                em = 0
                cm = 0
                for v, cc in zip(combo, cset):
                    em |= 1 << v
                    cm |= 1 << cc
                disp = 0.0
                for a in range(k):
                    for bb in range(a + 1, k):
                        disp += D[pos[combo[a]], pos[combo[bb]]]
                subsets.append((combo, em, cm, disp, qual.value(q, combo), part(combo)))
        cand.append(subsets)

    best_term = [max(lam * disp + qv for _, _, _, disp, qv, _ in subsets) for subsets in cand]
    suffix = [0.0] * (m + 1)
    for j in range(m - 1, -1, -1):
        suffix[j] = suffix[j + 1] + best_term[j]

    best, best_enc = -math.inf, None

    def dfs(j, used, cellused, union, disp_acc, partial):
        nonlocal best, best_enc
        base_q = value(union)
        if j == m:
            val = base_q + lam * disp_acc
            if val > best or (val == best and partial < best_enc):
                best, best_enc = val, partial
            return
        for combo, em, cm, disp, qv, p in cand[j]:
            if (em & used) or (cm & cellused):
                continue
            bound = base_q + qv + lam * (disp_acc + disp) + suffix[j + 1]
            if bound + 1e-12 * bound < best:  # a bound this close may be a tie's
                continue
            dfs(j + 1, used | em, cellused | cm, union | p, disp_acc + disp,
                partial + (combo,))

    dfs(0, 0, 0, set(), 0.0, ())
    return Solution(selected=best_enc), float(best)


def approximation_ratio(instance: Instance, solution: Solution,
                        reference: Solution) -> float:
    """Combined objective of the reference divided by that of the solution.

    With an optimal reference this is >= 1. A zero reference objective gives
    1.0; a zero solution objective against a positive reference gives inf.
    """
    alg = objective.combined_objective(instance, solution).combined
    ref = objective.combined_objective(instance, reference).combined
    if ref <= 0:
        return 1.0
    if alg <= 0:
        return math.inf
    return ref / alg


def replay_trace(instance: Instance, trace: SolveTrace) -> Solution:
    """Re-apply a trace's events from its start and return the end state."""
    if trace.init is not None:
        sets = [set(S) for S in trace.init]
    else:
        sets = [set() for _ in range(instance.m)]
    for e in trace.events:
        if e.kind in ("pair", "single"):
            for v in e.elements:
                sets[e.cluster].add(v)
        elif e.kind == "remove":
            for v in e.elements:
                sets[e.cluster].discard(v)
        elif e.kind == "swap":
            out, inn = e.elements
            sets[e.cluster].discard(out)
            sets[e.cluster].add(inn)
        else:
            raise ValueError(f"unknown trace event kind {e.kind!r}")
    return Solution.from_sets(sets)


_SOLVERS = {
    Algorithm.GP: solve_gp,
    Algorithm.GPA: solve_gpa,
    Algorithm.GELMS: solve_gelms,
    Algorithm.LSI: solve_lsi,
    Algorithm.LSG: solve_lsg,
    Algorithm.MC: solve_mc,
    Algorithm.RN: solve_rn,
}


def solve(instance: Instance, config: SolverConfig) -> tuple:
    """Dispatch to the configured solver; EXACT returns an empty trace."""
    algorithm = Algorithm(config.algorithm)
    if algorithm == Algorithm.EXACT:
        solution, _ = solve_exact(instance)
        return solution, SolveTrace("exact", [])
    return _SOLVERS[algorithm](instance, config)
