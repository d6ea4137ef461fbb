"""Instance generators: random, prototype, the two-sided chain and the
greedy-adversarial family with known reference solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Cluster, Instance, Solution
from .quality import QualityFunction


@dataclass
class GenSpec:
    """Parameters for the generator families.

    family: "random" | "prototype" | "fig1" | "tight".
    n, dim, m, budgets, overlap, spread apply to random/prototype;
    D to fig1; q and eps to tight. budgets may be an int (shared by all
    clusters) or a per-cluster list.
    """

    family: str = "random"
    n: int = 100
    dim: int = 2
    m: int = 5
    budgets: object = 2
    overlap: int = 1
    spread: float = 0.1
    D: float = 10.0
    q: int = 2
    eps: float = 1e-6
    seed: int = 0


def _budget_list(spec: GenSpec, m: int) -> list:
    if isinstance(spec.budgets, (int, np.integer)):
        return [int(spec.budgets)] * m
    budgets = [int(b) for b in spec.budgets]
    if len(budgets) != m:
        raise ValueError(f"budgets must be one value or {m} values, got {len(budgets)}")
    return budgets


def check_spec(spec: GenSpec, family: str | None = None) -> GenSpec:
    """spec, once the parameters that family (spec.family by default) reads
    are in range; ValueError names the first that is not. random and
    prototype need n, m and dim >= 1 and nonnegative budgets, one shared or
    one per cluster; random needs an overlap in [1, m] and prototype a
    finite spread >= 0; fig1 needs a finite D; tight needs q >= 2 and a
    finite eps >= 0. generate and each generator check their spec here
    first."""
    family = spec.family if family is None else family
    if family not in _FAMILIES:
        raise ValueError(f"family must be one of {', '.join(sorted(_FAMILIES))}, "
                         f"got {family!r}")
    if family in ("random", "prototype"):
        for name in ("n", "m", "dim"):
            if getattr(spec, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(spec, name)!r}")
        if min(_budget_list(spec, spec.m)) < 0:
            raise ValueError(f"budgets must be >= 0, got {spec.budgets!r}")
        if family == "random" and not 1 <= spec.overlap <= spec.m:
            raise ValueError(f"overlap must be in [1, m = {spec.m}], got {spec.overlap!r}")
        if family == "prototype" and not 0 <= spec.spread < math.inf:
            raise ValueError(f"spread must be finite and >= 0, got {spec.spread!r}")
    elif family == "fig1":
        if not math.isfinite(spec.D):
            raise ValueError(f"D must be finite, got {spec.D!r}")
    elif family == "tight":
        if spec.q < 2:
            raise ValueError(f"q must be >= 2, got {spec.q!r}")
        if not 0 <= spec.eps < math.inf:
            raise ValueError(f"eps must be finite and >= 0, got {spec.eps!r}")
    return spec


def gen_random(spec: GenSpec) -> Instance:
    """Uniform points in the unit cube with random cluster memberships.

    Each element joins `overlap` distinct clusters chosen uniformly; empty
    clusters are topped up with a random element so every cluster is
    non-empty. Euclidean metric, zero quality, lambda 1.
    """
    check_spec(spec, "random")
    rng = np.random.default_rng(spec.seed)
    pts = rng.random((spec.n, spec.dim))
    memberships = [
        set(rng.choice(spec.m, size=spec.overlap, replace=False).tolist())
        for _ in range(spec.n)
    ]
    members = [[] for _ in range(spec.m)]
    for v, js in enumerate(memberships):
        for j in js:
            members[j].append(v)
    for j in range(spec.m):
        if not members[j]:
            members[j].append(int(rng.integers(spec.n)))
    budgets = _budget_list(spec, spec.m)
    clusters = [Cluster(j, tuple(members[j]), budgets[j]) for j in range(spec.m)]
    return Instance(
        n=spec.n, feature_kind="vector", features=pts, clusters=clusters,
        metric="euclidean", lam=1.0, quality=QualityFunction.zero(),
    )


def gen_prototype(spec: GenSpec) -> Instance:
    """Gaussian blobs around m prototype centers.

    Each element is sampled near one center and belongs to that cluster and
    to the cluster of its nearest center; as spread shrinks the two coincide
    and the clusters stop overlapping.
    """
    check_spec(spec, "prototype")
    rng = np.random.default_rng(spec.seed)
    centers = rng.random((spec.m, spec.dim))
    home = rng.integers(0, spec.m, size=spec.n)
    pts = centers[home] + rng.normal(0.0, spec.spread, size=(spec.n, spec.dim))
    members = [[] for _ in range(spec.m)]
    for v in range(spec.n):
        nearest = int(np.argmin(np.linalg.norm(centers - pts[v], axis=1)))
        for j in {int(home[v]), nearest}:
            members[j].append(v)
    for j in range(spec.m):
        if not members[j]:
            members[j].append(int(rng.integers(spec.n)))
    budgets = _budget_list(spec, spec.m)
    clusters = [Cluster(j, tuple(members[j]), budgets[j]) for j in range(spec.m)]
    return Instance(
        n=spec.n, feature_kind="vector", features=pts, clusters=clusters,
        metric="euclidean", lam=1.0, quality=QualityFunction.zero(),
    )


def gen_fig1(spec: GenSpec) -> Instance:
    """Three far chains sharing their near endpoints with one small cluster.

    Seven elements: three elements o1, o2, o3 (ids 0..2) on a tiny triangle
    near the origin, a center element r (id 3), and three far elements h_i
    (ids 4..6) at x = i * D. Cluster j in {0, 1, 2} is {o_j, h_j} with budget
    2; cluster 3 is {o1, o2, o3, r} with budget 3. A cluster-by-cluster
    greedy that serves cluster 3 first spends the shared o elements there and
    strands every far pair, so its dispersion stays bounded while the best
    solution grows linearly in D.
    """
    D = float(check_spec(spec, "fig1").D)
    r0 = 0.2
    ang = np.deg2rad([90.0, 210.0, 330.0])
    pts = np.zeros((7, 2))
    pts[0] = (r0 * np.cos(ang[0]), r0 * np.sin(ang[0]))
    pts[1] = (r0 * np.cos(ang[1]), r0 * np.sin(ang[1]))
    pts[2] = (r0 * np.cos(ang[2]), r0 * np.sin(ang[2]))
    pts[3] = (0.0, 0.0)
    for i in (1, 2, 3):
        pts[3 + i] = (i * D, 0.0)
    clusters = [
        Cluster(0, (0, 4), 2),
        Cluster(1, (1, 5), 2),
        Cluster(2, (2, 6), 2),
        Cluster(3, (0, 1, 2, 3), 3),
    ]
    return Instance(
        n=7, feature_kind="vector", features=pts, clusters=clusters,
        metric="euclidean", lam=1.0, quality=QualityFunction.zero(),
    )


class TightDistances:
    """Structured distance matrix of the greedy-adversarial family.

    Supports the same indexing the solvers use on dense matrices: scalar
    [i, j], row [i, id_array] and block [np.ix_(ids, ids)] lookups, without
    materializing the n x n array. Element roles are encoded per id:
    hub pairs (2 per hub cluster), the 2q clique elements of the big cluster,
    and per hub cluster a pool of 2q - 2 "optimal fill" members at mutual
    distance 0 plus a pool of 2q "adversarial fill" members at mutual eps.
    """

    HUB, AMEM, BMEM, CLIQUE = 0, 1, 2, 3

    def __init__(self, q: int, eps: float):
        self.q = int(q)
        self.eps = float(eps)
        n = 4 * q * q + 2 * q
        self.n = n
        self.shape = (n, n)
        group = np.empty(n, dtype=np.int8)
        cidx = np.empty(n, dtype=np.int64)
        group[: 2 * q] = self.HUB
        cidx[: 2 * q] = np.repeat(np.arange(q), 2)
        group[2 * q: 4 * q] = self.CLIQUE
        cidx[2 * q: 4 * q] = q
        base = 4 * q
        block = 4 * q - 2
        for j in range(q):
            lo = base + j * block
            group[lo: lo + 2 * q - 2] = self.AMEM
            group[lo + 2 * q - 2: lo + block] = self.BMEM
            cidx[lo: lo + block] = j
        self.group = group
        self.cidx = cidx

    def _block(self, ia, ib):
        ga = self.group[ia]
        gb = self.group[ib]
        ca = self.cidx[ia]
        cb = self.cidx[ib]
        eps = self.eps
        D = np.full(np.broadcast_shapes(np.shape(ga), np.shape(gb)), 2.0)
        hub_a = ga == self.HUB
        hub_b = gb == self.HUB
        cl_a = ga == self.CLIQUE
        cl_b = gb == self.CLIQUE
        same = ca == cb
        both_hub = hub_a & hub_b
        D[both_hub & ~same] = 1.0 + eps
        D[both_hub & same] = 2.0 + eps
        D[(hub_a & cl_b) | (cl_a & hub_b)] = 1.0 + eps
        mem_a = (ga == self.AMEM) | (ga == self.BMEM)
        mem_b = (gb == self.AMEM) | (gb == self.BMEM)
        both_mem_same = mem_a & mem_b & same
        D[both_mem_same] = eps
        D[both_mem_same & (ga == self.AMEM) & (gb == self.AMEM)] = 0.0
        D[np.equal(ia, ib)] = 0.0
        return D

    def __getitem__(self, key):
        a, b = key
        scalar = isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer))
        ia = np.asarray(a, dtype=int)
        ib = np.asarray(b, dtype=int)
        D = self._block(ia, ib)
        if scalar:
            return float(D)
        return D

    def densify(self) -> np.ndarray:
        ids = np.arange(self.n)
        return self[np.ix_(ids, ids)]


def tight_reference_values(q: int, eps: float) -> tuple:
    """Closed-form objectives of the two reference solutions: (optimal,
    adversarial)."""
    opt = q * (12.0 * q - 8.0 + eps)
    adv = q * (2.0 * q + (q + 1.0) * (2.0 * q - 1.0) * eps)
    return opt, adv


def gen_tight(spec: GenSpec) -> tuple:
    """Family on which greedy pairs approach their worst-case factor.

    q hub clusters each hold two hubs at distance 2 + eps plus fill pools;
    one big cluster holds all 2q hubs (same-cluster hub pairs keep their
    2 + eps edge, the rest is 1 + eps) together with a 2q-clique at mutual
    distance 2. All budgets are 2q. Greedy pair scores tie so that spending
    the hubs inside the big cluster is a legal greedy outcome, while the
    reference optimum keeps each hub pair at home.

    Returns (instance, adversarial_solution, optimal_solution); the two
    solutions evaluate exactly to tight_reference_values(q, eps) and their
    ratio approaches 6 as q grows and eps vanishes.
    """
    q = int(check_spec(spec, "tight").q)
    eps = float(spec.eps)
    tight = TightDistances(q, eps)
    n = tight.n
    base = 4 * q
    block = 4 * q - 2
    clusters = []
    adv_sets = []
    opt_sets = []
    for j in range(q):
        lo = base + j * block
        amem = list(range(lo, lo + 2 * q - 2))
        bmem = list(range(lo + 2 * q - 2, lo + block))
        members = tuple([2 * j, 2 * j + 1] + amem + bmem)
        clusters.append(Cluster(j, members, 2 * q))
        adv_sets.append(set(bmem))
        opt_sets.append({2 * j, 2 * j + 1} | set(amem))
    clusters.append(Cluster(q, tuple(range(4 * q)), 2 * q))
    adv_sets.append(set(range(2 * q)))  # all hubs land in the big cluster
    opt_sets.append(set(range(2 * q, 4 * q)))  # the clique
    matrix = tight.densify() if n <= 4096 else tight
    inst = Instance(
        n=n, feature_kind="vector", features=None, clusters=clusters,
        metric="matrix", distance_matrix=matrix, lam=1.0,
        quality=QualityFunction.zero(),
    )
    return inst, Solution.from_sets(adv_sets), Solution.from_sets(opt_sets)


_FAMILIES = {
    "random": gen_random,
    "prototype": gen_prototype,
    "fig1": gen_fig1,
    "tight": gen_tight,
}


def generate(spec: GenSpec):
    """Dispatch on spec.family once check_spec passes; tight returns
    (instance, adv, opt)."""
    return _FAMILIES[check_spec(spec).family](spec)
