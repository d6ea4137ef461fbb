"""Objective evaluation: dispersion, combined quality + dispersion, gains.

Dispersion is always once-counted: each unordered pair inside a selection
contributes its distance exactly once. The combined objective is
quality(union) + lambda * sum of per-cluster dispersions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import geometry, quality as qual
from .model import Instance, Solution, available_elements, even_budget, _selected_sets


@dataclass
class ObjectiveValue:
    quality: float
    dispersion: float
    combined: float


def cluster_dispersion(oracle: geometry.DistanceOracle, S: Iterable[int]) -> float:
    """Sum of pairwise distances within one selection, each pair once."""
    ids = np.asarray(sorted(set(int(v) for v in S)), dtype=int)
    if ids.size < 2:
        return 0.0
    D = oracle.pairwise(ids)
    return float(D[np.triu_indices(ids.size, k=1)].sum())


def intra_dispersion(oracle: geometry.DistanceOracle, solution) -> float:
    """Sum of cluster_dispersion over all cluster selections."""
    if isinstance(solution, Solution):
        sets = solution.selected
    else:
        sets = solution
    return float(sum(cluster_dispersion(oracle, S) for S in sets))


def global_dispersion(oracle: geometry.DistanceOracle, selection) -> float:
    """Once-counted pairwise dispersion over the union of a solution.

    Accepts either a Solution (its union is used) or an iterable of ids.
    Cluster structure is ignored; cross-cluster pairs count too.
    """
    if isinstance(selection, Solution):
        ids = selection.union()
    else:
        ids = selection
    return cluster_dispersion(oracle, ids)


def combined_objective(instance: Instance, solution) -> ObjectiveValue:
    """Evaluate quality(union) + lambda * intra dispersion of a solution.

    Parameters
    ----------
    instance : Instance
    solution : Solution or sequence of per-cluster id collections

    Returns
    -------
    ObjectiveValue with quality, dispersion and combined fields.
    """
    if not isinstance(solution, Solution):
        solution = Solution.from_sets(solution)
    oracle = instance.oracle()
    disp = intra_dispersion(oracle, solution)
    quality = qual.value(instance.quality, solution.union())
    return ObjectiveValue(
        quality=quality,
        dispersion=disp,
        combined=quality + instance.lam * disp,
    )


def _require_feasible_pair(instance: Instance, partial, cluster_id: int,
                           u: int, v: int) -> None:
    if u == v:
        raise ValueError("a pair needs two distinct elements")
    avail = set(available_elements(instance, partial, cluster_id))
    if u not in avail or v not in avail:
        missing = u if u not in avail else v
        raise ValueError(
            f"element {missing} is not available for cluster {cluster_id}")
    cells = instance.cell_of()
    if int(cells[u]) == int(cells[v]):
        raise ValueError(
            f"elements {u} and {v} share partition cell {int(cells[u])}")


def pair_score(marginal, lam: float, weight, dist):
    """Score of candidate pairs: marginal + lam * (weight - 1) * dist.

    marginal is the pair's joint quality marginal and weight the pair weight
    of the receiving cluster: its budget b rounded up to even, b', with a
    quality function, and b itself with dispersion alone, which scores as
    pair_score(0.0, 1.0, b, dist). Works elementwise on arrays; the product
    is formed as (lam * (weight - 1)) * dist.
    """
    return marginal + lam * (weight - 1) * dist


def pair_gain_dispersion(instance: Instance, partial, cluster_id: int,
                         u: int, v: int) -> float:
    """Greedy pair weight (b_j - 1) * d(u, v) for a feasible pair, as
    pair_score(0.0, 1.0, b_j, d(u, v)).

    Raises ValueError when {u, v} cannot be added to the cluster under the
    partial solution (unavailable element, shared cell, or u == v).
    """
    _require_feasible_pair(instance, partial, cluster_id, u, v)
    return pair_score(0.0, 1.0, instance.clusters[cluster_id].budget,
                      instance.oracle().distance(u, v))


def pair_gain_combined(instance: Instance, partial, cluster_id: int,
                       u: int, v: int) -> float:
    """Combined greedy pair weight for quality + dispersion instances.

    Equals pair_score(joint quality marginal of {u, v} over the current
    union, lambda, b', d(u, v)) = marginal + lambda * (b' - 1) * d(u, v) with
    b' = model.even_budget(b_j), b_j rounded up to even: the score the
    pair-based solvers maximize, bit for bit. With zero quality and lambda 1
    it equals pair_gain_dispersion for even budgets. Validation matches
    pair_gain_dispersion.
    """
    _require_feasible_pair(instance, partial, cluster_id, u, v)
    sets = _selected_sets(partial, instance.m)
    union = set().union(*sets) if sets else set()
    return pair_score(qual.marginal_pair(instance.quality, union, u, v), instance.lam,
                      even_budget(instance.clusters[cluster_id].budget),
                      instance.oracle().distance(u, v))


def removal_measure(instance: Instance, ordered_selection: Sequence,
                    element: int, lam: float | None = None) -> float:
    """Contribution measure of one selected element.

    ordered_selection is the chronological list of (element, cluster_id)
    additions. The measure of element v is its quality marginal over the
    elements selected strictly before it, plus lambda times the sum of
    distances from v to the other elements selected in v's cluster.

    Summed over every selected element this equals quality(union) plus
    2 * lambda * intra dispersion, because each intra-cluster pair is seen
    from both endpoints. lam overrides the instance's lambda.
    """
    if lam is None:
        lam = instance.lam
    idx = None
    for i, (v, _) in enumerate(ordered_selection):
        if v == element:
            idx = i
            break
    if idx is None:
        raise ValueError(f"element {element} is not in the ordered selection")
    cluster_id = ordered_selection[idx][1]
    prefix = [v for v, _ in ordered_selection[:idx]]
    peers = [v for v, c in ordered_selection if c == cluster_id and v != element]
    oracle = instance.oracle()
    return qual.marginal(instance.quality, prefix, element) + lam * geometry.set_distance_sum(
        oracle, element, peers)
