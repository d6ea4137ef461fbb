"""Instance, solution, feasibility, saturation."""

import dataclasses

import numpy as np
import pytest

from divmax import (Cluster, GenSpec, Instance, QualityFunction, Solution, TightDistances,
                    available_elements, gen_tight, is_feasible, is_saturated,
                    min_coverage_filter, validate_instance)


def line_instance(budgets=(2, 2), partition=None, lam=1.0, quality=None):
    pts = np.array([[0.0], [1.0], [2.0], [3.0]])
    clusters = [Cluster(id=j, members=(0, 1, 2, 3), budget=b)
                for j, b in enumerate(budgets)]
    return Instance(n=4, feature_kind="points", features=pts, clusters=clusters,
                    metric="euclidean", partition=partition, lam=lam,
                    quality=quality or QualityFunction.zero())


def test_cluster_normalizes_members():
    c = Cluster(id=0, members=(3, 1, 1, 2), budget=2)
    assert c.members == (1, 2, 3)


def test_validate_ok():
    assert validate_instance(line_instance()) == []


def test_validate_member_out_of_range():
    inst = line_instance()
    inst.clusters[0] = Cluster(id=0, members=(0, 4), budget=2)
    report = validate_instance(inst)
    assert any(v.kind == "schema" and "outside" in v.message for v in report)


def test_validate_negative_lambda():
    report = validate_instance(line_instance(lam=-1.0))
    assert any(v.where == "lambda" for v in report)


def test_validate_negative_modular_weight():
    # a negative weight makes the quality non-monotone
    report = validate_instance(line_instance(
        quality=QualityFunction.modular([1.0, -5.0, 1.0, 1.0])))
    assert [(v.kind, v.where) for v in report] == [("quality", "quality.weights")]
    assert "weight 1" in report[0].message
    assert validate_instance(line_instance(
        quality=QualityFunction.modular([0.0, 5.0, 1.0, 1.0]))) == []


def test_validate_asymmetric_matrix():
    M = np.array([[0.0, 1.0], [2.0, 0.0]])
    inst = Instance(n=2, feature_kind="matrix", features=None, distance_matrix=M,
                    clusters=[Cluster(id=0, members=(0, 1), budget=1)], metric="matrix")
    report = validate_instance(inst)
    assert any(v.kind == "metric" and "asymmetric" in v.message for v in report)


def _triangle_reference(M, n):
    """The sampled triangle test, one triple at a time in sample order."""
    trips = np.random.default_rng(0).integers(0, n, size=(10 * n, 3))
    for u, v, w in trips:
        duw, duv, dvw = M[u, w], M[u, v], M[v, w]
        if duw > duv + dvw + 1e-9:
            return (f"triangle inequality fails on ({u}, {v}, {w}): "
                    f"{duw:.9g} > {duv:.9g} + {dvw:.9g}")
    return None


def test_validate_triangle_violation_matches_reference_loop():
    X = np.random.default_rng(4).random((40, 2))
    M = ((X[:, None] - X[None]) ** 2).sum(axis=2)  # squared euclidean
    inst = Instance(n=40, feature_kind="matrix", features=None, distance_matrix=M,
                    clusters=[Cluster(id=0, members=range(40), budget=2)], metric="matrix")
    want = _triangle_reference(M, 40)
    assert want is not None
    assert [(v.kind, v.message) for v in validate_instance(inst)] == [("metric", want)]
    dense, _, _ = gen_tight(GenSpec(family="tight", q=3))
    structural = dataclasses.replace(dense, distance_matrix=TightDistances(3, 1e-6))
    assert validate_instance(dense) == [] and validate_instance(structural) == []


def test_oracle_leaves_the_callers_matrix_alone():
    M = np.array([[0.5, 1.0], [1.0, 0.0]])
    inst = Instance(n=2, feature_kind="matrix", features=None, distance_matrix=M,
                    clusters=[Cluster(id=0, members=(0, 1), budget=1)], metric="matrix")
    before = [v.message for v in validate_instance(inst)]
    assert before == ["nonzero diagonal at (0, 0)"]
    assert inst.oracle().distance(0, 0) == 0.0
    assert [v.message for v in validate_instance(inst)] == before
    assert M[0, 0] == 0.5
    # a valid float matrix is used as it is, without a copy
    Z = np.array([[0.0, 1.0], [1.0, 0.0]])
    inst = Instance(n=2, feature_kind="matrix", features=None, distance_matrix=Z,
                    clusters=[Cluster(id=0, members=(0, 1), budget=1)], metric="matrix")
    assert np.shares_memory(inst.oracle()._cache, Z)


def test_validate_budget_type():
    inst = line_instance()
    inst.clusters[0] = Cluster(id=0, members=(0, 1), budget=-1)
    report = validate_instance(inst)
    assert any("budget" in v.where for v in report)


def test_empty_solution_feasible():
    inst = line_instance()
    assert is_feasible(inst, Solution.from_sets([set(), set()])) == []


def test_disjointness_violation():
    inst = line_instance()
    report = is_feasible(inst, Solution.from_sets([{0, 1}, {1, 2}]))
    assert any(v.kind == "overlap" for v in report)


def test_membership_violation():
    inst = line_instance()
    inst.clusters[0] = Cluster(id=0, members=(0, 1), budget=2)
    report = is_feasible(inst, Solution.from_sets([{2}, {3}]))
    assert any(v.kind == "membership" for v in report)


def test_budget_violation():
    inst = line_instance(budgets=(1, 2))
    report = is_feasible(inst, Solution.from_sets([{0, 1}, {2}]))
    assert any(v.kind == "budget" for v in report)


def test_partition_cell_violation():
    # elements 0 and 1 share a cell; selecting both anywhere is infeasible
    inst = line_instance(partition=[0, 0, 1, 2])
    report = is_feasible(inst, Solution.from_sets([{0}, {1}]))
    assert any(v.kind == "cell" for v in report)
    assert is_feasible(inst, Solution.from_sets([{0}, {2}])) == []


def test_solution_shape_mismatch_raises():
    inst = line_instance()
    with pytest.raises(ValueError):
        is_feasible(inst, Solution.from_sets([{0}]))


def test_available_no_exclusions():
    inst = line_instance()
    assert available_elements(inst, [set(), set()], 0) == [0, 1, 2, 3]


def test_available_excludes_taken():
    inst = line_instance()
    assert available_elements(inst, [set(), {1}], 0) == [0, 2, 3]


def test_available_excludes_cellmates():
    inst = line_instance(partition=[0, 0, 1, 1])
    # 0 selected: 1 shares its cell, 2 selected: 3 shares that cell
    assert available_elements(inst, [{0}, {2}], 1) == []
    assert available_elements(inst, [{0}, set()], 1) == [2, 3]


def test_saturated_budget_exhausted():
    inst = line_instance(budgets=(4, 2))
    assert is_saturated(inst, [{0, 1, 2, 3}, set()], 0)
    assert not is_saturated(inst, [{0, 1, 2}, set()], 0)


def test_saturated_pair_mode_rounds_down():
    pts = np.arange(6, dtype=float).reshape(-1, 1)
    inst = Instance(n=6, feature_kind="points", features=pts,
                    clusters=[Cluster(id=0, members=tuple(range(6)), budget=5)],
                    metric="euclidean")
    assert is_saturated(inst, [{0, 1, 2, 3}], 0, pair_mode=True)
    assert not is_saturated(inst, [{0, 1, 2, 3}], 0)


def test_saturated_no_feasible_pair_left():
    inst = line_instance(budgets=(4, 4))
    # three of four taken elsewhere: only one candidate remains
    assert is_saturated(inst, [{3}, {0, 1}], 0, pair_mode=True)


def test_solution_helpers():
    s = Solution.from_sets([{3, 1}, {2}])
    assert s.selected == ((1, 3), (2,))
    assert s.union() == [1, 2, 3]
    assert s.fills() == [2, 1]


def test_trivial_partition_matches_disjointness():
    rng = np.random.default_rng(41)
    pts = rng.random((8, 2))
    clusters = [Cluster(id=0, members=tuple(range(8)), budget=3),
                Cluster(id=1, members=(0, 2, 4, 6), budget=2)]
    explicit = Instance(n=8, feature_kind="points", features=pts, clusters=clusters,
                        metric="euclidean", partition=list(range(8)))
    implicit = Instance(n=8, feature_kind="points", features=pts, clusters=clusters,
                        metric="euclidean")
    for _ in range(100):
        a = set(int(x) for x in rng.choice(8, size=2, replace=False))
        b = set(int(x) for x in rng.choice([0, 2, 4, 6], size=2, replace=False))
        sol = Solution.from_sets([a, b])
        va = [v.kind for v in is_feasible(explicit, sol)]
        vb = [v.kind for v in is_feasible(implicit, sol)]
        # cell violations under singleton cells coincide with overlaps
        assert (len(va) == 0) == (len(vb) == 0)


def test_min_coverage_filter():
    covers = [frozenset({1, 2, 3}), frozenset({1}), frozenset(), frozenset({4, 5})]
    pts = np.arange(4, dtype=float).reshape(-1, 1)
    inst = Instance(n=4, feature_kind="points", features=pts,
                    clusters=[Cluster(id=0, members=(0, 1, 2, 3), budget=2)],
                    metric="euclidean", quality=QualityFunction.coverage(covers))
    out = min_coverage_filter(inst, 2)
    assert out.clusters[0].members == (0, 3)
    same = min_coverage_filter(inst, None)
    assert same.clusters[0].members == (0, 1, 2, 3)
