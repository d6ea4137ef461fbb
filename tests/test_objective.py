"""Objective evaluation, greedy pair gains, removal measure."""

import numpy as np
import pytest

from divmax import (Cluster, DistanceOracle, Instance, QualityFunction, Solution,
                    cluster_dispersion, combined_objective, global_dispersion,
                    intra_dispersion, pair_gain_combined, pair_gain_dispersion,
                    removal_measure)

K1 = frozenset({"s1", "s2"})
K2 = frozenset({"s2", "s3"})


def line_oracle():
    return DistanceOracle("euclidean", features=np.array([[0.0], [1.0], [2.0], [3.0]]))


def test_cluster_dispersion_small():
    oracle = DistanceOracle("euclidean", features=np.array([[0.0], [1.0], [3.0]]))
    assert cluster_dispersion(oracle, [0, 1, 2]) == pytest.approx(6.0)
    assert cluster_dispersion(oracle, [2]) == 0.0
    assert cluster_dispersion(oracle, []) == 0.0


def test_cluster_dispersion_k4():
    M = np.full((4, 4), 2.0)
    np.fill_diagonal(M, 0.0)
    oracle = DistanceOracle("matrix", matrix=M)
    assert cluster_dispersion(oracle, [0, 1, 2, 3]) == pytest.approx(12.0)


def test_intra_dispersion_sums_clusters():
    oracle = line_oracle()
    assert intra_dispersion(oracle, Solution.from_sets([{0, 1}, {2, 3}])) == pytest.approx(2.0)
    assert intra_dispersion(oracle, Solution.from_sets([set(), set()])) == 0.0
    assert intra_dispersion(oracle, Solution.from_sets([{0, 2}, {1, 3}])) == pytest.approx(4.0)


def test_global_dispersion_counts_cross_pairs():
    M = np.array([[0.0, 5.0], [5.0, 0.0]])
    oracle = DistanceOracle("matrix", matrix=M)
    sol = Solution.from_sets([{0}, {1}])
    assert intra_dispersion(oracle, sol) == 0.0
    assert global_dispersion(oracle, sol) == pytest.approx(5.0)


def test_global_dispersion_matches_scan():
    rng = np.random.default_rng(13)
    pts = rng.random((12, 2))
    oracle = DistanceOracle("euclidean", features=pts)
    ids = [0, 2, 3, 5, 7, 8, 10, 11]
    want = sum(oracle.distance(a, b) for i, a in enumerate(ids) for b in ids[i + 1:])
    assert global_dispersion(oracle, ids) == pytest.approx(want)


def test_combined_objective_coverage_example():
    feats = [K1, K2]
    inst = Instance(n=2, feature_kind="sets", features=feats,
                    clusters=[Cluster(id=0, members=(0, 1), budget=2)],
                    metric="jaccard", lam=1.0,
                    quality=QualityFunction.coverage([K1, K2]))
    val = combined_objective(inst, Solution.from_sets([{0, 1}]))
    assert val.quality == pytest.approx(3.0)
    assert val.dispersion == pytest.approx(2.0 / 3.0)
    assert val.combined == pytest.approx(3.0 + 2.0 / 3.0)


def test_combined_objective_degenerate_lambdas():
    pts = np.array([[0.0], [2.0]])
    q = QualityFunction.modular([1.0, 1.0])
    inst0 = Instance(n=2, feature_kind="points", features=pts,
                     clusters=[Cluster(id=0, members=(0, 1), budget=2)],
                     metric="euclidean", lam=0.0, quality=q)
    sol = Solution.from_sets([{0, 1}])
    assert combined_objective(inst0, sol).combined == pytest.approx(2.0)
    inst1 = Instance(n=2, feature_kind="points", features=pts,
                     clusters=[Cluster(id=0, members=(0, 1), budget=2)],
                     metric="euclidean", lam=3.0)
    assert combined_objective(inst1, sol).combined == pytest.approx(6.0)


def test_pair_gain_dispersion():
    pts = np.array([[0.0], [3.0]])
    for b, d, want in ((2, 3.0, 3.0), (5, 3.0, 12.0)):
        inst = Instance(n=2, feature_kind="points", features=pts,
                        clusters=[Cluster(id=0, members=(0, 1), budget=b)],
                        metric="euclidean")
        assert pair_gain_dispersion(inst, [set()], 0, 0, 1) == pytest.approx(want)


def test_pair_gain_dispersion_b5_d2():
    M = np.array([[0.0, 2.0], [2.0, 0.0]])
    inst = Instance(n=2, feature_kind="matrix", features=None, distance_matrix=M,
                    clusters=[Cluster(id=0, members=(0, 1), budget=5)],
                    metric="matrix")
    assert pair_gain_dispersion(inst, [set()], 0, 0, 1) == pytest.approx(8.0)


def test_pair_gain_rejects_infeasible():
    pts = np.array([[0.0], [1.0], [2.0]])
    inst = Instance(n=3, feature_kind="points", features=pts,
                    clusters=[Cluster(id=0, members=(0, 1, 2), budget=2)],
                    metric="euclidean", partition=[0, 0, 1])
    with pytest.raises(ValueError):
        pair_gain_dispersion(inst, [set()], 0, 1, 1)
    with pytest.raises(ValueError):
        pair_gain_dispersion(inst, [set()], 0, 0, 1)  # shared cell
    with pytest.raises(ValueError):
        pair_gain_dispersion(inst, [{2}], 0, 1, 2)  # 2 already taken


def test_pair_gain_combined_example():
    feats = [K1, K2]
    inst = Instance(n=2, feature_kind="sets", features=feats,
                    clusters=[Cluster(id=0, members=(0, 1), budget=4)],
                    metric="jaccard", lam=1.0,
                    quality=QualityFunction.coverage([K1, K2]))
    # quality union 3, plus (4 - 1) * 2/3
    assert pair_gain_combined(inst, [set()], 0, 0, 1) == pytest.approx(5.0)


def test_pair_gain_combined_zero_quality():
    M = np.array([[0.0, 1.5], [1.5, 0.0]])
    inst = Instance(n=2, feature_kind="matrix", features=None, distance_matrix=M,
                    clusters=[Cluster(id=0, members=(0, 1), budget=2)],
                    metric="matrix", lam=1.0)
    # (2 - 1) * 1.5, the same as the dispersion-only pair weight
    assert pair_gain_combined(inst, [set()], 0, 0, 1) == pytest.approx(1.5)
    assert pair_gain_combined(inst, [set()], 0, 0, 1) == \
        pair_gain_dispersion(inst, [set()], 0, 0, 1)


def test_pair_gain_combined_lambda_zero_is_marginal_pair():
    feats = [K1, K2]
    inst = Instance(n=2, feature_kind="sets", features=feats,
                    clusters=[Cluster(id=0, members=(0, 1), budget=4)],
                    metric="jaccard", lam=0.0,
                    quality=QualityFunction.coverage([K1, K2]))
    assert pair_gain_combined(inst, [set()], 0, 0, 1) == pytest.approx(3.0)


def test_removal_measure_example():
    # modular weight 2 on the removed element, peers at distances 1 and 3
    pts = np.array([[0.0], [1.0], [3.0]])
    q = QualityFunction.modular([2.0, 0.0, 0.0])
    inst = Instance(n=3, feature_kind="points", features=pts,
                    clusters=[Cluster(id=0, members=(0, 1, 2), budget=3)],
                    metric="euclidean", lam=1.0, quality=q)
    order = [(1, 0), (2, 0), (0, 0)]
    assert removal_measure(inst, order, 0) == pytest.approx(6.0)


def test_removal_measure_singleton_zero():
    pts = np.array([[0.0], [1.0]])
    inst = Instance(n=2, feature_kind="points", features=pts,
                    clusters=[Cluster(id=0, members=(0, 1), budget=1)],
                    metric="euclidean")
    assert removal_measure(inst, [(0, 0)], 0) == 0.0


def test_removal_measure_sum_identity():
    """Summing the measure over a selection reproduces quality plus twice
    the once-counted dispersion, exactly, on integer data."""
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(4, 9))
        W = rng.integers(0, 5, size=(n, n)).astype(float)
        M = np.triu(W, 1) + np.triu(W, 1).T
        q = QualityFunction.modular(rng.integers(0, 4, size=n).astype(float))
        m = int(rng.integers(1, 3))
        clusters = []
        for j in range(m):
            mem = tuple(sorted(rng.choice(n, size=int(rng.integers(2, n + 1)),
                                          replace=False).tolist()))
            clusters.append(Cluster(id=j, members=mem, budget=len(mem)))
        inst = Instance(n=n, feature_kind="matrix", features=None, distance_matrix=M,
                        clusters=clusters, metric="matrix", lam=1.0, quality=q)
        taken = set()
        order = []
        for j, c in enumerate(clusters):
            free = [v for v in c.members if v not in taken]
            rng.shuffle(free)
            for v in free[:int(rng.integers(0, len(free) + 1))]:
                order.append((v, j))
                taken.add(v)
        total = sum(removal_measure(inst, order, v) for v, _ in order)
        sets = [set() for _ in range(m)]
        for v, j in order:
            sets[j].add(v)
        val = combined_objective(inst, Solution.from_sets(sets))
        assert total == val.quality + 2.0 * val.dispersion
