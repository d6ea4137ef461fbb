"""Distance oracle and diameter helpers."""

import numpy as np
import pytest

from divmax import DistanceOracle, set_distance_sum, exact_diameter, approx_diameter
from divmax.geometry import CHUNK_ROWS, HOT_ITEMS
from divmax.instgen import TightDistances


def test_euclidean_pythagoras():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    oracle = DistanceOracle("euclidean", features=pts)
    assert oracle.distance(0, 1) == pytest.approx(5.0)
    assert oracle.distance(0, 0) == 0.0


def test_jaccard_two_thirds():
    # u={s1,s2}, v={s2,s3}: intersection 1, union 3
    feats = [frozenset({"s1", "s2"}), frozenset({"s2", "s3"})]
    oracle = DistanceOracle("jaccard", features=feats)
    assert oracle.distance(0, 1) == pytest.approx(2.0 / 3.0)
    assert oracle.distance(1, 1) == 0.0


def test_jaccard_empty_sets():
    feats = [frozenset(), frozenset(), frozenset({"a"})]
    oracle = DistanceOracle("jaccard", features=feats)
    assert oracle.distance(0, 1) == 0.0
    assert oracle.distance(0, 2) == 1.0


def test_cosine_requires_unit_norm():
    pts = np.array([[1.0, 0.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        DistanceOracle("cosine", features=pts)


def test_cosine_orthogonal():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    oracle = DistanceOracle("cosine", features=pts)
    assert oracle.distance(0, 1) == pytest.approx(1.0)
    assert oracle.distance(0, 2) == pytest.approx(2.0)


def test_matrix_mode_roundtrips_euclidean():
    rng = np.random.default_rng(3)
    pts = rng.random((12, 3))
    euc = DistanceOracle("euclidean", features=pts)
    mat = DistanceOracle("matrix", matrix=euc.pairwise(np.arange(12)))
    for u in range(12):
        for v in range(12):
            assert abs(euc.distance(u, v) - mat.distance(u, v)) < 1e-12


def test_cached_and_on_demand_agree():
    rng = np.random.default_rng(5)
    pts = rng.random((30, 4))
    cached = DistanceOracle("euclidean", features=pts)
    lazy = DistanceOracle("euclidean", features=pts, cache_limit=0)
    ids = np.array([2, 7, 11, 29])
    assert np.allclose(cached.pairwise(ids), lazy.pairwise(ids))
    assert np.allclose(cached.row(7, ids), lazy.row(7, ids))
    # Jaccard over int and string items with empty sets: equal to the last bit
    sets = [rng.choice(9, size=int(rng.integers(0, 5)), replace=False).tolist()
            for _ in range(30)]
    sets = [[f"s{x}" if x % 2 else x for x in s] for s in sets] + [[], []]
    cached = DistanceOracle("jaccard", features=sets)
    lazy = DistanceOracle("jaccard", features=sets, cache_limit=0)
    ids = np.array([2, 7, 11, 29, 30, 31])
    assert np.array_equal(cached.pairwise(ids), lazy.pairwise(ids))
    for u in ids:
        assert np.array_equal(cached.row(int(u), ids), lazy.row(int(u), ids))
    for u in range(32):
        for v in range(32):
            want = len(set(sets[u]) & set(sets[v])) / max(len(set(sets[u]) | set(sets[v])), 1)
            assert cached.distance(u, v) == lazy.distance(u, v) == (
                1.0 - want if sets[u] or sets[v] else 0.0)


def _set_families(seed: int) -> dict:
    """Seeded item-set families that reach each branch of the Jaccard cache build."""
    rng = np.random.default_rng(seed)
    n = 2 * CHUNK_ROWS + 37  # three row chunks, the last one short
    zipf = 1.0 / (np.arange(5 * HOT_ITEMS) + 10.0)
    zipf /= zipf.sum()

    def draw(vocab: int, low: int, high: int, replace=False, p=None) -> list:
        return [rng.choice(vocab, size=int(k), replace=replace, p=p).tolist()
                for k in rng.integers(low, high + 1, size=n)]

    every_hot = draw(HOT_ITEMS, 1, 12)
    every_hot[0] = list(range(HOT_ITEMS))  # exactly HOT_ITEMS distinct items
    return {
        "empty sets": draw(zipf.size, 0, 6, p=zipf),
        "repeated items": draw(zipf.size, 1, 30, replace=True, p=zipf),
        "fewer items than the cut": draw(HOT_ITEMS // 3, 0, 8),
        "every item hot": every_hot,
        "strings and ints": [[f"s{x}" if x % 3 else x for x in s]
                             for s in draw(zipf.size, 0, 25, p=zipf)],
    }


def test_jaccard_cache_equals_uncached_rows():
    families = _set_families(59)
    assert not all(map(len, families["empty sets"]))
    for name, sets in families.items():
        cached = DistanceOracle("jaccard", features=sets)
        lazy = DistanceOracle("jaccard", features=sets, cache_limit=0)
        ids = np.arange(len(sets))
        got, want = cached.rows(ids, ids), lazy.rows(ids, ids)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name


def _every_mode(n: int, seed: int) -> list:
    """One oracle per metric and feature kind, each cached and on demand."""
    rng = np.random.default_rng(seed)
    kinds = []
    for dim in (2, 10):
        pts = rng.random((n, dim))
        unit = (pts - 0.5) / np.linalg.norm(pts - 0.5, axis=1)[:, None]
        kinds += [("euclidean", dict(features=pts)), ("cosine", dict(features=unit))]
    sets = [rng.choice(12, size=int(rng.integers(0, 5)), replace=False).tolist()
            for _ in range(n)]
    kinds.append(("jaccard", dict(features=sets)))
    M = rng.random((n, n))
    kinds.append(("matrix", dict(matrix=M + M.T)))
    kinds.append(("matrix", dict(matrix=TightDistances(q=4, eps=1e-6))))  # n = 72
    return [DistanceOracle(metric, cache_limit=limit, **kw)
            for metric, kw in kinds for limit in (4096, 0)]


def test_rows_equal_stacked_rows():
    rng = np.random.default_rng(37)
    for oracle in _every_mode(72, 41):
        pool = rng.choice(oracle.n, size=25, replace=False)  # draws overlap
        alone = {(u, v): oracle.row(u, [v])[0] for u in pool.tolist() for v in pool.tolist()}
        for ku in range(21):
            for ki in {0, 1, ku, 20 - ku, int(rng.integers(21))}:
                us = rng.choice(pool, size=ku, replace=False)
                ids = rng.choice(pool, size=ki)  # may repeat an id
                got = oracle.rows(us, ids)
                want = np.array([oracle.row(int(u), ids) for u in us]).reshape(ku, ki)
                assert got.shape == (ku, ki) and got.dtype == float
                assert got.flags.c_contiguous
                assert np.array_equal(got, want), (oracle.metric, us, ids)
                # one value per distance: read in either direction, or alone
                assert np.array_equal(got, oracle.rows(ids, us).T), (oracle.metric, us, ids)
                lone = np.array([[alone[u, v] for v in ids.tolist()] for u in us.tolist()])
                assert np.array_equal(got, lone.reshape(ku, ki)), (oracle.metric, us, ids)
        # every other read is stacked rows too, cached and on demand alike
        for ids in (pool, rng.choice(pool, size=25)):
            assert np.array_equal(oracle.pairwise(ids), oracle.rows(ids, ids)), oracle.metric
        got = [oracle.distance(int(u), int(v)) for u in pool for v in pool]
        assert got == list(alone.values()), oracle.metric
        for us, ids in (([0, oracle.n], [1]), ([0], [1, oracle.n]), ([-1], [0]), ([0], [-1])):
            with pytest.raises(IndexError):
                oracle.rows(us, ids)


@pytest.mark.parametrize("dim", [1, 3, 7, 8, 9, 16, 33, 127, 128, 129, 130, 300])
def test_euclidean_rows_kernel_equals_stacked_rows(dim):
    # rows sums one feature column at a time, in the order in which row's
    # reduction sums a row: one by one below 8 terms, 8 partial sums up to
    # 128, two halves above; the coordinates span many binades
    rng = np.random.default_rng(dim)
    pts = rng.normal(size=(5200, dim)) * 10.0 ** rng.integers(-3, 4, size=(5200, 1))
    oracle = DistanceOracle("euclidean", features=pts, cache_limit=0)
    short, long_ = rng.choice(5200, size=8, replace=False), rng.choice(5200, size=5000)
    both = np.concatenate([short[:3], rng.choice(5200, size=5)])
    cases = [(short, long_), (long_, short), (short, both), (both, both),
             (np.repeat(short[:2], 3), short), (short[:0], long_), (long_, short[:0]),
             (short[:0], short[:0])]
    for us, ids in cases:
        got = oracle.rows(us, ids)
        want = np.array([oracle.row(int(u), ids) for u in us]).reshape(us.size, ids.size)
        assert got.flags.c_contiguous and np.array_equal(got, want), (us.size, ids.size)
    block = oracle.rows(both, both)
    assert not block[both[:, None] == both[None, :]].any()  # an id on both sides reads 0


def test_every_read_rejects_out_of_range_ids():
    for oracle in _every_mode(72, 53):
        for bad in (-1, oracle.n):
            for read in (lambda: oracle.distance(0, bad), lambda: oracle.distance(bad, 0),
                         lambda: oracle.row(bad, [1]), lambda: oracle.row(0, [1, bad]),
                         lambda: oracle.pairwise([0, bad]), lambda: oracle.rows([0], [bad])):
                with pytest.raises(IndexError):
                    read()


def test_rows_sum_like_single_rows():
    # numpy sums a row of a C-contiguous block in the order of a 1-d sum
    rng = np.random.default_rng(43)
    for oracle in _every_mode(320, 47):
        for k in [k for k in list(range(1, 41)) + [64, 127, 128, 299] if k <= oracle.n]:
            peers = rng.choice(oracle.n, size=k, replace=False)
            ids = rng.choice(oracle.n, size=int(rng.integers(1, 30)), replace=False)
            want = np.array([oracle.row(int(v), peers).sum() for v in ids])
            assert np.array_equal(oracle.rows(ids, peers).sum(axis=1), want)


def test_set_distance_sum():
    pts = np.array([[0.0], [1.0], [3.0]])
    oracle = DistanceOracle("euclidean", features=pts)
    assert set_distance_sum(oracle, 0, [1, 2]) == pytest.approx(4.0)
    assert set_distance_sum(oracle, 0, []) == 0.0
    assert set_distance_sum(oracle, 1, [1]) == 0.0


def test_exact_diameter_line():
    pts = np.array([[0.0], [1.0], [10.0]])
    oracle = DistanceOracle("euclidean", features=pts)
    u, v, d = exact_diameter(oracle, [0, 1, 2])
    assert (u, v) == (0, 2)
    assert d == pytest.approx(10.0)


def test_exact_diameter_tie_is_lex_smallest():
    # equilateral triangle: all pairs tie at distance 1
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    oracle = DistanceOracle("euclidean", features=pts)
    u, v, _ = exact_diameter(oracle, [0, 1, 2])
    assert (u, v) == (0, 1)


def test_exact_diameter_needs_two():
    oracle = DistanceOracle("euclidean", features=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        exact_diameter(oracle, [1])


def test_exact_diameter_matches_scan():
    rng = np.random.default_rng(11)
    pts = rng.random((20, 3))
    oracle = DistanceOracle("euclidean", features=pts)
    ids = list(range(20))
    _, _, d = exact_diameter(oracle, ids)
    best = max(oracle.distance(a, b) for a in ids for b in ids if a < b)
    assert d == pytest.approx(best)


def test_approx_diameter_anchor_one():
    pts = np.array([[0.0], [1.0], [10.0]])
    oracle = DistanceOracle("euclidean", features=pts)
    u, v, d = approx_diameter(oracle, [0, 1, 2], anchor=1)
    assert (u, v) == (1, 2)
    assert d == pytest.approx(9.0)


def test_approx_diameter_two_points_is_exact():
    pts = np.array([[0.0], [7.0]])
    oracle = DistanceOracle("euclidean", features=pts)
    assert approx_diameter(oracle, [0, 1])[2] == pytest.approx(7.0)


def test_approx_diameter_half_bound():
    rng = np.random.default_rng(17)
    for _ in range(50):
        k = int(rng.integers(2, 40))
        pts = rng.random((k, int(rng.integers(1, 6))))
        oracle = DistanceOracle("euclidean", features=pts)
        ids = list(range(k))
        anchor = int(rng.integers(0, k))
        _, _, approx = approx_diameter(oracle, ids, anchor=anchor)
        _, _, exact = exact_diameter(oracle, ids)
        assert approx >= exact / 2 - 1e-12


def test_triangle_inequality_sampled():
    rng = np.random.default_rng(23)
    pts = rng.random((25, 3))
    sets = [frozenset(rng.choice(10, size=3).tolist()) for _ in range(25)]
    for oracle in (DistanceOracle("euclidean", features=pts),
                   DistanceOracle("jaccard", features=sets)):
        for _ in range(200):
            u, v, w = rng.integers(0, 25, size=3)
            duw = oracle.distance(int(u), int(w))
            dv = oracle.distance(int(u), int(v)) + oracle.distance(int(v), int(w))
            assert duw <= dv + 1e-9
