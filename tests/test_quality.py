"""Quality functions: zero, modular, coverage."""

import numpy as np
import pytest

from divmax import QualityFunction, value, marginal, marginal_pair
from divmax.quality import QualityState, _entries, incidence

K1 = frozenset({"s1", "s2"})
K2 = frozenset({"s2", "s3"})


def mixed_covers(rng, n, universe):
    """n covers of 3 draws over int and string items; the last cover is empty."""
    return [frozenset(x if x % 2 else f"i{x}" for x in rng.choice(universe, size=3).tolist())
            for _ in range(n - 1)] + [frozenset()]


def test_zero_kind():
    q = QualityFunction.zero()
    assert value(q, [0, 5, 9]) == 0.0
    assert marginal(q, [0], 1) == 0.0


def test_modular_value():
    q = QualityFunction.modular([1.0, 2.0, 3.0])
    assert value(q, [0, 2]) == pytest.approx(4.0)
    assert value(q, []) == 0.0


def test_coverage_value():
    q = QualityFunction.coverage([K1, K2])
    assert value(q, [0, 1]) == pytest.approx(3.0)
    assert value(q, [0]) == pytest.approx(2.0)


def test_marginal_coverage_overlap():
    q = QualityFunction.coverage([K1, K2])
    # only s3 is new once k1 is in
    assert marginal(q, [0], 1) == pytest.approx(1.0)


def test_marginal_modular_independent_of_set():
    q = QualityFunction.modular([1.0, 2.0, 5.0])
    assert marginal(q, [], 2) == pytest.approx(5.0)
    assert marginal(q, [0, 1], 2) == pytest.approx(5.0)


def test_marginal_of_selected_element_is_zero():
    q = QualityFunction.modular([1.0, 2.0])
    assert marginal(q, [1], 1) == 0.0


def test_marginal_pair_coverage():
    q = QualityFunction.coverage([K1, K2])
    assert marginal_pair(q, [], 0, 1) == pytest.approx(3.0)


def test_marginal_pair_modular():
    q = QualityFunction.modular([1.0, 2.0])
    assert marginal_pair(q, [], 0, 1) == 3.0


def test_marginal_pair_idempotent():
    q = QualityFunction.modular([1.0, 2.0])
    assert marginal_pair(q, [0, 1], 0, 1) == 0.0


def test_marginal_pair_rejects_equal_ids():
    q = QualityFunction.zero()
    with pytest.raises(ValueError):
        marginal_pair(q, [], 3, 3)


def test_serialization_roundtrip():
    for q in (QualityFunction.zero(),
              QualityFunction.modular([0.5, 1.5]),
              QualityFunction.coverage([K1, K2])):
        again = QualityFunction.from_dict(q.to_dict())
        assert again.kind == q.kind
        assert value(again, [0, 1]) == value(q, [0, 1])


def test_invalid_kind_rejected():
    with pytest.raises(ValueError):
        QualityFunction(kind="spectral")


def test_incidence_numbers_items_by_first_use():
    B = incidence([["b", 3], [], [3, "b", 3, "z"]])
    assert B.shape == (3, 3)
    assert B.toarray().tolist() == [[1, 1, 0], [0, 0, 0], [1, 1, 1]]


def test_cover_incidence_built_on_first_state_and_shared():
    q = QualityFunction.from_dict({"kind": "coverage", "covers": [["b", 3], [], [3, "z"]]})
    assert q._inc is None and q._hold is None  # loading builds neither
    a, b = QualityState(q, 3), QualityState(q, 3)
    assert a._inc is b._inc is q.cover_incidence()
    assert a._hold is b._hold is q.cover_holders()
    assert np.array_equal(q.cover_incidence().toarray(), incidence(q.covers).toarray())
    assert np.array_equal(q.cover_holders().toarray(), incidence(q.covers).toarray().T)


@pytest.mark.parametrize("seed", range(6))
def test_prefix_marginals_equal_marginal_over_each_prefix(seed):
    # QualityState.added[v] keeps v's marginal over the elements added before it
    rng = np.random.default_rng([31, seed])
    n = int(rng.integers(5, 40))
    covers = mixed_covers(rng, n, int(rng.integers(3, 2 * n)))
    order = rng.permutation(n)[:int(rng.integers(0, n + 1))].tolist()
    for q in (QualityFunction.zero(), QualityFunction.modular(rng.random(n)),
              QualityFunction.coverage(covers)):
        st = QualityState(q, n)
        for v in order:
            st.add(v)
        assert st.added.dtype == float
        assert st.added[order].tolist() == [marginal(q, order[:p], v)
                                            for p, v in enumerate(order)]


def test_entries_reads_one_row_as_the_batch_gather_does():
    mat = incidence([{1, 2, 5}, set(), {0, 5}, {3}])
    for r in range(4):
        pos, cols = _entries(mat, np.array([r]))
        # the same row read within a batch, where the single-row slice is not taken
        bpos, bcols = _entries(mat, np.array([r, 3 - r]))
        first = bpos == 0
        assert pos.dtype == bpos.dtype and cols.dtype == bcols.dtype
        assert pos.tolist() == bpos[first].tolist() == [0] * cols.size
        assert cols.tolist() == bcols[first].tolist() == sorted(mat[r].indices.tolist())


def test_state_tracks_plain_functions():
    rng = np.random.default_rng(9)
    covers = mixed_covers(rng, 15, 12)
    for q in (QualityFunction.modular(rng.random(15)),
              QualityFunction.coverage(covers)):
        st = QualityState(q, 15)
        sel = []
        for v in [14] + rng.permutation(14)[:7].tolist():
            v = int(v)
            assert st.marginal(v) == pytest.approx(marginal(q, sel, v))
            st.add(v)
            sel.append(v)
            assert st.value() == pytest.approx(value(q, sel))
        for v in list(sel[:3]):
            st.remove(v)
            sel.remove(v)
            assert st.value() == pytest.approx(value(q, sel))


def test_state_marginal_pair_matches_plain_function():
    rng = np.random.default_rng(14)
    covers = mixed_covers(rng, 12, 10)
    for q in (QualityFunction.zero(), QualityFunction.modular(rng.random(12)),
              QualityFunction.coverage(covers)):
        st = QualityState(q, 12)
        sel = [1, 4, 6]
        for v in sel:
            st.add(v)
        # u = 4 and v in sel are already selected; 11 has an empty cover
        for u in (0, 4, 11):
            vs = np.array([v for v in range(12) if v != u])
            got = st.marginal_pair(u, vs)
            want = [marginal_pair(q, sel, u, int(v)) for v in vs]
            assert got.tolist() == want
        # every id in order, and an unordered subset with a selected id
        for ids in (np.arange(12), np.array([9, 2, 11, 4, 7, 0, 5])):
            block = st.marginal_pairs(ids, ids)
            for a, u in enumerate(ids):
                for b, v in enumerate(ids):
                    if u != v:
                        assert block[a, b] == marginal_pair(q, sel, u, v)
        with pytest.raises(ValueError):
            st.marginal_pair(2, np.array([3, 2]))


def exact_or_close(q, want):
    """want under coverage, whose values are integers; else pytest.approx(want),
    since a state's modular value sums its weights in another order."""
    return want if q.kind == "coverage" else pytest.approx(want)


def test_state_queries_follow_interleaved_adds_and_removes():
    rng = np.random.default_rng(23)
    n = 10
    base = mixed_covers(rng, n, 8)  # int and string items; element 9 covers nothing
    weights = np.random.default_rng(29).random(n)
    for covers in (base, [c | {"all"} for c in base]):  # then one item every element holds
        # add, remove and re-add 3; remove 9 before it was ever added; then random steps
        steps = [("add", 3), ("remove", 3), ("add", 3), ("remove", 9)]
        steps += [(("add", "remove")[int(rng.integers(0, 2))], int(rng.integers(0, n)))
                  for _ in range(30)]
        # the same steps under coverage and under both additive kinds
        for q in (QualityFunction.coverage(covers), QualityFunction.zero(),
                  QualityFunction.modular(weights)):
            st = QualityState(q, n)
            sel = []
            for op, v in steps:
                if op == "add":
                    st.add(v)
                    sel = sel if v in sel else sel + [v]
                else:
                    st.remove(v)
                    sel = [u for u in sel if u != v]
                assert st.value() == exact_or_close(q, value(q, sel))
                margs = [marginal(q, sel, v) for v in range(n)]
                assert [st.marginal(v) for v in range(n)] == margs
                assert st.marginal_vec(np.arange(n)).tolist() == margs
                assert not st._gain[sel].any()
                pair = [[marginal_pair(q, sel, u, v) if u != v else None for v in range(n)]
                        for u in range(n)]
                for u in range(n):
                    vs = np.array([v for v in range(n) if v != u])
                    assert st.marginal_pair(u, vs).tolist() == [pair[u][v] for v in vs]
                for ids in (np.arange(n), rng.permutation(n)[:6]):
                    block = st.marginal_pairs(ids, ids)
                    for a, u in enumerate(ids):
                        for b, v in enumerate(ids):
                            if u != v:
                                assert block[a, b] == pair[u][v]
                if sel:
                    outs = np.array(sorted(sel))
                    inns = np.array([v for v in range(n) if v not in sel])
                    D = st.swap_delta(outs, inns)
                    for a, out in enumerate(outs.tolist()):
                        rest = [v for v in sel if v != out]
                        for i, inn in enumerate(inns.tolist()):
                            want = value(q, rest + [inn]) - value(q, sel)
                            assert D[a, i] == exact_or_close(q, want)
                            assert D[a, i] == marginal(q, rest, inn) - marginal(q, rest, out)


def test_marginal_pairs_take_repeated_anchors():
    # us repeats ids, as anchors of overlapping clusters do; vs are distinct
    rng = np.random.default_rng(31)
    n = 14
    covers = mixed_covers(rng, n, 9)
    for q in (QualityFunction.zero(), QualityFunction.modular(rng.random(n)),
              QualityFunction.coverage(covers)):
        st = QualityState(q, n)
        sel = [2, 7]
        for v in sel:
            st.add(v)
        us = np.array([5, 0, 5, 7, 13, 0])
        vs = rng.permutation(n)[:9]
        got = st.marginal_pairs(us, vs)
        assert got.shape == (us.size, vs.size) and got.dtype == float
        for a, u in enumerate(us.tolist()):
            for b, v in enumerate(vs.tolist()):
                if u != v:
                    assert got[a, b] == marginal_pair(q, sel, u, v)
                    assert got[a, b] == st.marginal_pair(u, [v])[0]


def test_state_marginal_vec():
    q = QualityFunction.coverage([K1, K2, frozenset({"s9"})])
    st = QualityState(q, 3)
    st.add(0)
    vec = st.marginal_vec(np.array([0, 1, 2]))
    assert vec[0] == 0.0
    assert vec[1] == pytest.approx(1.0)
    assert vec[2] == pytest.approx(1.0)


def test_state_swap_delta_matches_value():
    # 0 and 1 share s2: swapping 0 for 1 keeps s2, loses s1, gains s3
    rng = np.random.default_rng(12)
    covers = [K1, K2, frozenset({"s1"})] + mixed_covers(rng, 9, 10)
    for q in (QualityFunction.zero(), QualityFunction.modular(rng.random(12)),
              QualityFunction.coverage(covers)):
        st = QualityState(q, 12)
        sel = [0, 4, 5, 7]
        for v in sel:
            st.add(v)
        inns = np.array([1, 2, 3, 6, 8, 9, 10, 11])
        # sel[1:] leaves 0 out: s1 stays covered once by 0, and inn 2 covers it
        for outs in (sel, sel[1:]):
            D = st.swap_delta(np.array(outs), inns)
            assert D.shape == (len(outs), 8)
            for a, out in enumerate(outs):
                rest = [v for v in sel if v != out]
                for i, inn in enumerate(inns.tolist()):
                    want = value(q, rest + [inn]) - value(q, sel)
                    assert D[a, i] == pytest.approx(want)
    assert st.swap_delta(np.array([0]), np.array([1]))[0, 0] == 0.0


def test_monotone_and_submodular_sampled():
    rng = np.random.default_rng(31)
    covers = [frozenset(rng.choice(8, size=2).tolist()) for _ in range(10)]
    q = QualityFunction.coverage(covers)
    for _ in range(300):
        pool = rng.permutation(10)
        a = int(rng.integers(0, 5))
        b = int(rng.integers(a, 9))
        A = [int(x) for x in pool[:a]]
        B = [int(x) for x in pool[:b]]
        v = int(pool[9])
        mA = marginal(q, A, v)
        mB = marginal(q, B, v)
        assert mA >= 0.0
        assert mA >= mB - 1e-12
