"""Instance generators."""

import numpy as np
import pytest

from divmax import (GenSpec, TightDistances, gen_fig1, gen_prototype, gen_random,
                    gen_tight, generate, intra_dispersion, is_feasible,
                    tight_reference_values, validate_instance)


def test_random_contract():
    inst = gen_random(GenSpec(family="random", n=200, m=10, dim=2, overlap=2, seed=7))
    assert validate_instance(inst) == []
    assert all(len(c.members) > 0 for c in inst.clusters)
    counts = np.zeros(200, dtype=int)
    for c in inst.clusters:
        counts[list(c.members)] += 1
    assert counts.min() >= 2  # overlap memberships, plus possible top-ups


def test_random_overlap_equals_m():
    inst = gen_random(GenSpec(family="random", n=30, m=4, overlap=4, seed=0))
    for c in inst.clusters:
        assert c.members == tuple(range(30))


def test_random_seeds_differ():
    a = gen_random(GenSpec(family="random", n=50, m=5, overlap=2, seed=1))
    b = gen_random(GenSpec(family="random", n=50, m=5, overlap=2, seed=2))
    assert [c.members for c in a.clusters] != [c.members for c in b.clusters]


def test_random_overlap_too_large():
    with pytest.raises(ValueError):
        gen_random(GenSpec(family="random", n=10, m=3, overlap=4))


def test_random_deterministic():
    a = gen_random(GenSpec(family="random", n=40, m=4, overlap=2, seed=9))
    b = gen_random(GenSpec(family="random", n=40, m=4, overlap=2, seed=9))
    assert np.array_equal(a.features, b.features)
    assert [c.members for c in a.clusters] == [c.members for c in b.clusters]


def test_prototype_overlap_fraction():
    inst = gen_prototype(GenSpec(family="prototype", n=400, m=8, dim=2,
                                 spread=0.15, seed=3))
    assert validate_instance(inst) == []
    counts = np.zeros(400, dtype=int)
    for c in inst.clusters:
        counts[list(c.members)] += 1
    assert (counts == 2).mean() > 0.0


def test_prototype_zero_spread_single_membership():
    inst = gen_prototype(GenSpec(family="prototype", n=100, m=5, dim=2,
                                 spread=0.0, seed=3))
    counts = np.zeros(100, dtype=int)
    for c in inst.clusters:
        counts[list(c.members)] += 1
    assert counts.max() == 1


def test_fig1_structure():
    inst = gen_fig1(GenSpec(family="fig1", D=10.0))
    assert validate_instance(inst) == []
    assert inst.n == 7
    assert [c.budget for c in inst.clusters] == [2, 2, 2, 3]
    assert inst.clusters[3].members == (0, 1, 2, 3)
    # ring elements sit 0.2 from the shared center, hubs at i*D on the axis
    assert np.linalg.norm(inst.features[0] - inst.features[3]) == pytest.approx(0.2)
    assert inst.features[4][0] == pytest.approx(10.0)
    assert inst.features[6][0] == pytest.approx(30.0)


@pytest.mark.parametrize("D", [float("nan"), float("inf"), -float("inf")])
def test_fig1_rejects_non_finite_D(D):
    for build in (gen_fig1, generate):
        with pytest.raises(ValueError, match="D must be finite"):
            build(GenSpec(family="fig1", D=D))


def test_tight_small_closed_forms():
    for q in (2, 3):
        inst, adv, opt = gen_tight(GenSpec(family="tight", q=q, eps=1e-6))
        assert validate_instance(inst) == []
        assert is_feasible(inst, adv) == []
        assert is_feasible(inst, opt) == []
        want_opt, want_adv = tight_reference_values(q, 1e-6)
        oracle = inst.oracle()
        assert intra_dispersion(oracle, opt) == pytest.approx(want_opt, rel=1e-12)
        assert intra_dispersion(oracle, adv) == pytest.approx(want_adv, rel=1e-12)


def test_tight_ratio_approaches_six():
    qs = (2, 5, 20)
    ratios = []
    for q in qs:
        want_opt, want_adv = tight_reference_values(q, 1e-6)
        ratios.append(want_opt / want_adv)
    assert ratios[0] == pytest.approx(4.0, abs=1e-4)
    assert ratios[0] < ratios[1] < ratios[2] < 6.0


def test_tight_structural_block_matches_dense():
    inst, _, _ = gen_tight(GenSpec(family="tight", q=3, eps=1e-6))
    M = inst.distance_matrix
    n = inst.n
    td = TightDistances(3, 1e-6)
    dense = td.densify()
    assert np.array_equal(dense, np.asarray(M)) or np.allclose(dense, np.asarray(M))
    ids = np.array([0, 5, 11, n - 1])
    assert np.allclose(dense[np.ix_(ids, ids)], td[np.ix_(ids, ids)])
    assert td[0, 1] == pytest.approx(2.0 + 1e-6)


def test_generate_dispatcher():
    assert generate(GenSpec(family="fig1")).n == 7
    inst, adv, opt = generate(GenSpec(family="tight", q=2))
    assert inst.n == 4 * 2 * 2 + 2 * 2
    with pytest.raises(ValueError):
        generate(GenSpec(family="banana"))
