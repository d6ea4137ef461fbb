"""Local search (lsi/lsg): real swap gains and a brute-force swap reference."""

import dataclasses

import numpy as np
import pytest

from divmax import (Algorithm, Cluster, DistanceOracle, GenSpec, Instance, QualityFunction,
                    Solution, SolverConfig, combined_objective, gen_random, global_dispersion,
                    solve_lsg, solve_lsi, solve_rn)
from divmax import objective, quality as qual, solvers


def _covered(n, seed, universe=200, size=8):
    rng = np.random.default_rng(seed)
    return QualityFunction.coverage(
        [rng.choice(universe, size=size, replace=False).tolist() for _ in range(n)])


def _objective(inst, sets, algorithm):
    """The objective that lsi (combined) or lsg (global dispersion) climbs."""
    if algorithm == "lsi":
        return combined_objective(inst, sets).combined
    return global_dispersion(inst.oracle(), {v for S in sets for v in S})


def _reference_swap(inst, sets, algorithm, epsilon):
    """Best improving swap by full re-evaluation of every feasible (j, out, inn).

    Returns (gain, j, out, inn) under the key (-gain, j, out, inn), or None
    when no swap gains more than epsilon times the current objective.
    """
    cells = inst.cell_of()
    f = _objective(inst, sets, algorithm)
    union = {v for S in sets for v in S}
    best = None
    for j, c in enumerate(inst.clusters):
        for out in sorted(sets[j]):
            used = {int(cells[v]) for v in union if v != out}
            for inn in c.members:
                if inn in union or int(cells[inn]) in used:
                    continue
                trial = [set(S) for S in sets]
                trial[j].discard(out)
                trial[j].add(inn)
                gain = _objective(inst, trial, algorithm) - f
                if gain <= epsilon * f:
                    continue
                if best is None or (-gain, j, out, inn) < (-best[0], *best[1:]):
                    best = (gain, j, out, inn)
    return best


@pytest.mark.parametrize("seed", range(5))
def test_lsi_coverage_swap_gains_are_real(seed):
    # Elements share cover items, so a swap can keep an item that only the
    # outgoing element held; that item is neither lost nor gained.
    base = gen_random(GenSpec(family="random", n=60, m=3, budgets=4, overlap=2, seed=seed))
    inst = dataclasses.replace(base, quality=_covered(60, seed))
    sol, trace = solve_lsi(inst, SolverConfig(algorithm=Algorithm.LSI, seed=seed))
    sets = [set(S) for S in trace.init]
    before = combined_objective(inst, sets).combined
    for e in trace.events:
        out, inn = e.elements
        sets[e.cluster].discard(out)
        sets[e.cluster].add(inn)
        after = combined_objective(inst, sets).combined
        assert e.gain == pytest.approx(after - before, rel=1e-9, abs=1e-9)
        assert after >= before
        before = after
    assert [tuple(sorted(S)) for S in sets] == list(sol.selected)


def _small_instance(seed, quality, cells):
    n = 14
    base = gen_random(GenSpec(family="random", n=n, m=3, budgets=3, overlap=2, seed=seed))
    rng = np.random.default_rng(seed + 100)
    q = {"zero": QualityFunction.zero(),
         "modular": QualityFunction.modular(rng.random(n)),
         "coverage": _covered(n, seed + 200, universe=30, size=4)}[quality]
    partition = rng.integers(0, 9, size=n).tolist() if cells else None
    return dataclasses.replace(base, quality=q, partition=partition, lam=0.5)


def _check_against_reference(inst, algorithm, cfg, init=None):
    """Every swap is the reference's, and the run stops where the reference does."""
    solver = solve_lsi if algorithm == "lsi" else solve_lsg
    sol, trace = solver(inst, cfg, init=init)
    sets = [set(S) for S in trace.init]
    for e in trace.events:
        ref = _reference_swap(inst, sets, algorithm, cfg.epsilon)
        assert ref is not None
        assert (e.cluster, *e.elements) == ref[1:]
        assert e.gain == pytest.approx(ref[0], rel=1e-9, abs=1e-9)
        out, inn = e.elements
        sets[e.cluster].discard(out)
        sets[e.cluster].add(inn)
    if cfg.max_ls_iters is None or len(trace.events) < cfg.max_ls_iters:
        assert _reference_swap(inst, sets, algorithm, cfg.epsilon) is None
    assert [tuple(sorted(S)) for S in sets] == list(sol.selected)


@pytest.mark.parametrize("algorithm", ["lsi", "lsg"])
@pytest.mark.parametrize("quality", ["zero", "modular", "coverage"])
@pytest.mark.parametrize("cells", [False, True])
def test_swaps_match_brute_force_reference(algorithm, quality, cells):
    for seed in range(3):
        cfg = SolverConfig(algorithm=Algorithm(algorithm), seed=seed, epsilon=1e-3,
                           max_ls_iters=25)
        _check_against_reference(_small_instance(seed, quality, cells), algorithm, cfg)


@pytest.mark.parametrize("algorithm", ["lsi", "lsg"])
def test_epsilon_rule_reads_the_current_objective(algorithm):
    # at this epsilon some runs stop on a swap that would pass against the
    # start's objective but not against the current one
    for quality in ("zero", "modular", "coverage"):
        for seed in range(3):
            cfg = SolverConfig(algorithm=Algorithm(algorithm), seed=seed, epsilon=0.05)
            _check_against_reference(_small_instance(seed, quality, True), algorithm, cfg)


def test_swap_ties_break_by_cluster_then_out_then_inn():
    # Two copies of {0, 0, 10, 10}: every first swap gains the same, so the
    # key (-gain, j, out, inn) alone decides.
    pts = np.array([[0.0], [0.0], [10.0], [10.0]] * 2)
    inst = Instance(n=8, feature_kind="vector", features=pts, metric="euclidean",
                    clusters=[Cluster(id=0, members=(0, 1, 2, 3), budget=2),
                              Cluster(id=1, members=(4, 5, 6, 7), budget=2)])
    init = Solution.from_sets([{0, 1}, {4, 5}])
    _, trace = solve_lsi(inst, SolverConfig(algorithm=Algorithm.LSI), init=init)
    assert [(e.cluster, e.elements) for e in trace.events] == [(0, (0, 2)), (1, (4, 6))]
    _, trace = solve_lsg(inst, SolverConfig(algorithm=Algorithm.LSG), init=init)
    assert [(e.cluster, e.elements) for e in trace.events] == [(0, (0, 2)), (0, (1, 3))]


@pytest.mark.parametrize("algorithm", ["lsi", "lsg"])
def test_objective_is_evaluated_once_for_the_start(monkeypatch, algorithm):
    # each swap adds its gain to the running objective; nothing re-evaluates it
    base = gen_random(GenSpec(family="random", n=60, m=3, budgets=4, overlap=2, seed=1))
    inst = dataclasses.replace(base, quality=_covered(60, 1))
    calls = {"intra_dispersion": 0, "cluster_dispersion": 0, "value": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)
        monkeypatch.setattr(module, name, wrapper)

    counting(objective, "intra_dispersion")
    counting(objective, "cluster_dispersion")
    counting(qual, "value")
    solver = solve_lsi if algorithm == "lsi" else solve_lsg
    _, trace = solver(inst, SolverConfig(algorithm=Algorithm(algorithm), seed=1))
    assert len(trace.events) >= 5
    want = ({"intra_dispersion": 1, "cluster_dispersion": inst.m, "value": 1}
            if algorithm == "lsi" else
            {"intra_dispersion": 0, "cluster_dispersion": 1, "value": 0})
    assert calls == want


def _start_without(inst, seed, empty):
    """The seeded rn start with the selections of the clusters in empty dropped."""
    start, _ = solve_rn(inst, SolverConfig(algorithm=Algorithm.RN, seed=seed))
    return Solution.from_sets([set() if j in empty else set(S)
                               for j, S in enumerate(start.selected)])


@pytest.mark.parametrize("algorithm", ["lsi", "lsg"])
def test_empty_selections_propose_no_swap(algorithm):
    base = gen_random(GenSpec(family="random", n=40, m=3, budgets=3, overlap=2, seed=4))
    inst = dataclasses.replace(base, quality=_covered(40, 4, universe=60, size=4))
    solver = solve_lsi if algorithm == "lsi" else solve_lsg
    cfg = SolverConfig(algorithm=Algorithm(algorithm), seed=4)
    # every S_j empty: all budgets 0 (so the rn start is empty), or an all-empty init
    no_budget = dataclasses.replace(
        inst, clusters=[dataclasses.replace(c, budget=0) for c in inst.clusters])
    for run in (solver(no_budget, cfg), solver(inst, cfg, init=_start_without(inst, 4, {0, 1, 2}))):
        sol, trace = run
        assert trace.events == [] and sol.selected == ((), (), ())
    # one empty S_j: that cluster never swaps, and the others still follow the reference
    init = _start_without(inst, 4, {1})
    _, trace = solver(inst, cfg, init=init)
    assert trace.events and all(e.cluster != 1 for e in trace.events)
    _check_against_reference(inst, algorithm, cfg, init=init)


@pytest.mark.parametrize("algorithm", ["lsi", "lsg"])
@pytest.mark.parametrize("cached", [True, False])
def test_each_move_reads_only_its_clusters_blocks(monkeypatch, algorithm, cached):
    # A scan reads at most sum_j |ref_j| * |mem_j| distances over the clusters
    # with a selection (ref_j = S_j for lsi, the union U for lsg), so reading
    # rows(U, M) in lsi, or an empty cluster's members, fails here.
    base = gen_random(GenSpec(family="random", n=80, m=4, budgets=4, overlap=2, seed=6))
    inst = dataclasses.replace(base, quality=_covered(80, 6))
    if not cached:
        inst._oracle = DistanceOracle("euclidean", features=inst.features, cache_limit=0)
    oracle = inst.oracle()
    assert (oracle._cache is not None) == cached
    init = _start_without(inst, 6, {2})
    sets = [set(S) for S in init.selected]
    reads = [0]  # entries read by each scan; a swap starts the next scan
    real_rows, real_swap = oracle.rows, solvers._State.swap

    def rows(us, ids):
        out = real_rows(us, ids)
        reads[-1] += out.size
        return out

    def swap(st, j, out, inn, gain):
        real_swap(st, j, out, inn, gain)
        reads.append(0)

    def evaluation(real):
        def wrapper(*args):
            value = real(*args)
            reads[-1] = 0  # the start's evaluation reads before the first scan
            return value
        return wrapper
    monkeypatch.setattr(oracle, "rows", rows)
    monkeypatch.setattr(solvers._State, "swap", swap)
    for name in ("combined_objective", "global_dispersion"):
        monkeypatch.setattr(objective, name, evaluation(getattr(objective, name)))
    solver = solve_lsi if algorithm == "lsi" else solve_lsg
    _, trace = solver(inst, SolverConfig(algorithm=Algorithm(algorithm), seed=6), init=init)
    assert len(trace.events) >= 3 and len(reads) == len(trace.events) + 1
    union = sum(len(S) for S in sets)
    bound = sum((len(S) if algorithm == "lsi" else union) * len(c.members)
                for S, c in zip(sets, inst.clusters) if S)
    assert 0 < max(reads) <= bound
