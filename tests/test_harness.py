"""Persistence, experiments, benchmarks."""

import json
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest

from divmax import (Algorithm, Cluster, ExperimentReport, ExperimentSpec, GenSpec,
                    Instance, QualityFunction, SchemaError, Solution, SolverConfig,
                    bench_scaling, combined_objective, gen_random, load_instance,
                    load_solution, run_experiment, save_instance, save_solution,
                    validate_instance)
from divmax.instgen import gen_tight


def rich_instance():
    M = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    return Instance(n=3, feature_kind="matrix", features=None, distance_matrix=M,
                    clusters=[Cluster(id=0, members=(0, 1, 2), budget=2),
                              Cluster(id=1, members=(1, 2), budget=1)],
                    metric="matrix", partition=[0, 1, 1], lam=0.5,
                    quality=QualityFunction.coverage(
                        [frozenset({"a", "b"}), frozenset({"b"}), frozenset()]))


def test_instance_roundtrip_byte_identical(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    inst = rich_instance()
    save_instance(str(p1), inst)
    again = load_instance(str(p1))
    save_instance(str(p2), again)
    assert p1.read_bytes() == p2.read_bytes()
    assert validate_instance(again) == []
    assert again.partition == [0, 1, 1]
    assert again.lam == 0.5


def test_canonical_json_shape(tmp_path):
    p = tmp_path / "inst.json"
    save_instance(str(p), rich_instance())
    text = p.read_text()
    assert text.endswith("\n")
    d = json.loads(text)
    assert list(d.keys()) == sorted(d.keys())


def test_points_instance_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    inst = gen_random(GenSpec(family="random", n=25, m=3, overlap=2, seed=4))
    p = tmp_path / "r.json"
    save_instance(str(p), inst)
    again = load_instance(str(p))
    assert np.allclose(np.asarray(again.features), np.asarray(inst.features))
    assert [c.members for c in again.clusters] == [c.members for c in inst.clusters]


def test_missing_budget_is_schema_error(tmp_path):
    p = tmp_path / "bad.json"
    save_instance(str(p), rich_instance())
    d = json.loads(p.read_text())
    del d["clusters"][1]["budget"]
    p.write_text(json.dumps(d))
    with pytest.raises(SchemaError) as err:
        load_instance(str(p))
    assert "1" in str(err.value)


def test_non_integer_budget_is_schema_error(tmp_path):
    p = tmp_path / "bad2.json"
    save_instance(str(p), rich_instance())
    d = json.loads(p.read_text())
    d["clusters"][0]["budget"] = 2.5
    p.write_text(json.dumps(d))
    with pytest.raises(SchemaError):
        load_instance(str(p))


def test_asymmetric_matrix_fails_validation(tmp_path):
    p = tmp_path / "asym.json"
    save_instance(str(p), rich_instance())
    d = json.loads(p.read_text())
    d["distance_matrix"][0][1] = 9.0
    p.write_text(json.dumps(d))
    inst = load_instance(str(p))
    assert any(v.kind == "metric" for v in validate_instance(inst))


def test_structural_matrix_not_serializable(tmp_path):
    inst, _, _ = gen_tight(GenSpec(family="tight", q=40))
    assert inst.n > 4096
    with pytest.raises(SchemaError):
        save_instance(str(tmp_path / "t.json"), inst)


def test_non_finite_feature_is_not_written(tmp_path):
    inst = gen_random(GenSpec(family="random", n=10, m=2, overlap=2, seed=4))
    for bad in (np.nan, np.inf):
        inst.features[3, 1] = bad
        with pytest.raises(ValueError):
            save_instance(str(tmp_path / "nan.json"), inst)


def same_json(a, b) -> bool:
    """a and b hold the same JSON values, every float with the same bits."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_json, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_json(a[k], b[k]) for k in a)
    return a == b


EDGE_NUMBERS = [
    "5e-324", "-5e-324", repr(sys.float_info.min), repr(sys.float_info.max),
    repr(-sys.float_info.max), "-0.0", "0.0", "-0", "1e-06", "1e-6", "1E+22",
    "0.1", "2.5e-308", "9007199254740993.0", "123456789012345678901234567890e-10",
    *(str(sign * (2**53 + k)) for sign in (1, -1) for k in (-1, 0, 1, 2)),
]


def test_orjson_reads_what_stdlib_json_reads():
    """Every file is read with orjson; both parsers give the same values."""
    paths = sorted((Path(__file__).parent / "golden").glob("*.json"))
    assert len(paths) > 20
    for path in paths:
        data = path.read_bytes()
        assert same_json(orjson.loads(data), json.loads(data)), path.name
    text = "[" + ", ".join(EDGE_NUMBERS) + "]"
    read, want = orjson.loads(text), json.loads(text)
    assert same_json(read, want), [(a, b) for a, b in zip(read, want) if not same_json(a, b)]


def test_solution_roundtrip(tmp_path):
    inst = rich_instance()
    sol = Solution.from_sets([{0, 2}, {1}])
    p = tmp_path / "sol.json"
    save_solution(str(p), sol, objective_value=combined_objective(inst, sol))
    assert load_solution(str(p)).selected == sol.selected
    d = json.loads(p.read_text())
    assert "objective" in d


@pytest.mark.parametrize("selected, field", [
    ([[0, 1.7]], "selected[0][1]"), ([["3"]], "selected[0][0]"), ([[True]], "selected[0][0]"),
    (5, "selected"), ([5], "selected[0]")], ids=["float", "string", "bool", "scalar", "scalar-set"])
def test_malformed_solution_ids_are_schema_errors(tmp_path, selected, field):
    p = tmp_path / "sol.json"
    p.write_text(json.dumps({"selected": selected}))
    with pytest.raises(SchemaError) as err:
        load_solution(str(p))
    assert str(err.value).startswith(f"{field} must be")


def test_single_run_normalizes_to_one():
    inst = gen_random(GenSpec(family="random", n=40, m=4, budgets=3, overlap=2, seed=6))
    spec = ExperimentSpec(instance=inst,
                          algorithms=[SolverConfig(algorithm=Algorithm.GP)],
                          runs=1)
    report = run_experiment(spec)
    assert len(report.rows) == 1
    assert report.rows[0].normalized == 1.0


def test_gpa_beats_rn_on_average():
    inst = gen_random(GenSpec(family="random", n=200, m=5, budgets=6, overlap=2, seed=12))
    spec = ExperimentSpec(
        instance=inst,
        algorithms=[SolverConfig(algorithm=Algorithm.GPA, alpha=0.95),
                    SolverConfig(algorithm=Algorithm.RN)],
        runs=5, vary="seed")
    report = run_experiment(spec)
    labels = report.labels()
    gpa = [l for l in labels if l.startswith("gpa")][0]
    assert report.mean_normalized(gpa) >= report.mean_normalized("rn")
    assert max(r.normalized for r in report.rows) == 1.0


def test_vary_alpha_cycles_listed_alphas():
    inst = gen_random(GenSpec(family="random", n=30, m=3, budgets=2, overlap=2, seed=1))
    spec = ExperimentSpec(instance=inst,
                          algorithms=[SolverConfig(algorithm=Algorithm.GPA)],
                          runs=4, vary="alpha", alphas=[0.5, 1.0])
    report = run_experiment(spec)
    assert [r.alpha for r in report.rows] == [0.5, 1.0, 0.5, 1.0]


def test_experiment_deterministic():
    inst = gen_random(GenSpec(family="random", n=60, m=3, budgets=3, overlap=2, seed=8))
    spec = ExperimentSpec(instance=inst,
                          algorithms=[SolverConfig(algorithm=Algorithm.RN)],
                          runs=6)
    a = run_experiment(spec)
    b = run_experiment(spec)
    assert [r.combined for r in a.rows] == [r.combined for r in b.rows]


def test_csv_roundtrip(tmp_path):
    inst = gen_random(GenSpec(family="random", n=50, m=3, budgets=3, overlap=2, seed=2))
    spec = ExperimentSpec(instance=inst,
                          algorithms=[SolverConfig(algorithm=Algorithm.GP),
                                      SolverConfig(algorithm=Algorithm.RN)],
                          runs=3)
    report = run_experiment(spec)
    p = tmp_path / "rows.csv"
    report.to_csv(str(p))
    again = ExperimentReport.from_csv(str(p))
    assert len(again.rows) == len(report.rows)
    for a, b in zip(report.rows, again.rows):
        assert a.label == b.label
        assert a.combined == b.combined  # %.17g preserves doubles exactly
        assert a.fills == b.fills


def test_bench_scaling_shape():
    spec = GenSpec(family="random", n=0, m=3, budgets=2, overlap=2, seed=5)
    cfg = SolverConfig(algorithm=Algorithm.GPA, alpha=0.95)
    assert bench_scaling(spec, [], cfg) == []
    pts = bench_scaling(spec, [40, 80], cfg)
    assert [p.n for p in pts] == [40, 80]
    assert pts[0].ratio is None
    assert pts[1].ratio == pytest.approx(pts[1].seconds / pts[0].seconds)
    assert all(p.seconds > 0 for p in pts)
