"""Command line round trips and exit codes."""

import json

import numpy as np
import pytest

from divmax import Cluster, Instance, load_solution, save_instance
from divmax.cli import main


def gen_instance(tmp_path, name="inst.json", extra=()):
    path = tmp_path / name
    rc = main(["gen", "--family", "random", "--n", "30", "--m", "3",
               "--budgets", "3", "--overlap", "2", "--seed", "4",
               "-o", str(path), *extra])
    assert rc == 0
    return path


def test_gen_validate_solve_roundtrip(tmp_path, capsys):
    inst = gen_instance(tmp_path)
    assert main(["validate", "--instance", str(inst)]) == 0
    out = tmp_path / "sol.json"
    trace = tmp_path / "trace.json"
    rc = main(["solve", "--instance", str(inst), "--algorithm", "gp",
               "-o", str(out), "--trace-out", str(trace)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "combined" in printed
    sol = load_solution(str(out))
    assert sum(sol.fills()) > 0
    assert json.loads(trace.read_text())["algorithm"] == "gp"


def test_validate_rejects_bad_instance(tmp_path):
    path = tmp_path / "bad.json"
    M = np.array([[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    inst = Instance(n=2, feature_kind="matrix", features=None, distance_matrix=M,
                    clusters=[Cluster(id=0, members=(0, 1), budget=1)],
                    metric="matrix")
    save_instance(str(path), inst)
    assert main(["validate", "--instance", str(path)]) == 2


def test_validate_rejects_broken_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\"n\": 3")
    assert main(["validate", "--instance", str(path)]) == 2


def null_matrix_entry(d):
    """A uniform distance matrix for d's elements with one entry null."""
    matrix = [[float(i != j) for j in range(d["n"])] for i in range(d["n"])]
    matrix[0][1] = None
    d.update(metric="matrix", distance_matrix=matrix)


MALFORMED = [
    ("clusters[0].members[1]", lambda d: d["clusters"][0]["members"].__setitem__(1, 1.7)),
    ("clusters[0].members[2]", lambda d: d["clusters"][0]["members"].__setitem__(2, "3")),
    ("clusters[1].budget", lambda d: d["clusters"][1].__setitem__("budget", True)),
    ("lambda", lambda d: d.__setitem__("lambda", "abc")),
    ("features", lambda d: d["features"][2].append(0.5)),
    ("clusters[0].members", lambda d: d["clusters"][0].__setitem__("members", 5)),
    ("partition[0]", lambda d: d.__setitem__("partition", [[v] for v in range(d["n"])])),
    ("partition[4]", lambda d: d.__setitem__("partition", [0] * 4 + [False] * (d["n"] - 4))),
    ("distance_matrix", lambda d: d.update(metric="matrix", distance_matrix=[[0.0], [1.0, 0.0]])),
    ("n", lambda d: d.__setitem__("n", 30.0)),
    ("clusters[1]", lambda d: d["clusters"].__setitem__(1, 7)),
    ("quality", lambda d: d.__setitem__("quality", {"kind": "bogus"})),
    ("features[1]", lambda d: d.update(feature_kind="set", metric="jaccard",
                                       features=[["a"], [["b"]]] + [["c"]] * (d["n"] - 2))),
    ("features", lambda d: d["features"][0].__setitem__(0, "0.25")),
    ("distance_matrix", null_matrix_entry),
]


def case_ids(cases) -> list:
    """Each case's field; a field's second case on gets a numbered id."""
    seen: dict = {}
    ids = []
    for field, _ in cases:
        seen[field] = seen.get(field, 0) + 1
        ids.append(field if seen[field] == 1 else f"{field}-{seen[field]}")
    return ids


@pytest.mark.parametrize("field, edit", MALFORMED, ids=case_ids(MALFORMED))
def test_malformed_fields_are_schema_errors(tmp_path, capsys, field, edit):
    path = gen_instance(tmp_path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    for args in (["validate"], ["solve", "--algorithm", "gp"]):
        capsys.readouterr()
        assert main([args[0], "--instance", str(path), *args[1:]]) == 2
        assert capsys.readouterr().err.startswith(f"schema error: {field} must be")


def test_non_finite_numbers_are_not_json(tmp_path, capsys):
    path = gen_instance(tmp_path)
    payload = json.loads(path.read_text())
    payload["features"][0][0] = float("nan")
    path.write_text(json.dumps(payload))  # the stdlib writes NaN unless told not to
    for args in (["validate"], ["solve", "--algorithm", "gp"]):
        capsys.readouterr()
        assert main([args[0], "--instance", str(path), *args[1:]]) == 2
        assert capsys.readouterr().err.startswith("schema error: not valid JSON")


@pytest.mark.parametrize("lam", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command", [["solve", "--algorithm", "gp"], ["oracle"]],
                         ids=["solve", "oracle"])
def test_lambda_override_is_validated(tmp_path, capsys, command, lam):
    path = tmp_path / "small.json"
    assert main(["gen", "--family", "random", "--n", "8", "--m", "2", "--budgets", "2",
                 "--overlap", "2", "--seed", "4", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main([command[0], "--instance", str(path), *command[1:], f"--lambda={lam}"]) == 2
    assert "schema at lambda: lambda must be >= 0" in capsys.readouterr().err


BAD_OPTIONS = [
    ("alpha", ["solve", "--algorithm", "gp", "--alpha", "2"]),
    ("epsilon", ["solve", "--algorithm", "gp", "--epsilon", "-1"]),
    ("epsilon", ["solve", "--algorithm", "lsi", "--epsilon", "nan"]),
    ("cluster_order", ["solve", "--algorithm", "gelms", "--cluster-order", "0,0,1"]),
    ("alpha", ["experiment", "--alpha", "2"]),
    ("runs", ["experiment", "--runs", "0", "-o", "out.csv"]),
    ("runs", ["experiment", "--runs", "-3"]),
    ("alpha", ["bench", "--sizes", "30", "--alpha", "2"]),
    ("algorithm", ["experiment", "--algorithms", "gp,foo", "-o", "out.csv"]),
    ("algorithm", ["bench", "--sizes", "30", "--algorithm", "foo"]),
    ("repeats", ["bench", "--sizes", "30", "--repeats", "0"]),
    ("repeats", ["bench", "--sizes", "30", "--repeats", "-2"]),
    ("n", ["gen", "--n", "0", "-o", "out.json"]),
    ("m", ["gen", "--m", "0", "-o", "out.json"]),
    ("overlap", ["gen", "--overlap", "9", "-o", "out.json"]),
    ("overlap", ["gen", "--overlap", "0", "-o", "out.json"]),
    ("spread", ["gen", "--family", "prototype", "--spread", "-1", "-o", "out.json"]),
    ("D", ["gen", "--family", "fig1", "--D", "nan", "-o", "out.json"]),
    ("D", ["gen", "--family", "fig1", "--D", "inf", "-o", "out.json"]),
    ("eps", ["gen", "--family", "tight", "--eps", "nan", "-o", "out.json"]),
    ("eps", ["gen", "--family", "tight", "--eps", "-1", "-o", "out.json"]),
    ("budgets", ["gen", "--budgets", "x", "-o", "out.json"]),
    ("q", ["gen", "--family", "tight", "--q", "1", "-o", "out.json"]),
    ("n", ["bench", "--sizes", "0,10"]),
    ("sizes", ["bench", "--sizes", "abc"]),
    ("budgets", ["bench", "--sizes", "30", "--budgets", "2,3"]),
    ("overlap", ["bench", "--sizes", "30", "--overlap", "20"]),
    ("limit", ["oracle", "--limit", "0", "-o", "out.json"]),
    ("limit", ["oracle", "--limit", "-5", "-o", "out.json"]),
]


@pytest.mark.parametrize("field, argv", BAD_OPTIONS, ids=case_ids(BAD_OPTIONS))
def test_bad_options_exit_2_before_solving(tmp_path, capsys, monkeypatch, field, argv):
    inst = gen_instance(tmp_path)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    extra = ["--instance", str(inst)] if argv[0] in ("solve", "experiment", "oracle") else []
    assert main([argv[0], *extra, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"invalid option: {field} must be")
    assert not (tmp_path / "out.csv").exists()
    assert not (tmp_path / "out.json").exists()


def test_solve_gpa_flags(tmp_path):
    inst = gen_instance(tmp_path)
    out = tmp_path / "sol.json"
    rc = main(["solve", "--instance", str(inst), "--algorithm", "gpa",
               "--alpha", "0.9", "--seed", "7", "-o", str(out)])
    assert rc == 0
    assert load_solution(str(out)).fills() == [3, 3, 3]


def test_oracle_small_instance(tmp_path, capsys):
    inst = gen_instance(tmp_path, extra=())
    # shrink to oracle size
    rc = main(["gen", "--family", "random", "--n", "8", "--m", "2",
               "--budgets", "2", "--overlap", "2", "--seed", "4",
               "-o", str(tmp_path / "small.json")])
    assert rc == 0
    rc = main(["oracle", "--instance", str(tmp_path / "small.json"),
               "-o", str(tmp_path / "opt.json")])
    assert rc == 0
    assert "combined" in capsys.readouterr().out


def test_oracle_limit_exit_code(tmp_path):
    rc = main(["gen", "--family", "random", "--n", "60", "--m", "3",
               "--budgets", "12", "--overlap", "2", "--seed", "4",
               "-o", str(tmp_path / "big.json")])
    assert rc == 0
    assert main(["oracle", "--instance", str(tmp_path / "big.json")]) == 3


def test_gen_tight_reference_solutions(tmp_path):
    rc = main(["gen", "--family", "tight", "--q", "2", "--eps", "1e-6",
               "-o", str(tmp_path / "tight.json"),
               "--adv-out", str(tmp_path / "adv.json"),
               "--opt-out", str(tmp_path / "opt.json")])
    assert rc == 0
    adv = load_solution(str(tmp_path / "adv.json"))
    opt = load_solution(str(tmp_path / "opt.json"))
    assert sum(adv.fills()) == sum(opt.fills()) > 0
    assert main(["validate", "--instance", str(tmp_path / "tight.json")]) == 0


def test_gen_structural_tight_is_a_schema_error(tmp_path, capsys):
    # q = 32 gives n = 4160, too large to densify, so the matrix stays structural
    rc = main(["gen", "--family", "tight", "--q", "32", "-o", str(tmp_path / "tight.json"),
               "--adv-out", str(tmp_path / "adv.json")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("schema error: structural distance matrices")
    assert not list(tmp_path.iterdir())


def test_experiment_csv(tmp_path, capsys):
    inst = gen_instance(tmp_path)
    out = tmp_path / "rows.csv"
    rc = main(["experiment", "--instance", str(inst),
               "--algorithms", "gpa,rn", "--runs", "3", "-o", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "gpa" in printed and "rn" in printed
    header = out.read_text().splitlines()[0]
    assert header.startswith("label,")


def test_bench_output(capsys):
    rc = main(["bench", "--family", "random", "--sizes", "30,60",
               "--algorithm", "gpa", "--m", "3", "--budgets", "2",
               "--overlap", "2", "--seed", "1"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 2
    assert "n=30" in lines[0] and "n=60" in lines[1]


def test_solve_missing_instance(tmp_path):
    assert main(["solve", "--instance", str(tmp_path / "nope.json"),
                 "--algorithm", "gp"]) == 2


def test_validate_missing_instance(tmp_path):
    assert main(["validate", "--instance", str(tmp_path / "nope.json")]) == 2
