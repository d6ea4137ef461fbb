"""The benchmark tracer finds every traced name and puts each one back."""

import dataclasses
import importlib.util
from pathlib import Path

from divmax import GenSpec, QualityFunction, SolverConfig, instgen, solvers

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attrs(targets) -> dict:
    return {(id(owner), attr): owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr) for owner, attr, *_ in targets}


def test_tracer_installs_and_uninstalls():
    tr = _load_tracer()
    before = _attrs(tr.TARGETS)
    base = instgen.gen_random(GenSpec(family="random", n=30, m=3, budgets=3, seed=4))
    inst = dataclasses.replace(base, quality=QualityFunction.coverage(
        [{v % 7, f"x{v % 5}"} for v in range(30)]))
    tracer = tr.Tracer()
    tracer.install()  # raises KeyError when a traced name is gone
    try:
        with tracer.root(tr.ROOT_JOB, 0):
            traced = solvers.solve(inst, SolverConfig(algorithm="gp"))[0]
    finally:
        tracer.uninstall()
    names = {tracer.names[i] for i in tracer.name}
    assert {"solvers.solve", "geometry.pairwise", "quality.state_add",
            "quality.state_remove"} <= names
    assert _attrs(tr.TARGETS) == before
    assert solvers.solve(inst, SolverConfig(algorithm="gp"))[0] == traced
