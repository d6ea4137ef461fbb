"""Output checks run on every distinct job; a job that fails one counts as failed."""

from __future__ import annotations

import json

from divmax import harness, instgen, model, objective, solvers
from divmax.model import Solution

GAIN_RTOL = 1e-9
TIGHT_FACTOR = 6.0


def _ls_objective(instance, sets, algorithm: str) -> float:
    """The objective that lsi (combined) or lsg (global dispersion) climbs."""
    solution = Solution.from_sets(sets)
    if algorithm == "lsi":
        return objective.combined_objective(instance, solution).combined
    return objective.global_dispersion(instance.oracle(), solution)


def _swap_gains(instance, trace, algorithm: str) -> list:
    """Failures where a swap's recorded gain is not the objective's change."""
    sets = [set(S) for S in trace.init]
    before = _ls_objective(instance, sets, algorithm)
    out = []
    for e in trace.events:
        old, new = e.elements
        sets[e.cluster].discard(old)
        sets[e.cluster].add(new)
        after = _ls_objective(instance, sets, algorithm)
        actual = after - before
        scale = max(1.0, abs(before), abs(after))
        if abs(e.gain - actual) > GAIN_RTOL * scale:
            out.append(f"swap {e.step} ({old}->{new}) claims gain {e.gain:.10g}, "
                       f"objective changed by {actual:.10g}")
        if after < before:
            out.append(f"swap {e.step} ({old}->{new}) lowers the objective "
                       f"{before:.10g} -> {after:.10g}")
        before = after
        if len(out) >= 4:
            break
    return out


def check_job(instance, meta: dict, algorithm: str, solution, trace,
              value, path: str) -> list:
    """Every failed output check of one job, as readable strings."""
    out = [f"infeasible: {v}" for v in model.is_feasible(instance, solution)[:3]]
    if solvers.replay_trace(instance, trace) != solution:
        out.append("replay_trace does not reproduce the solution")
    saved = harness.load_solution(path)
    with open(path) as fh:
        saved_value = json.load(fh)["objective"]["combined"]
    reloaded = objective.combined_objective(instance, saved).combined
    if saved != solution or reloaded != saved_value or reloaded != value.combined:
        out.append(f"saved solution reloads to {reloaded!r}, job computed "
                   f"{value.combined!r}, file holds {saved_value!r}")
    if meta.get("tight_q") and algorithm == "gp":
        opt, _ = instgen.tight_reference_values(meta["tight_q"], meta["tight_eps"])
        if opt > TIGHT_FACTOR * value.combined:
            out.append(f"gp {value.combined:.10g} is beyond factor 6 of {opt:.10g}")
    if algorithm in ("lsi", "lsg"):
        out.extend(_swap_gains(instance, trace, algorithm))
    return out
