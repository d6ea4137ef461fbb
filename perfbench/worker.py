"""Measurement process for one workload run; started fresh by run.py.

Usage: python worker.py MANIFEST RESULT --seconds S --trace 0|1

Untraced (--trace 0): run the job list as a closed loop, one caller, whole
passes until S seconds have passed, setting the instances up afresh before
each pass. The first pass runs the output checks; later passes must
reproduce the first pass's solution files byte for byte.

Traced (--trace 1): set up once with the tracer on, then alternate an
untraced and a traced pass until S seconds have passed. Traced passes also
run the checks, under their own root spans, and must write the same bytes
as the untraced pass. Per-layer numbers come from the traced passes only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

from divmax import geometry, harness, model, objective, solvers

import checks
from tracer import ORACLE_NAMES, EVAL_NAMES, ROOT_CHECK, ROOT_JOB, ROOT_SETUP, SpanTable, Tracer

# Before every job pass the set-up repeats until SETUP_SLOT_S seconds have
# been spent (at least once), and the jobs use the last set-up's instances.
# Spreading set-up samples over the whole run keeps a slow or fast spell of
# the host from deciding the median.
SETUP_SLOT_S = 0.25
SELF_SUM_TOL_S = 1e-6


def _config(d: dict) -> solvers.SolverConfig:
    return solvers.SolverConfig(**{**d, "algorithm": solvers.Algorithm(d["algorithm"])})


def _root(tracer, name, job):
    return tracer.root(name, job) if tracer is not None else contextlib.nullcontext()


class Workload:
    """Loaded instances, the job list and per-job reference results."""

    def __init__(self, manifest: dict, workdir: str):
        self.metas = manifest["instances"]
        self.jobs = manifest["jobs"]
        self.configs = [_config(job["config"]) for job in self.jobs]
        self.paths = [os.path.join(workdir, f"solution{j}.json") for j in range(len(self.jobs))]
        self.instances = []
        self.reference = [None] * len(self.jobs)  # first pass: (bytes, failures, value)
        self.integrity = []  # benchmark-level errors: make `correct` false

    def flag(self, message: str) -> None:
        if message not in self.integrity:
            self.integrity.append(message)

    def setup(self, tracer=None) -> float:
        """load_instance -> validate_instance -> first oracle(), summed."""
        self.instances = []
        total = 0.0
        for i, meta in enumerate(self.metas):
            with _root(tracer, ROOT_SETUP, i):
                t0 = time.perf_counter()
                inst = harness.load_instance(meta["path"])
                violations = model.validate_instance(inst)
                inst.oracle()
                total += time.perf_counter() - t0
            if violations:
                self.flag(f"{meta['name']}: invalid input: {violations[0]}")
            self.instances.append(inst)
        return total

    def run_job(self, j: int):
        inst = self.instances[self.jobs[j]["instance"]]
        t0 = time.perf_counter()
        solution, trace = solvers.solve(inst, self.configs[j])
        t1 = time.perf_counter()
        value = objective.combined_objective(inst, solution)
        harness.save_solution(self.paths[j], solution, value)
        t2 = time.perf_counter()
        return solution, trace, value, t1 - t0, t2 - t0

    def run_pass(self, tracer=None, check: bool = False) -> dict:
        """One pass over every job. Returns the pass's timings and tallies."""
        stats = {"passed": 0, "failed": 0, "events": 0, "ls_swaps": 0, "ls_cap_hits": 0,
                 "solve_times": [], "job_times": []}
        for j, job in enumerate(self.jobs):
            try:
                with _root(tracer, ROOT_JOB, j):
                    solution, trace, value, solve_dt, job_dt = self.run_job(j)
            except Exception:  # a failing job is counted, the loop goes on
                failures = ["raised: " + traceback.format_exc(limit=2).strip().splitlines()[-1]]
                data, value = None, None
                stats["solve_times"].append(None)
                stats["job_times"].append(None)
            else:
                with open(self.paths[j], "rb") as fh:
                    data = fh.read()
                failures = None
                if check:
                    with _root(tracer, ROOT_CHECK, j):
                        failures = checks.check_job(
                            self.instances[job["instance"]], self.metas[job["instance"]],
                            job["config"]["algorithm"], solution, trace, value, self.paths[j])
                stats["solve_times"].append(solve_dt)
                stats["job_times"].append(job_dt)
                stats["events"] += len(trace.events)
                if job["config"]["algorithm"] in ("lsi", "lsg"):
                    stats["ls_swaps"] += len(trace.events)
                    stats["ls_cap_hits"] += len(trace.events) >= job["config"]["max_ls_iters"]
            failures = self._compare(j, data, failures, value)
            stats["failed" if failures else "passed"] += 1
        return stats

    def _compare(self, j: int, data, failures, value) -> list:
        """Record the first pass as reference; later passes must match it."""
        ref = self.reference[j]
        if ref is None:
            self.reference[j] = (data, failures or [], value)
            return failures or []
        ref_data, ref_failures, _ = ref
        label = f"job {j} ({self.jobs[j]['label']})"
        if data != ref_data:
            self.flag(f"{label}: solution bytes differ between passes")
        if failures is not None and failures != ref_failures:
            self.flag(f"{label}: check results differ between passes")
        return ref_failures if data is not None else ["raised in a later pass"]

    def objective_sum(self) -> float:
        return float(sum(ref[2].combined for ref in self.reference
                         if ref is not None and ref[2] is not None))

    def job_table(self, passes: list) -> list:
        rows = []
        for j, (job, solve_s) in enumerate(zip(self.jobs, _job_medians(passes, "solve_times"))):
            _, failures, value = self.reference[j]
            rows.append({
                "job": j, "label": job["label"],
                "instance": self.metas[job["instance"]]["name"],
                "solve_s_median": solve_s,
                "objective": value.combined if value is not None else None,
                "failures": failures,
            })
        return rows


def _job_medians(passes: list, key: str) -> list:
    """Per job, the median over passes of one of its times; None if it never ran."""
    out = []
    for j in range(len(passes[0][key])):
        times = [p[key][j] for p in passes if p[key][j] is not None]
        out.append(statistics.median(times) if times else None)
    return out


def _pass_time(passes: list, key: str) -> float:
    """Mean over passes of one pass's summed time.

    A mean, not a median: a shared virtual CPU can alternate between a fast
    and a slow state for seconds at a time, and the median of such a mixture
    jumps between the two while the mean moves with the share of time in each.
    """
    return statistics.fmean(sum(t for t in p[key] if t is not None) for p in passes)


def measure(w: Workload, seconds: float) -> dict:
    setup, passes = [], []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        slot = time.perf_counter()
        setup.append(w.setup())
        while time.perf_counter() - slot < SETUP_SLOT_S:
            setup.append(w.setup())
        passes.append(w.run_pass(check=not passes))
    attempted = sum(p["passed"] + p["failed"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "solve_s": _pass_time(passes, "solve_times"),
        "jobs_per_s": (attempted - failed) / len(passes) / _pass_time(passes, "job_times"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "objective_sum": w.objective_sum(),
        "passed_frac": (attempted - failed) / attempted,
        "failed_frac": failed / attempted,
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "passes": len(passes), "setup_samples": setup, "jobs": w.job_table(passes)}


def setup_layers(t: SpanTable) -> dict:
    build = t.mask("geometry.build")
    load = t.mask("harness.load_instance")
    validate = t.mask("model.validate_instance")
    build_in_validate = build & t.under("model.validate_instance")
    return {
        "bench.setup_s": float(t.dur[t.mask(ROOT_SETUP)].sum()),
        "geometry.build_s": float(t.dur[build].sum()),
        "geometry.cache_bytes": int(t.cols["elems"][build].sum()),
        "model.validate_s": float(t.dur[validate].sum() - t.dur[build_in_validate].sum()),
        "harness.load_s": float(t.dur[load].sum()),
        "harness.bytes_read": int(t.cols["elems"][load].sum()),
    }


def job_layers(t: SpanTable, stats: dict) -> tuple[dict, dict]:
    """Counts and times of one traced pass, split so counts can be compared."""
    job = t.under_root(ROOT_JOB)
    in_solve = t.under("solvers.solve") & job
    elems = t.cols["elems"]

    def sel(*names, where=job):
        return t.mask(*names) & where

    groups = {
        "geometry.row": sel("geometry.row"),
        "geometry.pairwise": sel("geometry.pairwise"),
        "geometry.distance": sel("geometry.distance"),
        "quality.marginal_pair": sel("quality.state_marginal_pair", "quality.marginal_pair"),
        "quality.marginal_vec": sel("quality.state_marginal_vec"),
        "quality.marginal": sel("quality.state_marginal", "quality.marginal"),
        "quality.update": sel("quality.state_add", "quality.state_remove"),
        "quality.value": sel("quality.state_value", "quality.value"),
        "objective.eval": t.outermost(EVAL_NAMES) & job,
        "objective.removal_measure": sel("objective.removal_measure"),
        "model.feasible": t.mask("model.is_feasible"),
    }
    counts = {f"{g}_calls": int(m.sum()) for g, m in groups.items()}
    times = {f"{g}_s": float(t.dur[m].sum()) for g, m in groups.items()}
    for g in ("geometry.row", "geometry.pairwise", "quality.marginal_vec"):
        counts[f"{g}_elems"] = int(elems[groups[g]].sum())
    solve = sel("solvers.solve")
    save = sel("harness.save_solution")
    oracle_calls = int((t.mask(*ORACLE_NAMES) & in_solve).sum())
    counts.update({
        "solvers.events": stats["events"],
        "solvers.oracle_calls_per_event": oracle_calls / max(stats["events"], 1),
        "solvers.ls_swaps": stats["ls_swaps"],
        "solvers.ls_cap_hits": stats["ls_cap_hits"],
        "harness.bytes_written": int(elems[save].sum()),
    })
    self_by_layer = t.layer_self(job)
    times.update({
        "solvers.solve_s": float(t.dur[solve].sum()),
        "harness.save_s": float(t.dur[save].sum()),
        "bench.job_s": float(t.dur[t.mask(ROOT_JOB)].sum()),
    })
    for layer in ("bench", "solvers", "objective", "quality", "geometry", "harness", "model"):
        times[f"{layer}.self_s"] = self_by_layer.get(layer, 0.0)
    return counts, times


def measure_traced(w: Workload, seconds: float, spans_path: str) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        w.setup(tracer)
    finally:
        tracer.uninstall()
    setup = setup_layers(SpanTable(tracer.columns(), tracer.names))
    keep = len(tracer)
    untraced, traced, counts, times = [], [], None, []
    worst_residual = 0.0
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        untraced.append(w.run_pass(check=not untraced))
        lo = len(tracer)
        tracer.install()
        try:
            stats = w.run_pass(tracer, check=True)
        finally:
            tracer.uninstall()
        traced.append(stats)
        table = SpanTable(tracer.columns(lo), tracer.names)
        residual = table.root_self_residual(ROOT_JOB)
        worst_residual = max(worst_residual, residual)
        if residual > SELF_SUM_TOL_S:
            w.flag(f"layer self times miss their job span by {residual:.3g} s")
        pass_counts, pass_times = job_layers(table, stats)
        if counts is None:
            counts = pass_counts
            keep = len(tracer)
        elif pass_counts != counts:
            w.flag("per-layer counts differ between traced passes")
        times.append(pass_times)
        tracer.truncate(keep)
    cols = tracer.columns()
    np.savez(spans_path, names=np.array(tracer.names), **cols)
    metrics = dict(setup)
    metrics.update(counts)
    for key in times[0]:
        metrics[key] = statistics.median(p[key] for p in times)
    metrics["trace.overhead_frac"] = (
        _pass_time(traced, "job_times") / _pass_time(untraced, "job_times") - 1.0)
    metrics["objective_sum"] = w.objective_sum()
    metrics["trace.self_residual_s"] = worst_residual
    passes = untraced + traced
    attempted = sum(p["passed"] + p["failed"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "passes": len(passes), "spans": len(tracer), "spans_file": spans_path,
            "jobs": w.job_table(untraced)}


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "cache_limit": geometry.CACHE_LIMIT,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("manifest")
    ap.add_argument("result")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    w = Workload(manifest, os.path.dirname(os.path.abspath(args.manifest)))
    if args.trace:
        result = measure_traced(w, args.seconds, args.spans)
    else:
        result = measure(w, args.seconds)
    result["integrity"] = w.integrity
    result["env"] = environment()
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
