"""Self-test of the benchmark at tiny sizes; run from the repository root:

    python3 perfbench/selftest.py

For every workload it checks that an untraced run prints every end_to_end
metric of BENCHMARK.json with its unit, that a traced run prints every
per_layer metric with its unit, and that two traced runs on the same seed
give identical per-layer counts and an identical objective_sum. It also
checks that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
COUNT_SUFFIXES = ("_calls", "_elems", "_bytes", "bytes_read", "bytes_written",
                  "solvers.events", "solvers.ls_swaps", "solvers.ls_cap_hits",
                  "solvers.oracle_calls_per_event")


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int, errors: list, listed: list) -> dict:
    proc = _run(ROOT, workload, trace)
    if proc.returncode != 0:
        errors.append(f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return {}
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(final) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{workload} trace {trace}: result keys {sorted(final)}")
    if not final.get("correct"):
        errors.append(f"{workload} trace {trace}: correct is false")
    for m in listed:
        got = final["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            errors.append(f"{workload} trace {trace}: {m['name']} printed as {got}")
    saved = ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-trace{trace}.json"
    return json.loads(saved.read_text())["metrics"]


def _bare_directory_fails(errors: list) -> None:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(bare, "pairs-cached", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for w in (w["name"] for w in spec["workloads"]):
        _result(w, 0, errors, spec["end_to_end"])
        first = _result(w, 1, errors, spec["per_layer"])
        second = _result(w, 1, errors, spec["per_layer"])
        for key in sorted(set(first) | set(second)):
            if (key.endswith(COUNT_SUFFIXES) or key == "objective_sum") and \
                    first.get(key) != second.get(key):
                errors.append(f"{w}: {key} differs between traced runs: "
                              f"{first.get(key)} != {second.get(key)}")
        print(f"{w}: checked", flush=True)
    _bare_directory_fails(errors)
    for err in errors:
        print(f"FAIL {err}")
    print("selftest: " + ("ok" if not errors else f"{len(errors)} failures"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
