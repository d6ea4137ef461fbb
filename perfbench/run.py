"""divmax benchmark: one workload, one seed, one fresh measuring process.

Run from the repository root:

    python3 perfbench/run.py --workload pairs-cached --seed 1 --seconds 20 --trace 0

Steps: generate the workload's instances from the seed and write them as
canonical JSON (untimed), start worker.py in a fresh process with
PYTHONPATH=src and one BLAS thread, read its result, print a readable
summary, and print as the last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
`end_to_end` list of BENCHMARK.json, with --trace 1 the `per_layer` list.

`failed` counts jobs that raised or failed an output check. `correct` is
false when the benchmark itself cannot vouch for the numbers: invalid
generated input, solutions that change between passes, traced solutions that
differ from untraced ones, layer self times that do not add up to their job
span, or a metric missing. Results and spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 175.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _summary(args, result: dict, names: list, units: dict) -> None:
    env = result["env"]
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} (seed {args.seed}, scale {args.scale}, trace {args.trace}): "
          f"{result['passes']} passes, {result['attempted']} jobs attempted, "
          f"{result['failed']} failed")
    print(f"why: {result['why']}")
    metrics = result["metrics"]
    width = max(len(k) for k in metrics)
    shown = names + [k for k in sorted(metrics) if k not in names]
    for key in shown:
        unit = units.get(key, "(not in BENCHMARK.json)")
        print(f"  {key:<{width}}  {metrics[key]:.6g}  {unit}")
    for row in result["jobs"]:
        status = "ok" if not row["failures"] else "FAILED: " + "; ".join(row["failures"][:2])
        solve = row["solve_s_median"]
        solve = f"{solve:.4f}s" if solve is not None else "-"
        print(f"  job {row['job']:>2} {row['instance']:<10} {row['label']:<8} "
              f"solve {solve:>9}  objective {row['objective']}  {status}")
    for err in result["integrity"]:
        print(f"  INTEGRITY: {err}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    started = time.monotonic()
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the
    # worker and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "divmax" / "__init__.py").is_file():
        return _fail(f"no divmax sources under {ROOT / 'src'}")
    if not bench_file.is_file():
        return _fail(f"missing {bench_file}")
    spec = json.loads(bench_file.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: E402  (needs src on sys.path)

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in listed]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    out_dir = ROOT / ".perfbench_out"
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    work.mkdir(parents=True)
    try:
        manifest = workloads.generate(args.workload, args.seed, args.scale, str(work))
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(manifest, indent=2))
        result_path = work / "result.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.update({k: "1" for k in BLAS_ENV})
        cmd = [sys.executable, str(HERE / "worker.py"), str(manifest_path), str(result_path),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spans", str(out_dir / f"spans-{args.workload}.npz")]
        timeout = DEADLINE_S - (time.monotonic() - started)
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired:
            return _fail(f"measuring process exceeded {DEADLINE_S:.0f} s")
        if proc.returncode != 0:
            return _fail(f"measuring process exited with {proc.returncode}")
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result["why"] = manifest["why"]
    result["env"].update({"git_commit": _git_commit(), "seed": args.seed,
                          "workload": args.workload, "scale": args.scale,
                          "seconds": args.seconds, "trace": args.trace})
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        result["integrity"].append(f"metrics not measured: {', '.join(missing)}")
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True))
    _summary(args, result, names, units)
    final = {
        "correct": not result["integrity"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n], "unit": units[n]}
                    for n in names if n in result["metrics"]},
    }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
