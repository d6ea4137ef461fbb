"""Compare two golden recordings run by run, allowing last-bit gain changes.

    python tests/golden/compare.py OLD NEW

OLD and NEW are both case files (`<name>.json`) or both outputs of
`record.py --batch`. Runs are paired by (case, config). For each pair that
differs it prints whether the solution, the start or the moves (step, kind,
cluster, elements) changed, and the largest relative difference of a gain.
The last line reads `K of N runs differ: within tolerance` (or `DIFFERENT`).

Exit status 1 when a run is missing from one side, a solution, start or
move differs, or a gain differs by more than GAIN_RTOL relative; else 0.
"""

from __future__ import annotations

import json
import sys

GAIN_RTOL = 1e-12


def load_runs(path: str) -> dict:
    """{(case, config): run} over every JSON object in the file."""
    with open(path) as fh:
        text = fh.read()
    decoder, at, runs = json.JSONDecoder(), 0, {}
    while True:
        while at < len(text) and text[at].isspace():
            at += 1
        if at == len(text):
            return runs
        payload, at = decoder.raw_decode(text, at)
        for run in payload["runs"]:
            runs[payload["case"], run["config"]] = run


def _moves(run: dict) -> list:
    return [event[:4] for event in run["events"]]


def gain_rdiff(old: dict, new: dict) -> float:
    """Largest relative difference between the gains of two runs' paired events."""
    worst = 0.0
    for a, b in zip(old["events"], new["events"]):
        a, b = float.fromhex(a[4]), float.fromhex(b[4])
        if a != b:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return worst


def compare(old_runs: dict, new_runs: dict, out=sys.stdout) -> tuple:
    """Print every differing run; return (how many differ, whether all of
    them are within tolerance)."""
    ok, differ = True, 0
    for key in sorted(old_runs.keys() | new_runs.keys()):
        case, config = key
        if key not in old_runs or key not in new_runs:
            print(f"{case} {config}: only in {'new' if key in new_runs else 'old'}", file=out)
            ok, differ = False, differ + 1
            continue
        old, new = old_runs[key], new_runs[key]
        if old == new:
            continue
        differ += 1
        changed = [part for part, same in (("solution", old["solution"] == new["solution"]),
                                           ("start", old["init"] == new["init"]),
                                           ("moves", _moves(old) == _moves(new))) if not same]
        rdiff = gain_rdiff(old, new)
        print(f"{case} {config}: changed {', '.join(changed) or 'gains only'}; "
              f"largest relative gain difference {rdiff:.3g}", file=out)
        ok = ok and not changed and rdiff <= GAIN_RTOL
    return differ, ok


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: compare.py OLD NEW", file=sys.stderr)
        return 2
    old_runs, new_runs = load_runs(argv[0]), load_runs(argv[1])
    differ, ok = compare(old_runs, new_runs)
    print(f"{differ} of {len(old_runs.keys() | new_runs.keys())} runs differ: "
          f"{'within tolerance' if ok else 'DIFFERENT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
