"""Golden-output corpus: every case re-solves to the recorded bytes.

The corpus under tests/golden/ was recorded before the solvers' bookkeeping
was refactored; see tests/golden/record.py for the cases and how to
regenerate them after a deliberate behaviour change, and
tests/golden/compare.py for telling moved last bits of gains from changed
solutions and moves.
"""

import difflib
import importlib.util
import json
import os

import numpy as np

from divmax import geometry


def _golden_module(name: str):
    spec = importlib.util.spec_from_file_location(
        f"golden_{name}", os.path.join(os.path.dirname(__file__), "golden", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


record, compare = _golden_module("record"), _golden_module("compare")


def test_corpus_covers_every_path():
    names = record.case_names()
    assert len(names) >= 15
    configs = {c for name in names for c in record.configs_for(name, record.load_case(name))}
    assert configs == set(record.CONFIGS)
    for name in record.UNCACHED:
        big = record.load_case(name)
        assert big.n > geometry.CACHE_LIMIT and big.oracle()._cache is None


def test_corpus_resolves_byte_identical():
    for name in record.case_names():
        with open(record.expected_path(name)) as fh:
            want = fh.read()
        got = record.solve_case(name)
        if got != want:
            diff = "\n".join(list(difflib.unified_diff(
                want.splitlines(), got.splitlines(), "recorded", "now", lineterm=""))[:40])
            raise AssertionError(f"golden case {name!r} differs:\n{diff}")


def test_compare_allows_last_bit_gains_only(tmp_path, capsys):
    with open(record.expected_path("odd-zero")) as fh:
        payload = json.load(fh)
    runs = len(payload["runs"])
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(record.render(payload))
    event = payload["runs"][0]["events"][0]
    event[4] = float(np.nextafter(float.fromhex(event[4]), np.inf)).hex()
    new.write_text(record.render(payload))
    assert new.read_text() != old.read_text()
    assert compare.main([str(old), str(new)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"1 of {runs} runs differ: within tolerance"
    event[3][0] += 1  # one element of one move
    new.write_text(record.render(payload))
    assert compare.main([str(old), str(new)]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"1 of {runs} runs differ: DIFFERENT"


def test_batch_digest_matches_recorded():
    """The 2 280-run differential batch of record.py --batch reproduces the
    SHA-256 in golden/batch.sha256: every solution, move and gain bit of 152
    seeded instances under every config but exact."""
    with open(os.path.join(os.path.dirname(__file__), "golden", "batch.sha256")) as fh:
        want = fh.read().strip()
    assert record.batch_digest() == want
