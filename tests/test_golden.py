"""Golden-output corpus: every case re-solves to the recorded bytes.

The corpus under tests/golden/ was recorded before the solvers' bookkeeping
was refactored; see tests/golden/record.py for the cases and how to
regenerate them after a deliberate behaviour change.
"""

import difflib
import importlib.util
import os

from divmax import geometry

_spec = importlib.util.spec_from_file_location(
    "golden_record", os.path.join(os.path.dirname(__file__), "golden", "record.py"))
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


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
