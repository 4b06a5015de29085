#!/usr/bin/env python3
"""Selftest for bench_compare: proves a regression beyond the tolerance, a
dropped cell and malformed input each fail, and that equal, improved and
within-tolerance cells pass. Runs as the ctest `bench_compare.selftest` and
standalone (`python3 tools/test_bench_compare.py`)."""

from __future__ import annotations

import io
import json
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_compare  # noqa: E402

KEYS = ["kind", "strategy"]


def cell(kind: str, strategy: str, rmse: float) -> dict:
    return {"kind": kind, "strategy": strategy, "rmse": rmse}


def run_cli(base: object, new: object, *args: str) -> int:
    """Writes both records to a temp dir and runs main(); returns the exit."""
    with tempfile.TemporaryDirectory() as td:
        b, n = Path(td) / "base.json", Path(td) / "new.json"
        b.write_text(json.dumps(base))
        n.write_text(new if isinstance(new, str) else json.dumps(new))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return bench_compare.main([str(b), str(n), *args])


class MetricSpecTest(unittest.TestCase):
    def test_name_and_tolerance_parsed(self):
        m = bench_compare.parse_metric("rmse:1.02")
        self.assertEqual(m, bench_compare.Metric("rmse", 1.02))

    def test_bad_specs_rejected(self):
        for spec in ["", "rmse", ":1.02", "rmse:x", "rmse:0.9",
                     "rmse:lower:1.02"]:
            with self.assertRaises(bench_compare.InputError, msg=spec):
                bench_compare.parse_metric(spec)


class CompareTest(unittest.TestCase):
    RMSE = [bench_compare.Metric("rmse", 1.02)]

    def test_equal_and_improved_cells_pass(self):
        base = [cell("stuck", "plain", 0.10), cell("stuck", "trimmed", 0.02)]
        new = [cell("stuck", "plain", 0.10), cell("stuck", "trimmed", 0.01)]
        findings, added = bench_compare.compare(base, new, KEYS, self.RMSE)
        self.assertEqual(findings, [])
        self.assertEqual(added, [])

    def test_within_tolerance_passes_beyond_fails(self):
        base = [cell("line", "plain", 0.100), cell("line", "trimmed", 0.100)]
        new = [cell("line", "plain", 0.1019), cell("line", "trimmed", 0.1021)]
        findings, _ = bench_compare.compare(base, new, KEYS, self.RMSE)
        self.assertEqual([f.key for f in findings], [("line", "trimmed")])
        self.assertEqual(findings[0].metric, "rmse")

    def test_dropped_cell_fails_added_cell_is_listed(self):
        base = [cell("a", "plain", 0.1), cell("b", "plain", 0.1)]
        new = [cell("a", "plain", 0.1), cell("c", "plain", 0.1)]
        findings, added = bench_compare.compare(base, new, KEYS, self.RMSE)
        self.assertEqual([(f.key, f.metric) for f in findings],
                         [(("b", "plain"), "")])
        self.assertEqual(added, [("c", "plain")])

    def test_numeric_key_fields_match(self):
        base = [{"kind": "s", "severity": 0.05, "rmse": 0.1}]
        new = [{"kind": "s", "severity": 0.05, "rmse": 0.2}]
        findings, _ = bench_compare.compare(base, new, ["kind", "severity"],
                                            self.RMSE)
        self.assertEqual(len(findings), 1)

    def test_malformed_records_rejected(self):
        ok = [cell("a", "plain", 0.1)]
        bad_inputs = [
            ({"not": "an array"}, ok),
            ([cell("a", "plain", 0.1), cell("a", "plain", 0.2)], ok),
            ([{"kind": "a", "rmse": 0.1}], ok),  # no strategy key field
            (ok, [{"kind": "a", "strategy": "plain", "rmse": "0.1"}]),
            (ok, [{"kind": "a", "strategy": "plain", "rmse": True}]),
        ]
        for base, new in bad_inputs:
            with self.assertRaises(bench_compare.InputError):
                bench_compare.compare(base, new, KEYS, self.RMSE)


class CliTest(unittest.TestCase):
    BASE = [cell("a", "plain", 0.10)]

    def test_exit_codes(self):
        args = ["--key", "kind", "--key", "strategy", "--metric",
                "rmse:1.02"]
        self.assertEqual(run_cli(self.BASE, [cell("a", "plain", 0.101)],
                                 *args), 0)
        self.assertEqual(run_cli(self.BASE, [cell("a", "plain", 0.11)],
                                 *args), 1)
        self.assertEqual(run_cli(self.BASE, [], *args), 1)
        self.assertEqual(run_cli(self.BASE, "not json", *args), 2)
        self.assertEqual(run_cli(self.BASE, self.BASE, "--key", "kind"), 2)

    def test_missing_file_is_a_usage_error(self):
        with tempfile.TemporaryDirectory() as td:
            missing = str(Path(td) / "absent.json")
            with redirect_stdout(io.StringIO()), \
                    redirect_stderr(io.StringIO()):
                code = bench_compare.main([missing, missing, "--key", "k",
                                           "--metric", "rmse:1.02"])
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
