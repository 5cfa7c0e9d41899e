#!/usr/bin/env python3
"""Unit tests for bench_compare's direction handling.

bench_compare has no .py extension (it is installed as a command), so the
module is loaded by path with SourceFileLoader. Run directly or via ctest
(registered in tools/CMakeLists.txt when a python3 interpreter is found).
"""
import importlib.machinery
import importlib.util
import json
import os
import tempfile
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
_LOADER = importlib.machinery.SourceFileLoader(
    "bench_compare", os.path.join(_HERE, "bench_compare"))
_SPEC = importlib.util.spec_from_loader("bench_compare", _LOADER)
bench_compare = importlib.util.module_from_spec(_SPEC)
_LOADER.exec_module(bench_compare)


def _write(dirname: str, filename: str, records: dict) -> str:
    """records maps a name to (median, better)."""
    path = os.path.join(dirname, filename)
    with open(path, "w") as f:
        json.dump([{"name": n, "median": v, "p95": v, "unit": "ms",
                    "better": better}
                   for n, (v, better) in records.items()], f)
    return path


class CompareTest(unittest.TestCase):
    def compare(self, base: dict, cur: dict, threshold: float = 25.0) -> list:
        with tempfile.TemporaryDirectory() as d:
            return bench_compare.compare(
                _write(d, "base.json", base), _write(d, "cur.json", cur),
                threshold)

    def test_timing_regression_is_flagged(self):
        failed = self.compare({"optimal_medium_t4": (10.0, "lower")},
                              {"optimal_medium_t4": (20.0, "lower")})
        self.assertEqual(failed, ["optimal_medium_t4"])

    def test_timing_improvement_passes(self):
        self.assertEqual(
            self.compare({"optimal_medium_t4": (20.0, "lower")},
                         {"optimal_medium_t4": (10.0, "lower")}), [])

    def test_speedup_gain_is_not_a_regression(self):
        # Higher is better for speedups: doubling one must pass.
        self.assertEqual(
            self.compare({"optimal_medium_speedup_4t_x": (1.0, "higher")},
                         {"optimal_medium_speedup_4t_x": (2.0, "higher")}), [])

    def test_speedup_drop_is_flagged(self):
        failed = self.compare({"optimal_medium_speedup_4t_x": (2.0, "higher")},
                              {"optimal_medium_speedup_4t_x": (1.0, "higher")})
        self.assertEqual(failed, ["optimal_medium_speedup_4t_x"])

    def test_informational_records_never_gate(self):
        # Counters drift whenever pruning improves; huge swings in either
        # direction are informational only.
        self.assertEqual(
            self.compare({"optimal_large_steals_count": (1000.0, "none"),
                          "optimal_large_memo_count": (5.0, "none")},
                         {"optimal_large_steals_count": (1.0, "none"),
                          "optimal_large_memo_count": (9999.0, "none")}),
            [])

    def test_unshared_records_are_ignored(self):
        self.assertEqual(
            self.compare({"old_only_t1": (10.0, "lower")},
                         {"new_only_t1": (10.0, "lower")}), [])

    def test_within_threshold_passes(self):
        self.assertEqual(
            self.compare({"optimal_small_t1": (10.0, "lower")},
                         {"optimal_small_t1": (12.0, "lower")}), [])

    def test_record_without_direction_is_refused(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "old.json")
            with open(path, "w") as f:
                json.dump([{"name": "optimal_small_t1", "median_ms": 1.0,
                            "p95_ms": 1.0}], f)
            with self.assertRaises(SystemExit):
                bench_compare.load(path)


if __name__ == "__main__":
    unittest.main()
