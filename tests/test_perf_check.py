#!/usr/bin/env python3
"""Unit tests for scripts/perf_check.py.

Exercises the comparison logic against synthetic reports, with a focus
on degenerate timings: bwsim emits a rate of 0 for runs that finish
below its wall-clock floor, and a hand-edited or corrupt report can
carry inf/NaN. None of those are regression signals -- the checker must
skip such rows with a warning instead of failing the build.

Run directly (python3 tests/test_perf_check.py) or via ctest.
"""

import contextlib
import importlib.util
import io
import json
import math
import os
import sys
import tempfile
import unittest

_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "scripts", "perf_check.py")
_spec = importlib.util.spec_from_file_location("perf_check", _SCRIPT)
perf_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_check)


def report(rates, probe=2.0, speedups=None):
    """Build a minimal perf report: {profile name: skip rate}.

    @p speedups optionally maps profile names to a skip-vs-lockstep
    "speedup" field (the median-of-ratios the harness emits).
    """
    return {
        "commit": "test",
        "host": {"machine": "test"},
        "profiles": [
            {"name": name, "skip": {"cycles_per_sec": rate},
             **({"speedup": speedups[name]}
                if speedups and name in speedups else {})}
            for name, rate in rates.items()
        ],
        "summary": {"latency_probe_speedup": probe},
    }


def with_counts(rep, **counts):
    """Set exact work counts on every row of @p rep; returns @p rep.

    core_cycles sits at the top of a row, the rest in its skip section,
    as `bwsim perf` writes them.
    """
    for row in rep["profiles"]:
        for field, value in counts.items():
            if field == "core_cycles":
                row[field] = value
            else:
                row.setdefault("skip", {})[field] = value
    return rep


COUNTS = {"core_cycles": 8768, "ticked_edges": 18939, "sm_slept": 127930,
          "l2_slept": 48895, "dram_slept": 31885}


class PerfCheckTest(unittest.TestCase):

    def run_check(self, fresh, base, env=None):
        """Run perf_check.main() on two in-memory reports.

        Returns (exit code, captured stdout+stderr).
        """
        with tempfile.TemporaryDirectory() as tmp:
            fresh_path = os.path.join(tmp, "fresh.json")
            base_path = os.path.join(tmp, "base.json")
            with open(fresh_path, "w", encoding="utf-8") as fh:
                json.dump(fresh, fh)
            with open(base_path, "w", encoding="utf-8") as fh:
                json.dump(base, fh)
            saved_argv = sys.argv
            saved_env = {k: os.environ.get(k)
                         for k in ("BWSIM_PERF_THRESHOLD",
                                   "BWSIM_PERF_SKIP_TOLERANCE",
                                   "BWSIM_PERF_SOFT")}
            out = io.StringIO()
            try:
                for k in saved_env:
                    os.environ.pop(k, None)
                os.environ.update(env or {})
                sys.argv = ["perf_check.py", fresh_path, base_path]
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(out):
                    rc = perf_check.main()
            finally:
                sys.argv = saved_argv
                for k, v in saved_env.items():
                    if v is None:
                        os.environ.pop(k, None)
                    else:
                        os.environ[k] = v
            return rc, out.getvalue()

    def test_healthy_comparison_passes(self):
        rc, out = self.run_check(report({"mm": 110.0, "lbm": 95.0}),
                                 report({"mm": 100.0, "lbm": 100.0}))
        self.assertEqual(rc, 0)
        self.assertIn("perf_check: OK", out)

    def test_real_regression_fails(self):
        rc, out = self.run_check(report({"mm": 50.0}),
                                 report({"mm": 100.0}))
        self.assertEqual(rc, 1)
        self.assertIn("REGRESSED", out)

    def test_soft_mode_demotes_regression(self):
        rc, out = self.run_check(report({"mm": 50.0}),
                                 report({"mm": 100.0}),
                                 env={"BWSIM_PERF_SOFT": "1"})
        self.assertEqual(rc, 0)
        self.assertIn("not failing the build", out)

    def test_threshold_env_respected(self):
        # 0.80x drop passes at threshold 0.25 but fails at 0.10.
        rc, _ = self.run_check(report({"mm": 80.0}),
                               report({"mm": 100.0}),
                               env={"BWSIM_PERF_THRESHOLD": "0.25"})
        self.assertEqual(rc, 0)
        rc, _ = self.run_check(report({"mm": 80.0}),
                               report({"mm": 100.0}),
                               env={"BWSIM_PERF_THRESHOLD": "0.10"})
        self.assertEqual(rc, 1)

    def test_zero_fresh_rate_skipped_not_regressed(self):
        # bwsim reports rate 0 for sub-floor wall times; must not be
        # treated as an infinite regression.
        rc, out = self.run_check(report({"mm": 0.0, "lbm": 100.0}),
                                 report({"mm": 100.0, "lbm": 100.0}))
        self.assertEqual(rc, 0)
        self.assertIn("skipped (degenerate rate", out)
        self.assertNotIn("REGRESSED", out)

    def test_zero_baseline_rate_skipped(self):
        # The pre-fix checker scored this row 0.00x and failed.
        rc, out = self.run_check(report({"mm": 100.0}),
                                 report({"mm": 0.0}))
        self.assertEqual(rc, 0)
        self.assertIn("skipped (degenerate rate", out)

    def test_nonfinite_rates_skipped(self):
        for bad in (math.inf, math.nan, -5.0, None):
            rc, out = self.run_check(report({"mm": bad}),
                                     report({"mm": 100.0}))
            self.assertEqual(rc, 0, f"rate {bad!r} should be skipped")
            self.assertIn("skipped (degenerate rate", out)

    def test_missing_skip_section_skipped(self):
        fresh = report({"mm": 100.0})
        del fresh["profiles"][0]["skip"]
        rc, out = self.run_check(fresh, report({"mm": 100.0}))
        self.assertEqual(rc, 0)
        self.assertIn("skipped (degenerate rate", out)

    def test_missing_profile_still_fails(self):
        rc, out = self.run_check(report({}), report({"mm": 100.0}))
        self.assertEqual(rc, 1)
        self.assertIn("missing from fresh report", out)

    def test_probe_regression_still_fails(self):
        rc, out = self.run_check(report({"mm": 100.0}, probe=0.9),
                                 report({"mm": 100.0}))
        self.assertEqual(rc, 1)
        self.assertIn("no longer beats lockstep", out)

    def test_degenerate_probe_skipped(self):
        for bad in (0.0, math.inf, math.nan):
            rc, out = self.run_check(report({"mm": 100.0}, probe=bad),
                                     report({"mm": 100.0}))
            self.assertEqual(rc, 0, f"probe {bad!r} should be skipped")
            self.assertIn("latency probe speedup skipped", out)

    def test_skip_slower_than_lockstep_fails(self):
        rc, out = self.run_check(
            report({"mm": 100.0}, speedups={"mm": 0.7}),
            report({"mm": 100.0}))
        self.assertEqual(rc, 1)
        self.assertIn("SLOWER THAN LOCKSTEP", out)

    def test_skip_within_tolerance_passes(self):
        # 0.90x is inside the default 15% tolerance.
        rc, out = self.run_check(
            report({"mm": 100.0}, speedups={"mm": 0.90}),
            report({"mm": 100.0}))
        self.assertEqual(rc, 0)
        self.assertNotIn("SLOWER THAN LOCKSTEP", out)

    def test_skip_tolerance_env_respected(self):
        rc, _ = self.run_check(
            report({"mm": 100.0}, speedups={"mm": 0.90}),
            report({"mm": 100.0}),
            env={"BWSIM_PERF_SKIP_TOLERANCE": "0.05"})
        self.assertEqual(rc, 1)
        rc, _ = self.run_check(
            report({"mm": 100.0}, speedups={"mm": 0.70}),
            report({"mm": 100.0}),
            env={"BWSIM_PERF_SKIP_TOLERANCE": "0.40"})
        self.assertEqual(rc, 0)

    def test_skip_check_soft_mode(self):
        rc, out = self.run_check(
            report({"mm": 100.0}, speedups={"mm": 0.5}),
            report({"mm": 100.0}),
            env={"BWSIM_PERF_SOFT": "1"})
        self.assertEqual(rc, 0)
        self.assertIn("not failing the build", out)

    def test_skip_check_rate_fallback(self):
        # Old reports carry no "speedup" field; fall back to the
        # best-of rate ratio when both mode rates are present.
        fresh = report({"mm": 50.0})
        fresh["profiles"][0]["lockstep"] = {"cycles_per_sec": 100.0}
        rc, out = self.run_check(fresh, report({"mm": 50.0}))
        self.assertEqual(rc, 1)
        self.assertIn("SLOWER THAN LOCKSTEP", out)

    def test_skip_check_degenerate_row_skipped(self):
        # No speedup field and no lockstep rate: nothing to compare.
        rc, out = self.run_check(report({"mm": 100.0}),
                                 report({"mm": 100.0}))
        self.assertEqual(rc, 0)
        self.assertIn("skip-vs-lockstep skipped", out)

    def test_skip_speedup_helper(self):
        self.assertEqual(
            perf_check.skip_speedup({"speedup": 1.5}), 1.5)
        self.assertEqual(
            perf_check.skip_speedup(
                {"lockstep": {"cycles_per_sec": 100.0},
                 "skip": {"cycles_per_sec": 50.0}}), 0.5)
        self.assertIsNone(perf_check.skip_speedup({}))
        self.assertIsNone(
            perf_check.skip_speedup({"speedup": math.nan}))

    def exact_check(self, fresh_counts, env=None):
        """Compare one row carrying @p fresh_counts with COUNTS."""
        return self.run_check(
            with_counts(report({"mm": 100.0}), **fresh_counts),
            with_counts(report({"mm": 100.0}), **COUNTS), env=env)

    def test_identical_exact_counts_pass(self):
        rc, out = self.exact_check(COUNTS)
        self.assertEqual(rc, 0)
        self.assertIn("perf_check: OK", out)
        self.assertNotIn("EXACT", out)

    def test_moved_cycles_or_edges_fail_even_soft(self):
        # Both directions: fewer cycles or edges is a behaviour change
        # too, not a speed-up of the same work.
        for field in ("core_cycles", "ticked_edges"):
            for delta in (1, -1):
                moved = dict(COUNTS, **{field: COUNTS[field] + delta})
                for env in (None, {"BWSIM_PERF_SOFT": "1"}):
                    rc, out = self.exact_check(moved, env=env)
                    self.assertEqual(rc, 1, f"{field} {delta:+d} {env}")
                    self.assertIn(f"mm: {field} ", out)
                    self.assertIn("EXACT", out)

    def test_fewer_slept_ticks_fail_even_soft(self):
        for field in ("sm_slept", "l2_slept", "dram_slept"):
            fewer = dict(COUNTS, **{field: COUNTS[field] - 1})
            for env in (None, {"BWSIM_PERF_SOFT": "1"}):
                rc, out = self.exact_check(fewer, env=env)
                self.assertEqual(rc, 1, f"{field} {env}")
                self.assertIn(f"mm: {field} ", out)
                self.assertIn("sleep engages less", out)

    def test_more_slept_ticks_pass(self):
        for field in ("sm_slept", "l2_slept", "dram_slept"):
            more = dict(COUNTS, **{field: COUNTS[field] + 1})
            rc, out = self.exact_check(more)
            self.assertEqual(rc, 0, field)
            self.assertNotIn("EXACT", out)

    def test_soft_mode_still_softens_rates_when_counts_match(self):
        rc, out = self.run_check(
            with_counts(report({"mm": 50.0}), **COUNTS),
            with_counts(report({"mm": 100.0}), **COUNTS),
            env={"BWSIM_PERF_SOFT": "1"})
        self.assertEqual(rc, 0)
        self.assertIn("REGRESSED", out)
        self.assertIn("not failing the build", out)

    def test_exact_counts_compared_only_where_both_have_them(self):
        # A row or a field that only one report carries is not
        # compared.
        fresh = with_counts(report({"mm": 100.0, "lbm": 100.0}),
                            **COUNTS)
        base = with_counts(report({"mm": 100.0}), **COUNTS)
        del base["profiles"][0]["skip"]["ticked_edges"]
        fresh["profiles"][0]["core_cycles"] = 1
        base["profiles"][0].pop("core_cycles")
        rc, out = self.run_check(fresh, base)
        self.assertEqual(rc, 0, out)
        self.assertNotIn("EXACT", out)

    def test_exact_count_helper(self):
        row = with_counts(report({"mm": 1.0}), **COUNTS)["profiles"][0]
        self.assertEqual(perf_check.exact_count(row, ("core_cycles",)),
                         8768)
        self.assertEqual(
            perf_check.exact_count(row, ("skip", "sm_slept")), 127930)
        self.assertIsNone(perf_check.exact_count(row, ("lockstep", "x")))
        for bad in (1.5, True, "7", None):
            row["core_cycles"] = bad
            self.assertIsNone(
                perf_check.exact_count(row, ("core_cycles",)), repr(bad))

    def test_usable_rate_predicate(self):
        self.assertTrue(perf_check.usable_rate(1.0))
        self.assertTrue(perf_check.usable_rate(42))
        for bad in (0.0, -1.0, math.inf, -math.inf, math.nan,
                    None, "100", []):
            self.assertFalse(perf_check.usable_rate(bad), repr(bad))


if __name__ == "__main__":
    unittest.main()
