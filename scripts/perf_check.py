#!/usr/bin/env python3
"""Compare a fresh `bwsim perf` report against the committed baseline.

    python3 scripts/perf_check.py BENCH_fresh.json BENCH_fig10.json

Fails (exit 1) if any profile's skip-scheduler simulation rate
regressed by more than the threshold (default 30%), if the skip
scheduler runs slower than lockstep on any profile of the fresh report
beyond a tolerance (default 15%), or if the latency probe no longer
beats lockstep. CI machines are noisy and differ from the machine that
produced the committed baseline, so these rate checks can be demoted
to a warning by setting BWSIM_PERF_SOFT=1 (exit 0 with the same report
printed).

The exact work counts are not rates: a row's `core_cycles` and
`ticked_edges` and its slept SM, L2-bank and DRAM-channel ticks are
the same on every host and every run of one binary. So a row present
in both reports fails, even under BWSIM_PERF_SOFT=1, when its
`core_cycles` or `ticked_edges` differ, or when it slept fewer ticks
(`sm_slept`, `l2_slept` or `dram_slept` dropped): the simulation
changed, or sleep engages less. A change that means to move them
regenerates the committed baseline with them.

Environment:
    BWSIM_PERF_THRESHOLD       allowed fractional rate drop vs the
                               committed baseline (default 0.30)
    BWSIM_PERF_SKIP_TOLERANCE  allowed fractional skip-vs-lockstep
                               shortfall within the fresh report
                               (default 0.15)
    BWSIM_PERF_SOFT            "1" to report regressions without
                               failing
"""

import json
import math
import os
import sys


def load(path):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    return {p["name"]: p for p in report["profiles"]}, report


def usable_rate(rate):
    """A rate is comparable only if it is a finite positive number.

    Zero or absent rates mark degenerate timings (bwsim reports 0 for
    sub-microsecond wall times); inf/NaN can only come from a corrupt
    or hand-edited report. Neither is a regression signal.
    """
    return (isinstance(rate, (int, float)) and math.isfinite(rate)
            and rate > 0.0)


def skip_speedup(profile):
    """The profile's skip-vs-lockstep speedup, or None if unusable.

    Prefers the report's own "speedup" field (the median of paired
    per-rep ratios, robust to machine-load drift across the run);
    falls back to the best-of rate ratio for older reports.
    """
    s = profile.get("speedup")
    if usable_rate(s):
        return s
    ls = profile.get("lockstep", {}).get("cycles_per_sec")
    sk = profile.get("skip", {}).get("cycles_per_sec")
    if usable_rate(ls) and usable_rate(sk):
        return sk / ls
    return None


# Exact work counts, as paths into a profile row. The first must
# match the baseline exactly; the second must not fall below it.
EXACT_COUNTS = (("core_cycles",), ("skip", "ticked_edges"))
SLEPT_COUNTS = (("skip", "sm_slept"), ("skip", "l2_slept"),
                ("skip", "dram_slept"))


def exact_count(profile, path):
    """The integer at @p path in a profile row, or None if absent."""
    value = profile
    for key in path:
        if not isinstance(value, dict):
            return None
        value = value.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        return None
    return value


def exact_count_failures(fresh_profiles, base_profiles):
    """Rows in both reports whose exact work counts moved the wrong way."""
    failures = []
    for name, b in base_profiles.items():
        f = fresh_profiles.get(name)
        if f is None:
            continue
        for path in EXACT_COUNTS + SLEPT_COUNTS:
            fv, bv = exact_count(f, path), exact_count(b, path)
            if fv is None or bv is None:
                continue
            field = path[-1]
            if path in EXACT_COUNTS and fv != bv:
                failures.append(f"{name}: {field} {fv} != baseline {bv}")
            elif path in SLEPT_COUNTS and fv < bv:
                failures.append(f"{name}: {field} {fv} < baseline {bv} "
                                "(sleep engages less)")
    return failures


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    fresh_profiles, fresh = load(sys.argv[1])
    base_profiles, base = load(sys.argv[2])
    threshold = float(os.environ.get("BWSIM_PERF_THRESHOLD", "0.30"))
    tolerance = float(
        os.environ.get("BWSIM_PERF_SKIP_TOLERANCE", "0.15"))
    soft = os.environ.get("BWSIM_PERF_SOFT", "") == "1"

    print(f"baseline: commit {base.get('commit', '?')} "
          f"on {base.get('host', {}).get('machine', '?')}")
    print(f"fresh:    commit {fresh.get('commit', '?')} "
          f"on {fresh.get('host', {}).get('machine', '?')}")

    failures = []
    for name, b in base_profiles.items():
        f = fresh_profiles.get(name)
        if f is None:
            failures.append(f"{name}: missing from fresh report")
            continue
        b_rate = b.get("skip", {}).get("cycles_per_sec")
        f_rate = f.get("skip", {}).get("cycles_per_sec")
        if not usable_rate(b_rate) or not usable_rate(f_rate):
            print(f"  {name}: skipped (degenerate rate: "
                  f"fresh {f_rate!r}, baseline {b_rate!r})")
            continue
        ratio = f_rate / b_rate
        marker = ""
        if ratio < 1.0 - threshold:
            marker = "  <-- REGRESSED"
            failures.append(
                f"{name}: {f_rate:.0f} vs baseline {b_rate:.0f} "
                f"cycles/sec ({ratio:.2f}x, threshold {1 - threshold:.2f}x)")
        print(f"  {name}: {f_rate:>12.0f} cycles/sec "
              f"({ratio:.2f}x of baseline){marker}")

    # The skip scheduler must not lose to lockstep on any profile of
    # the fresh report itself: congested profiles are exactly where
    # per-component sleep has to pay for its horizon checks on every
    # visit, so a sub-1.0x row means sleep regressed even if the
    # absolute rate still clears the baseline threshold.
    for name, f in fresh_profiles.items():
        s = skip_speedup(f)
        if s is None:
            print(f"  {name}: skip-vs-lockstep skipped (degenerate "
                  "timings)")
            continue
        marker = ""
        if s < 1.0 - tolerance:
            marker = "  <-- SLOWER THAN LOCKSTEP"
            failures.append(
                f"{name}: skip scheduler at {s:.2f}x of lockstep "
                f"(tolerance {1 - tolerance:.2f}x)")
        print(f"  {name}: skip {s:.2f}x lockstep{marker}")

    probe = fresh.get("summary", {}).get("latency_probe_speedup", 0.0)
    if not usable_rate(probe):
        print(f"  latency probe speedup skipped (degenerate: {probe!r})")
    else:
        print(f"  latency probe speedup: {probe:.2f}x (must stay > 1)")
        if probe <= 1.0:
            failures.append(
                f"latency probe speedup {probe:.2f}x: skip "
                "scheduler no longer beats lockstep")

    exact = exact_count_failures(fresh_profiles, base_profiles)
    print(f"  exact work counts: {len(exact)} row field(s) moved")

    if failures:
        print("\nperf_check: regressions detected:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
    if exact:
        print("\nperf_check: exact work counts differ from the "
              "baseline (never softened):", file=sys.stderr)
        for f in exact:
            print(f"  - {f}  <-- EXACT", file=sys.stderr)
        return 1
    if failures:
        if soft:
            print("perf_check: BWSIM_PERF_SOFT=1, not failing the build",
                  file=sys.stderr)
            return 0
        return 1
    print("perf_check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
