#!/usr/bin/env python3
"""CI bench-regression gate: diff stream_throughput --json artifacts
against the checked-in baselines.

    bench/check_bench_gate.py <artifact.json>... <baseline.json>

Given several artifacts (repeated runs of the same preset), each metric of
each scenario is gated at its median across them, so one noisy sample on a
shared runner neither fails nor passes the gate by itself. A scenario
regresses when that median exceeds the baseline by more than the
per-metric threshold:

  - RSS growth:  max(baseline * 1.25, baseline + 4 MiB)
  - wall time:   baseline * 1.15 + 0.25 s
  - spill runs:  max(baseline * 1.5, baseline + 1)
  - bytes read:  baseline * 1.25 + 256 KiB

The relative parts are the gate the ISSUE specifies (>25% RSS, >15% wall);
the absolute floors keep small smoke-size numbers (a 3 MiB RSS reading, a
40 ms wall reading) from flapping on runner noise while still catching the
order-of-magnitude regressions the gate exists for (a window stage falling
back to materialize reads as +40 MiB, not +4).

The last two are *structural* counters, not timings, so they are nearly
deterministic at fixed --mb/--spill-mb: spill_runs catches a node whose
accumulation stopped respecting the threshold (more runs = smaller
effective batches = threshold regression; runs appearing where the
baseline has none = a resident path started spilling), and bytes_read
catches broken upstream cancellation (the early-exit scenario's baseline
reads ~64 KiB of a 16 MiB input — a reader that stops noticing cancel
drains everything, two orders of magnitude past the limit). Scenarios
whose baseline predates a counter simply skip that check.

Exit status: 0 clean, 1 regression or missing scenario, 2 usage/IO error.
"""

import json
import statistics
import sys

RSS_REL = 1.25
RSS_ABS_FLOOR = 4 * 1024 * 1024
WALL_REL = 1.15
WALL_ABS_FLOOR = 0.25
SPILL_RUNS_REL = 1.5
SPILL_RUNS_ABS_FLOOR = 1
BYTES_READ_REL = 1.25
BYTES_READ_ABS_FLOOR = 256 * 1024


METRICS = ("rss_growth_bytes", "wall_s", "spill_runs", "bytes_read")


def median_scenarios(artifacts):
    """Per scenario, the median of each metric across the artifacts. A
    scenario absent from any artifact is left out (reported missing)."""
    runs = [{s["name"]: s for s in a.get("scenarios", [])} for a in artifacts]
    merged = {}
    for name in set.intersection(*(set(r) for r in runs)):
        samples = [r[name] for r in runs]
        merged[name] = {
            m: statistics.median(s[m] for s in samples)
            for m in METRICS
            if all(m in s for s in samples)
        }
    return merged


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        artifacts = []
        for path in sys.argv[1:-1]:
            with open(path) as f:
                artifacts.append(json.load(f))
        with open(sys.argv[-1]) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench_gate: {e}", file=sys.stderr)
        return 2

    for artifact in artifacts:
        if artifact.get("input_mb") != baseline.get("input_mb"):
            print(
                f"check_bench_gate: artifact ran "
                f"--mb={artifact.get('input_mb')} but baselines are for "
                f"--mb={baseline.get('input_mb')}",
                file=sys.stderr,
            )
            return 2

    measured = median_scenarios(artifacts)
    print(f"bench-gate: medians of {len(artifacts)} run(s)")
    failures = []
    for base in baseline.get("scenarios", []):
        name = base["name"]
        got = measured.get(name)
        if got is None:
            failures.append(f"{name}: missing from an artifact")
            continue
        rss_limit = max(
            base["rss_growth_bytes"] * RSS_REL,
            base["rss_growth_bytes"] + RSS_ABS_FLOOR,
        )
        wall_limit = base["wall_s"] * WALL_REL + WALL_ABS_FLOOR
        rss, wall = got["rss_growth_bytes"], got["wall_s"]
        verdict = "ok"
        if rss > rss_limit:
            failures.append(
                f"{name}: RSS growth {rss / 2**20:.1f} MiB exceeds limit "
                f"{rss_limit / 2**20:.1f} MiB "
                f"(baseline {base['rss_growth_bytes'] / 2**20:.1f} MiB)"
            )
            verdict = "RSS REGRESSION"
        if wall > wall_limit:
            failures.append(
                f"{name}: wall {wall:.3f} s exceeds limit {wall_limit:.3f} s "
                f"(baseline {base['wall_s']:.3f} s)"
            )
            verdict = "WALL REGRESSION" if verdict == "ok" else verdict
        structural = ""
        if "spill_runs" in base and "spill_runs" in got:
            runs_limit = max(
                base["spill_runs"] * SPILL_RUNS_REL,
                base["spill_runs"] + SPILL_RUNS_ABS_FLOOR,
            )
            if got["spill_runs"] > runs_limit:
                failures.append(
                    f"{name}: spill runs {got['spill_runs']} exceed limit "
                    f"{runs_limit:.0f} (baseline {base['spill_runs']})"
                )
                verdict = "SPILL REGRESSION" if verdict == "ok" else verdict
            structural += (
                f", spill runs {got['spill_runs']}/{runs_limit:.0f}"
            )
        if "bytes_read" in base and "bytes_read" in got:
            read_limit = (
                base["bytes_read"] * BYTES_READ_REL + BYTES_READ_ABS_FLOOR
            )
            if got["bytes_read"] > read_limit:
                failures.append(
                    f"{name}: read {got['bytes_read']} bytes, limit "
                    f"{read_limit:.0f} (baseline {base['bytes_read']}) — "
                    f"upstream cancellation or block accounting regressed"
                )
                verdict = "READ REGRESSION" if verdict == "ok" else verdict
            structural += (
                f", read {got['bytes_read']}/{read_limit:.0f} B"
            )
        print(
            f"  {name}: rss {rss / 2**20:.1f}/{rss_limit / 2**20:.1f} MiB, "
            f"wall {wall:.3f}/{wall_limit:.3f} s{structural} -> {verdict}"
        )

    if failures:
        print("\nbench-gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        print(
            "\nIf the regression is intended (e.g. a scenario now does "
            "strictly more work), update bench/baselines/bench_gate.json "
            "with fresh numbers from a CI run and say why in the commit.",
            file=sys.stderr,
        )
        return 1
    print("bench-gate: all scenarios within thresholds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
