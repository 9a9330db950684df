#!/usr/bin/env python3
"""Perf-regression tripwire over BENCH_*.json benchmark reports.

Compares freshly produced benchmark reports (schema ``blot.bench.v1``,
written by every ``bench/micro_*`` binary via ``bench/bench_common.h``)
against baselines committed at the repo root, and fails when any
*tracked* metric regressed by more than the threshold.

Only metrics marked ``"tracked": true`` participate: by convention those
are machine-independent ratios (speedups, overhead percentages), so the
comparison is stable across CI runner generations. Raw timings stay in
the reports as untracked context.

Direction is inferred from the metric name: names containing
``overhead``, ``error`` or ``_over_`` (a cost ratio such as
``route_q2_over_q3``: the time of one case over another's), or ending in
``_pct``, are lower-is-better; everything else (speedups) is
higher-is-better.

Usage:
    bench_tripwire.py BASELINE:CURRENT [BASELINE:CURRENT ...]
                      [--threshold-pct 25]

Exit codes: 0 ok, 1 regression(s) found, 2 usage / malformed report.
"""

import argparse
import json
import sys

SCHEMA = "blot.bench.v1"


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"bench_tripwire: cannot read {path}: {exc}")
    if report.get("schema") != SCHEMA:
        sys.exit(
            f"bench_tripwire: {path} has schema "
            f"{report.get('schema')!r}, want {SCHEMA!r} — regenerate it "
            f"by running the benchmark binary"
        )
    return report


def tracked_metrics(report):
    return {
        m["name"]: float(m["value"])
        for m in report.get("metrics", [])
        if m.get("tracked")
    }


def lower_is_better(name):
    return (
        "overhead" in name
        or "error" in name
        or "_over_" in name
        or name.endswith("_pct")
    )


def compare(baseline_path, current_path, threshold_pct):
    baseline = load_report(baseline_path)
    current = load_report(current_path)
    base_metrics = tracked_metrics(baseline)
    cur_metrics = tracked_metrics(current)
    if not base_metrics:
        sys.exit(f"bench_tripwire: {baseline_path} has no tracked metrics")

    regressions = []
    for name, base in sorted(base_metrics.items()):
        if name not in cur_metrics:
            regressions.append((name, base, None, None))
            print(f"  MISSING  {name}: in baseline but not in current run")
            continue
        cur = cur_metrics[name]
        if base == 0:
            print(f"  skip     {name}: baseline is 0, nothing to compare")
            continue
        if lower_is_better(name):
            delta_pct = (cur - base) / abs(base) * 100.0
            arrow = "lower=better"
        else:
            delta_pct = (base - cur) / abs(base) * 100.0
            arrow = "higher=better"
        verdict = "ok"
        if delta_pct > threshold_pct:
            verdict = "REGRESSED"
            regressions.append((name, base, cur, delta_pct))
        elif delta_pct < -threshold_pct:
            verdict = "improved (consider refreshing the baseline)"
        print(
            f"  {verdict:9s} {name} ({arrow}): "
            f"baseline {base:g} -> current {cur:g} "
            f"({delta_pct:+.1f}% worse)"
        )

    for name in sorted(set(cur_metrics) - set(base_metrics)):
        print(f"  new      {name}: not in baseline (add it on next refresh)")
    return regressions


def main(argv):
    parser = argparse.ArgumentParser(
        description="Fail when tracked benchmark metrics regress."
    )
    parser.add_argument(
        "pairs",
        nargs="+",
        metavar="BASELINE:CURRENT",
        help="colon-separated baseline/current report paths",
    )
    parser.add_argument(
        "--threshold-pct",
        type=float,
        default=25.0,
        help="max tolerated regression per tracked metric (default 25)",
    )
    args = parser.parse_args(argv)

    all_regressions = []
    for pair in args.pairs:
        baseline_path, sep, current_path = pair.partition(":")
        if not sep or not baseline_path or not current_path:
            parser.error(f"malformed pair {pair!r}, want BASELINE:CURRENT")
        print(f"{baseline_path} vs {current_path}:")
        all_regressions += compare(
            baseline_path, current_path, args.threshold_pct
        )

    if all_regressions:
        print(
            f"\nFAIL: {len(all_regressions)} tracked metric(s) regressed "
            f"beyond {args.threshold_pct:g}%.\n"
            "If the regression is intended (e.g. a correctness fix with a "
            "known cost), apply the `perf-regression-ok` label to the PR "
            "and refresh the committed BENCH_*.json baselines."
        )
        return 1
    print(f"\nOK: no tracked metric regressed beyond {args.threshold_pct:g}%.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
