#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark, at a tiny scale.

Run from the repository root:

    python3 blotbench/smoke_test.py

For every workload in BENCHMARK.json, and for hotspot (which the binary
keeps though BENCHMARK.json leaves it out), it runs blotbench/run.py
untraced and traced at --scale 0.05 and checks that the last line of
stdout is the result object, that the run was correct with no failed op,
and that every end-to-end (untraced) or per-layer (traced) metric named in
BENCHMARK.json is printed once with its unit. It then runs each workload
with a deliberately wrong expected count and checks that the run fails
without printing a result. Last it checks the split the query workloads
are designed for, from the traced runs: the decoded-partition cache serves
hotspot almost entirely and paper-mix well below that, and codec decode
takes a larger share of scan time on paper-mix than on hotspot. Exits 0
when every check passes.
"""

import json
import os
import subprocess
import sys

SCALE = "0.05"
SECONDS = "0.5"


def run(workload, trace, corrupt=0):
    command = [sys.executable, os.path.join("blotbench", "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", SECONDS,
               "--trace", str(trace), "--scale", SCALE,
               "--corrupt-expected", str(corrupt)]
    return subprocess.run(command, capture_output=True, text=True,
                          timeout=900)


def last_line(stdout):
    lines = stdout.strip().splitlines()
    return lines[-1] if lines else ""


def check_result(workload, trace, metrics_spec, failures):
    """Checks one run; returns its metrics as {name: value} (empty on
    failure)."""
    done = run(workload, trace)
    label = f"{workload} --trace {trace}"
    if done.returncode != 0:
        failures.append(f"{label}: exit {done.returncode}\n{done.stderr}")
        return {}
    try:
        result = json.loads(last_line(done.stdout))
    except json.JSONDecodeError:
        failures.append(f"{label}: last stdout line is not JSON")
        return {}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{label}: unexpected keys {sorted(result)}")
        return {}
    if result["correct"] is not True or result["failed"] != 0:
        failures.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        failures.append(f"{label}: attempted={result['attempted']}")
    printed = result["metrics"]
    expected = {m["name"]: m["unit"] for m in metrics_spec}
    if sorted(printed) != sorted(expected):
        failures.append(f"{label}: metric names differ: missing "
                        f"{sorted(set(expected) - set(printed))}, extra "
                        f"{sorted(set(printed) - set(expected))}")
    for name, unit in expected.items():
        metric = printed.get(name)
        if metric is None:
            continue
        if metric.get("unit") != unit:
            failures.append(f"{label}: {name} unit {metric.get('unit')!r}, "
                            f"expected {unit!r}")
        if not isinstance(metric.get("value"), (int, float)):
            failures.append(f"{label}: {name} value is not a number")
    print(f"ok   {label}: {len(printed)} metrics, "
          f"{result['attempted']} ops attempted", flush=True)
    return {name: m.get("value") for name, m in printed.items()}


def check_split(traced, failures):
    """The designed split between paper-mix and hotspot (traced runs)."""
    paper, hot = traced.get("paper-mix", {}), traced.get("hotspot", {})
    try:
        checks = [
            ("hotspot cache.hit_ratio >= 0.9",
             hot["cache.hit_ratio"] >= 0.9),
            ("paper-mix cache.hit_ratio <= 0.8",
             paper["cache.hit_ratio"] <= 0.8),
            ("paper-mix codec.decode_share > hotspot's",
             paper["codec.decode_share"] > hot["codec.decode_share"]),
        ]
    except (KeyError, TypeError):
        failures.append("split: a traced paper-mix or hotspot run is missing")
        return
    for label, held in checks:
        if held:
            print(f"ok   split: {label}", flush=True)
        else:
            failures.append(f"split: {label} does not hold "
                            f"(paper-mix {paper}, hotspot {hot})")


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if "hotspot" not in workloads:
        workloads.append("hotspot")
    failures = []
    traced = {}
    for workload in workloads:
        check_result(workload, 0, spec["end_to_end"], failures)
        traced[workload] = check_result(workload, 1, spec["per_layer"],
                                        failures)

    for workload in workloads:
        done = run(workload, 0, corrupt=1)
        label = f"{workload} --corrupt-expected 1"
        if done.returncode == 0:
            failures.append(f"{label}: a wrong expected count did not fail")
        elif '"metrics"' in last_line(done.stdout):
            failures.append(f"{label}: failed run still printed metrics")
        else:
            print(f"ok   {label}: exit {done.returncode}", flush=True)

    check_split(traced, failures)

    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
