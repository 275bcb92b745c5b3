#!/usr/bin/env python3
"""Runs each BENCH_*.json bench with --quick and checks its output: the
bench exits 0, and the file parses as JSON and carries the harness
envelope plus every key a CI gate reads.

usage: bench_smoke.py <out-dir> <bench-binary>...
"""
import json
import os
import subprocess
import sys

ENVELOPE = ["bench", "git_sha", "build_type", "nproc", "quick"]
GATED = {
    "engine_throughput": ["kernel_speedup"],
    "ingest_throughput": ["bit_identical", "steady_state_allocs_per_snapshot",
                          "steady_state_alloc_count", "snapshots_per_sec_ring"],
    "health_overhead": ["bit_identical", "drift_overhead"],
    "fleet_obs": ["bit_identical"],
    "recovery_curve": ["bit_identical_prefix", "results"],
}
GATED_ROW = {"recovery_curve": ["policy", "lost", "bound_ok"]}


def spreads(node):
    """Every object carrying a median_s, at any depth."""
    if isinstance(node, dict):
        if "median_s" in node:
            yield node
        for value in node.values():
            yield from spreads(value)
    elif isinstance(node, list):
        for value in node:
            yield from spreads(value)


def check(binary, out_dir):
    name = os.path.basename(binary)
    out = os.path.join(out_dir, name + ".json")
    run = subprocess.run([binary, "--quick", "--out=" + out],
                         capture_output=True, text=True)
    if run.returncode != 0:
        return [f"{name} exited {run.returncode}:\n{run.stdout}{run.stderr}"]
    with open(out) as f:
        data = json.load(f)
    problems = [f"{name}: no key {k}" for k in ENVELOPE + GATED[name]
                if k not in data]
    if data.get("bench") != name or data.get("quick") is not True:
        problems.append(f"{name}: envelope says {data.get('bench')}, "
                        f"quick={data.get('quick')}")
    for row in data.get("results", []):
        problems += [f"{name}: row without {k}: {row}"
                     for k in GATED_ROW.get(name, []) if k not in row]
    for s in spreads(data):
        if not s["p10_s"] <= s["median_s"] <= s["p90_s"]:
            problems.append(f"{name}: p10 <= median <= p90 fails: {s}")
    return problems


def main():
    out_dir = sys.argv[1]
    os.makedirs(out_dir, exist_ok=True)
    problems = [p for binary in sys.argv[2:] for p in check(binary, out_dir)]
    print("\n".join(problems) or f"ok: {len(sys.argv) - 2} benches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
