#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload once per seed and reports, for every end-to-end metric,
the median of the values and the distance between their first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload stream_ingest --seeds 1-10
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values):
    """(median, (Q3 - Q1) / median) as the acceptance check computes it."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--trace", "0"]
        if args.seconds:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: run failed with exit {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)
    worst = 0.0
    for m in spec["end_to_end"]:
        med, rel = spread(values[m["name"]])
        share = rel / m["bound"]
        if m["name"] != "setup_s":
            worst = max(worst, share)
        print(f"{m['name']:20s} median {med:.6g} {m['unit']:6s} spread {rel:.4f}"
              f" bound {m['bound']} ({share:.2f} of bound)")
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
