#!/usr/bin/env python3
"""Repository benchmark runner.

Builds the repository's libraries, appclass_cli and the benchmark driver
from source (Release, into .bench_build/ under the current directory),
runs one workload and prints every metric by name and unit. The last line
of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}, ...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). The full record of the run (every gate,
sample counts, environment) is written to .bench_build/results/.

    python3 perfbench/run.py --workload batch_classify --seed 1 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --selftest
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
WORKLOADS = ("batch_classify", "stream_ingest")
DRIVER_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = REPO_ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_root():
    # The checkout's build area; CARGO_TARGET_DIR names it when set.
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(root):
    """Configures once, then builds incrementally. Returns the build dir."""
    build_dir = root / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log = root / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
                  "perfbench_driver", "appclass_cli", "perfbench_selftest"])
    with open(log, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-15:]
                if cmd[1] == "-S":  # a failed configure is retried next time
                    shutil.rmtree(build_dir, ignore_errors=True)
                fail("build failed:\n" + "\n".join(tail))
    return build_dir


def driver_catalog(build_dir):
    out = subprocess.run([str(build_dir / "perfbench_driver"), "--list-metrics"],
                         capture_output=True, text=True, check=True).stdout
    catalog = {}
    for line in out.splitlines():
        kind, name, unit = line.split()
        catalog[name] = (kind, unit)
    return catalog


def catalog_mismatches(spec, catalog):
    """Differences between BENCHMARK.json's metrics and the driver's."""
    problems = []
    declared = {}
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            declared[m["name"]] = (kind, m["unit"])
    for name, entry in declared.items():
        if catalog.get(name) != entry:
            problems.append(f"{name}: BENCHMARK.json {entry}, driver {catalog.get(name)}")
    for name in catalog:
        if name not in declared:
            problems.append(f"{name}: reported by the driver, not in BENCHMARK.json")
    return problems


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout may not be
    a git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    roots = [REPO_ROOT / "src", REPO_ROOT / "tools", BENCH_DIR / "src"]
    files = [REPO_ROOT / "CMakeLists.txt", BENCH_DIR / "CMakeLists.txt"]
    for r in roots:
        files += [p for p in r.rglob("*") if p.is_file()]
    for p in sorted(files):
        h.update(str(p.relative_to(REPO_ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD of the repository the benchmark sits in; None outside one (a
    checkout nested in another repository does not count)."""
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(out) != 2 or Path(out[0]).resolve() != REPO_ROOT:
        return None
    return out[1]


def filesystem_of(path):
    """(fstype, device, mount point) of the mount holding `path`."""
    path = os.path.realpath(path)
    best = ("unknown", "unknown", "")
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                dev, mnt, fstype = line.split()[:3]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                        and len(mnt) >= len(best[2]):
                    best = (fstype, dev, mnt)
    except OSError:
        pass
    return best


def build_type(build_dir):
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


def contract_result(raw, spec, trace):
    """The output contract's JSON object from the driver's record."""
    kind = "per_layer" if trace else "end_to_end"
    metrics = {}
    for m in spec[kind]:
        if m["name"] not in raw["metrics"]:
            fail(f"driver did not report {m['name']}", 1)
        metrics[m["name"]] = {"value": raw["metrics"][m["name"]], "unit": m["unit"]}
    return {"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}


def report_lines(result, raw, env):
    lines = []
    for name, m in result["metrics"].items():
        lines.append(f"{name:34s} {m['value']:.6g} {m['unit']}")
    for gate, ok in raw.get("gates", {}).items():
        lines.append(f"gate {gate}: {'pass' if ok else 'FAIL'}")
    lines.append("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    return lines


def run(args):
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}")
    spec = load_spec()
    root = build_root()
    build_dir = build(root)
    problems = catalog_mismatches(spec, driver_catalog(build_dir))
    if problems:
        fail("metric catalog does not match BENCHMARK.json:\n" + "\n".join(problems))

    workdir = root / "runs" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [str(build_dir / "perfbench_driver"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--cli", str(build_dir / "appclass" / "tools" / "appclass_cli")]
    started = time.time()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(workdir, ignore_errors=True)
        fail("driver timed out", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        shutil.rmtree(workdir, ignore_errors=True)
        fail(f"driver printed no result (exit {proc.returncode})", 1)
    raw = json.loads(lines[-1])

    fstype, device, mount = filesystem_of(workdir)
    env = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build_type": build_type(build_dir),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "state_dir_fs": fstype,
        "state_dir_device": device,
        "state_dir_mount": mount,
        "wall_s": round(time.time() - started, 3),
    }
    results = root / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for trace in workdir.glob("*trace.json"):
        shutil.move(str(trace), results / f"{stem}.chrome-{trace.name}")
    shutil.rmtree(workdir, ignore_errors=True)
    (results / f"{stem}.json").write_text(json.dumps({"run": raw, "env": env}, indent=1))

    result = contract_result(raw, spec, args.trace)
    for line in report_lines(result, raw, env):
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


def selftest():
    spec = load_spec()
    build_dir = build(build_root())
    status = subprocess.run([str(build_dir / "perfbench_selftest")]).returncode
    problems = catalog_mismatches(spec, driver_catalog(build_dir))
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    tests = subprocess.run([sys.executable, "-m", "unittest", "-q",
                            str(BENCH_DIR / "test_run.py")]).returncode
    ok = status == 0 and not problems and tests == 0
    print("selftest: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
