#!/usr/bin/env python3
"""Builds and runs the Bifrost perfbench from a checkout's root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and the ../src libraries it measures) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, prints a provenance line, the program's own report, and as the
last line the JSON result with exactly the metric names BENCHMARK.json
lists (end_to_end with --trace 0, per_layer with --trace 1). Per-layer
metrics a workload does not exercise are reported as 0. Span dumps and a
copy of each result go to .bench_out/.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(build_dir), "-j",
                  str(min(4, os.cpu_count() or 1))])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return build_dir / "perfbench"


def commit():
    """The checkout's git commit, or "none" outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    binary = build()
    revision = commit()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    print(f"provenance: commit={revision}", flush=True)

    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               args.trace, "--out", str(out_dir)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail(f"perfbench exited with {done.returncode} and no result")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    if result["correct"]:
        if args.trace == "0" and set(metrics) != set(units):
            fail("end-to-end metrics missing: " +
                 ", ".join(sorted(set(units) - set(metrics))))
        for name, unit in units.items():
            metrics.setdefault(name, {"value": 0, "unit": unit})
        result["metrics"] = {name: metrics[name] for name in units}

    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=int(args.trace),
                  commit=revision,
                  checks_failed=[line for line in lines
                                 if line.startswith("check failed:")])
    (out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
