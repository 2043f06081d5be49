#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench harness and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the repository root. The first run configures and builds the
library sources and the harness into .bench_build/perfbench (Release); later
runs only re-check the build. The harness prints its own lines (rung table,
design check, fingerprint); the last line printed here is the result:

    {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}

with every end-to-end metric of BENCHMARK.json for --trace 0 and every
per-layer metric for --trace 1. The exit code is nonzero when the build
fails, a correctness check fails, or a metric is missing.

--self-test runs every workload in the harness's smoke mode (tiny inputs,
short phases), traced and untraced, and checks that every metric named in
BENCHMARK.json is printed with its unit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "tetri_perfbench"
# Relative to ROOT: the service workload puts its Unix socket here, and a
# socket path may not exceed ~107 bytes however deep the checkout is.
WORK = Path(".bench_build") / "perfbench" / "work"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("perfbench: no library sources under", ROOT / "src")
        return False
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    done = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                          stdout=sys.stderr)
    return done.returncode == 0 and BINARY.exists()


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_harness(workload, seed, seconds, trace, smoke=False):
    """Runs the harness; returns (exit code, parsed result or None)."""
    (ROOT / WORK).mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(WORK)]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return done.returncode, None


def shape_result(result, spec, trace):
    """Keeps exactly the BENCHMARK.json metrics of the run's kind.

    A per-layer metric the workload does not exercise (e.g. service.* on a
    simulation workload) is reported as 0. Returns (result, missing names).
    """
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, missing = {}, []
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            if not trace:
                missing.append(metric["name"])
                continue
            got = {"value": 0, "unit": metric["unit"]}
        elif got["unit"] != metric["unit"]:
            missing.append(metric["name"] + " (unit " + got["unit"] + ")")
        metrics[metric["name"]] = {"value": got["value"], "unit": metric["unit"]}
    shaped = {"correct": bool(result["correct"]) and not missing,
              "attempted": int(result["attempted"]),
              "failed": int(result["failed"]),
              "metrics": metrics}
    return shaped, missing


def self_test(spec):
    ok = True
    for workload in spec["workloads"]:
        for trace in (False, True):
            code, result = run_harness(workload["name"], 1, 1, trace, smoke=True)
            if result is None:
                log("self-test:", workload["name"], "trace", int(trace),
                    "printed no result (exit", code, ")")
                ok = False
                continue
            shaped, missing = shape_result(result, spec, trace)
            if missing or code != 0 or not shaped["correct"]:
                log("self-test:", workload["name"], "trace", int(trace),
                    "missing or mis-unit metrics:", missing,
                    "violations:", result.get("violations"))
                ok = False
    print(json.dumps({"self_test": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("perfbench: run from a checkout holding the library sources")
        return 2
    spec = load_spec()
    if not build():
        log("perfbench: build failed")
        return 3
    if args.self_test:
        return self_test(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("perfbench: --workload must be one of", ", ".join(names))
        return 2

    code, result = run_harness(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    if result is None:
        log("perfbench: the harness printed no result (exit", code, ")")
        return 4
    shaped, missing = shape_result(result, spec, bool(args.trace))
    for name in missing:
        log("perfbench: metric missing or in the wrong unit:", name)
    fingerprint = dict(result.get("info", {}))
    fingerprint["git_sha"] = git_sha()
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps(shaped))
    return 0 if shaped["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
