#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source, runs one workload, checks it.

    python3 perfbench/run.py --workload pmbench --seed 1 --seconds 15 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under perfbench/; results and spans go to its results/ folder. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": <cells>, "failed": <cells failed>, "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and its per-layer metrics
for --trace 1. The exit code is nonzero when any cell fails its output check, when the
metrics printed do not match BENCHMARK.json, or when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def cached_source_dir(cache_path):
    with open(cache_path, encoding="utf-8", errors="replace") as cache:
        for line in cache:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return None


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache) and cached_source_dir(cache) != HERE:
        shutil.rmtree(out)  # A build tree configured for another checkout.
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise SystemExit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def source_id():
    """The git commit when there is one, else a digest of the simulator sources."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, check=False)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def check_metrics(spec, trace, metrics):
    """Returns the mismatches between the metrics printed and BENCHMARK.json."""
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = []
    for name, entry in metrics.items():
        if name not in declared:
            problems.append("metric %s is not in BENCHMARK.json" % name)
        elif entry["unit"] != declared[name]:
            problems.append("metric %s has unit %s, BENCHMARK.json says %s"
                            % (name, entry["unit"], declared[name]))
    for name in declared:
        if name not in metrics:
            problems.append("metric %s from BENCHMARK.json was not reported" % name)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--plant-mismatch", action="store_true",
                        help="decorated passes drop a policy hook (tests the output check)")
    parser.add_argument("--bare-pass", action="store_true",
                        help="also run the cells with no callbacks (proves the markers inert)")
    parser.add_argument("--warmup-s", type=float, help="simulated warmup per cell")
    parser.add_argument("--measure-s", type=float, help="simulated window per cell")
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit("perfbench: unknown workload %r" % args.workload)
    binary = build()

    results_dir = os.path.join(build_dir(), "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = "%s-trace%d-seed%d" % (args.workload, args.trace, args.seed)
    out = os.path.join(results_dir, stem + ".json")
    if os.path.exists(out):
        os.remove(out)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", out,
               "--commit", source_id()]
    if args.trace:
        command += ["--spans", os.path.join(results_dir, stem + ".spans.json")]
    if args.plant_mismatch:
        command.append("--plant-mismatch")
    if args.bare_pass:
        command.append("--bare-pass")
    if args.warmup_s:
        command += ["--warmup-s", repr(args.warmup_s)]
    if args.measure_s:
        command += ["--measure-s", repr(args.measure_s)]
    done = subprocess.run(command, stdout=sys.stdout, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S, check=False)
    sys.stdout.flush()
    if not os.path.exists(out):
        raise SystemExit("perfbench: the run wrote no results (exit %d)" % done.returncode)
    with open(out, encoding="utf-8") as f:
        results = json.load(f)

    problems = check_metrics(spec, args.trace, results["metrics"])
    for problem in problems:
        log("perfbench: " + problem)
    if done.returncode not in (0, 1) or problems:
        raise SystemExit("perfbench: the run failed (exit %d)" % done.returncode)
    correct = done.returncode == 0 and results["cells_failed"] == 0
    print(json.dumps({"correct": correct, "attempted": results["cells"],
                      "failed": results["cells_failed"], "metrics": results["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
