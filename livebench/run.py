#!/usr/bin/env python3
"""Builds the live-path benchmark from this checkout and runs one workload.

    python3 livebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The build goes to $CARGO_TARGET_DIR/livebench
(default .bench_build/livebench); build output goes to stderr.  The binary's
context and detail lines are passed through to standard output, and the last
line is the result line: {"correct", "attempted", "failed", "metrics"}, whose
metrics are the end_to_end (--trace 0) or per_layer (--trace 1) set that
BENCHMARK.json declares, taken from the detail line.  A declared metric that
is missing, not finite or in another unit fails the run without a result.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("zipf-read-inline", "zipf-write-evict", "uniform-k128-megakv")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the benchmark; returns the binary path."""
    configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, "livebench")


def source_id(root):
    """git sha when the checkout is a repository, plus a digest of the
    sources the binary is built from (a checkout may not be a repository)."""
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, root)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    sha = "none"
    if os.path.exists(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                 cwd=root, capture_output=True, text=True,
                                 check=True).stdout.strip() or "none"
        except (OSError, subprocess.CalledProcessError):
            pass
    return "git:%s src:%s" % (sha, digest.hexdigest()[:12])


def declared_metrics(root, trace):
    """Name -> unit of the metrics BENCHMARK.json declares for the mode."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def result_line(detail, declared):
    """The result line for `detail`, or None if a declared metric is
    missing, not finite or in another unit (reported on stderr)."""
    metrics = {}
    for name, unit in declared.items():
        metric = detail["detail"].get(name)
        if (metric is None or not isinstance(metric["value"], (int, float))
                or not math.isfinite(metric["value"])
                or metric["unit"] != unit):
            print("livebench: metric %s is %r, declared in %s"
                  % (name, metric, unit), file=sys.stderr)
            return None
        metrics[name] = metric
    return {"correct": not detail["check_failures"],
            "attempted": detail["attempted"], "failed": detail["failed"],
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.getcwd()
    try:
        declared = declared_metrics(root, args.trace)
    except (OSError, ValueError, KeyError) as err:
        print("livebench: cannot read BENCHMARK.json: %s" % err,
              file=sys.stderr)
        return 1
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "livebench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("livebench: build failed: %s" % err, file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--source-id", source_id(root)]
    if args.trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans, "%s-seed%d" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("livebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    sys.stdout.write(proc.stdout)
    try:
        result = result_line(json.loads(lines[-1]), declared)
    except (IndexError, ValueError, KeyError) as err:
        print("livebench: no detail line (exit %d): %s"
              % (proc.returncode, err), file=sys.stderr)
        return 1
    if result is None:
        return 3
    result["correct"] = result["correct"] and proc.returncode == 0
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
