#!/usr/bin/env python3
"""Short self-test of the live-path benchmark.

    python3 livebench/selftest.py [--seconds 2]

Run from the repository root.  Runs every workload run.py knows briefly, in
both modes, and asserts that:
  * the result line has exactly the keys correct, attempted, failed and
    metrics; the run is correct; and its metrics are exactly the
    BENCHMARK.json set of the mode (run.py checks that each is finite and
    carries its declared unit);
  * zipf-read-inline evicts nothing and hits on every GET (the "fits"
    property its design rests on);
  * zipf-write-evict evicts.
Exits non-zero on the first failed assertion.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, BENCH_DIR)
from run import WORKLOADS, declared_metrics  # noqa: E402


def run(workload, trace, seconds):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", "1",
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise AssertionError("%s trace=%d exited %d"
                             % (workload, trace, proc.returncode))
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    return lines[0]["context"], lines[1]["detail"], lines[-1]


def check_result(result, declared, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] >= 0
    assert set(result["metrics"]) == set(declared), label


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()

    root = os.path.dirname(BENCH_DIR)
    declared = {trace: declared_metrics(root, trace) for trace in (0, 1)}
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = "%s trace=%d" % (workload, trace)
            context, detail, result = run(workload, trace, args.seconds)
            check_result(result, declared[trace], label)
            assert context["cpus"], label + ": no CPU set recorded"
            if workload == "zipf-read-inline":
                if trace == 0:
                    assert detail["evictions"]["value"] == 0, label
                    assert result["metrics"]["get_hit_ratio"]["value"] == 1, label
                else:
                    assert detail["mem.evictions_per_set"]["value"] == 0, label
            if workload == "zipf-write-evict":
                if trace == 0:
                    assert detail["evictions"]["value"] > 0, label
                else:
                    assert detail["mem.evictions_per_set"]["value"] > 0, label
            print("ok  %s" % label, flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
