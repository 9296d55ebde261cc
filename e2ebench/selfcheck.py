#!/usr/bin/env python3
"""Self-check of the end-to-end benchmark; run it from a checkout's root.

    python3 e2ebench/selfcheck.py [--seconds 1]

For every workload named in BENCHMARK.json it makes three short runs and
checks that
  - the same seed gives an identical query-stream hash (an untraced and a
    traced run of seed 1), and a different seed a different hash;
  - each run exits 0 with a last line holding exactly the keys correct,
    attempted, failed and metrics, correct true and failed 0;
  - every end-to-end metric (untraced) or per-layer metric (traced) is
    present, finite and carries the unit BENCHMARK.json gives it.
Finally it checks that the benchmark refuses to run, without printing a
result, in a directory that holds only BENCHMARK.json and the benchmark's
own files. Exits 0 when every check passes.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    return done.returncode, done.stdout.strip().splitlines(), done.stderr


def stream_hash(lines):
    for line in lines:
        if line.startswith("# stream_hash "):
            return line.split()[2]
    return None


def check_result(lines, expected, errors, label):
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        errors.append("%s: last line is not JSON" % label)
        return
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (label, sorted(result)))
        return
    if result["correct"] is not True or result["failed"] != 0:
        errors.append("%s: correct=%s failed=%s" %
                      (label, result["correct"], result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("%s: attempted=%r" % (label, result["attempted"]))
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        errors.append("%s: metric names differ: missing %s, extra %s" % (
            label, sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        metric = metrics.get(name)
        if metric is None:
            continue
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s is not a finite number: %r" %
                          (label, name, value))
        if metric.get("unit") != unit:
            errors.append("%s: %s unit %r, want %r" %
                          (label, name, metric.get("unit"), unit))


def check_refuses_without_sources(spec, errors):
    """The benchmark must fail, printing no result, without ../src."""
    bare = os.path.join(ROOT, ".bench_out", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"],
                             "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True,
                          timeout=180, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        errors.append("bare directory: exit %d, stdout %r" %
                      (done.returncode, done.stdout[-200:]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        hashes = []
        failures_before = len(errors)
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            label = "%s seed %d trace %d" % (workload, seed, trace)
            code, lines, stderr = run(workload, seed, args.seconds, trace)
            if code != 0:
                errors.append("%s: exit %d\n%s" % (label, code, stderr[-2000:]))
            check_result(lines, per_layer if trace else end_to_end, errors,
                         label)
            hashes.append(stream_hash(lines))
        if None in hashes:
            errors.append("%s: no stream hash printed" % workload)
        elif hashes[0] != hashes[1]:
            errors.append("%s: seed 1 gave hashes %s and %s" %
                          (workload, hashes[0], hashes[1]))
        elif hashes[0] == hashes[2]:
            errors.append("%s: seeds 1 and 2 gave the same hash" % workload)
        ok = len(errors) == failures_before
        print("%s: %s" % (workload, "ok" if ok else "FAILED"), flush=True)
    check_refuses_without_sources(spec, errors)
    for error in errors:
        print("FAIL " + error)
    print("selfcheck: %s" % ("ok" if not errors else
                             "%d failures" % len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
