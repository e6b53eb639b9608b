#!/usr/bin/env python3
"""Time-to-verdict benchmark: build, run one workload, print its result.

    python3 ttvbench/run.py --workload rq1 --seed 1 --seconds 30 --trace 0

Run from the repository root.  Builds ttvbench/ttv.exe with dune, runs it
once in a fresh process (one domain), checks its work against the recorded
fingerprint in ttvbench/fingerprints.json, prints two diagnostic lines
(host noise, fingerprint) and, as the last line, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  --record rewrites the workload's fingerprint
instead of checking it (use it with --trace 1, which also counts exact
leaves and LP solves).  See ttvbench/README.md.
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
EXE = os.path.join(ROOT, "_build", "default", "ttvbench", "ttv.exe")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
CHILD_TIMEOUT_S = 170


def die(msg):
    print("ttvbench: " + msg, file=sys.stderr)
    sys.exit(1)


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from the first line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields)


def load1():
    try:
        with open("/proc/loadavg") as f:
            return float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def build():
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    # dune's progress goes to stderr; keep stdout for the result
    try:
        done = subprocess.run(dune + ["build", "--cache=disabled", "--root", ROOT,
                                      "./ttvbench/ttv.exe"],
                              cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        die("cannot run dune: %s" % e)
    if done.returncode != 0 or not os.path.exists(EXE):
        die("build failed")


def check_fingerprint(workload, got, record):
    try:
        with open(FINGERPRINTS) as f:
            table = json.load(f)
    except FileNotFoundError:
        table = {}
    if record:
        table[workload] = got
        with open(FINGERPRINTS, "w") as f:
            json.dump(table, f, indent=2, sort_keys=True)
            f.write("\n")
        return "recorded"
    want = table.get(workload)
    if want is None:
        return "unrecorded"
    diff = {k: (want[k], v) for k, v in got.items() if k in want and want[k] != v}
    if not diff:
        return "ok"
    # different work is flagged, not failed: its timings are not
    # comparable with runs of the recorded work
    return "MISMATCH " + ", ".join("%s recorded %d got %d" % (k, a, b)
                                   for k, (a, b) in sorted(diff.items()))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    ticks0 = cpu_ticks()
    try:
        child = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("workload run exceeded %d s" % CHILD_TIMEOUT_S)
    ticks1 = cpu_ticks()
    if child.returncode != 0:
        die("ttv.exe exited with code %d" % child.returncode)
    try:
        raw = json.loads(child.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        die("ttv.exe printed no result")

    host = {"nproc": os.cpu_count(), "load1": load1()}
    if "passes" in raw["metrics"]:
        host["passes"] = int(raw["metrics"]["passes"]["value"])
    if ticks0 and ticks1:
        host["steal_ticks"] = ticks1[0] - ticks0[0]
        host["steal_frac"] = round((ticks1[0] - ticks0[0]) / max(1, ticks1[1] - ticks0[1]), 6)
    print("host " + json.dumps(host, sort_keys=True))
    print("fingerprint %s %s %s" % (args.workload, json.dumps(raw["fingerprint"], sort_keys=True),
                                    check_fingerprint(args.workload, raw["fingerprint"],
                                                      args.record)))
    for failure in raw["failures"]:
        print("failed " + failure)

    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or not math.isfinite(got["value"]):
            die("metric %s missing or not finite" % m["name"])
        if got["unit"] != m["unit"]:
            die("metric %s has unit %s, BENCHMARK.json says %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": raw["failed"] == 0, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
