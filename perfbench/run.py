#!/usr/bin/env python3
"""Build and run one perfbench workload; print one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload flickr --seed 1 --seconds 26 --trace 0

The Go program is built from source into .bench_build/ (build cache
included, so nothing is written outside the checkout). --trace 0 runs
the workload once, untraced, and reports the end-to-end metrics named in
BENCHMARK.json. --trace 1 runs it twice, each in its own process: once
untraced and once traced. It reports the per-layer metrics of the
traced run plus trace.overhead_frac, the traced run's relative slowdown
on the workload's end-to-end latencies.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")
# Every workload process must end before this many seconds have passed
# since start-up, so the whole command stays inside its time limit.
DEADLINE = time.monotonic() + 170

# End-to-end latencies whose traced/untraced ratio gives the tracing
# overhead.
OVERHEAD_METRICS = [
    "detect_ms", "reachable_p50_us", "point_p50_us", "visible_p50_ms",
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        fail("run from the repository root: go.mod not found")
    for d in ("gocache", "tmp", "config"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOENV": "off",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    proc = subprocess.run(
        ["go", "build", "-o", BIN, "."],
        cwd=os.path.join(ROOT, "perfbench"), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        fail("build failed:\n" + proc.stdout)


def run_once(args, traced):
    cmd = [BIN, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", "1" if traced else "0",
           "-work-dir", os.path.join(BUILD, "work")]
    if traced:
        os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
        cmd += ["-trace-out", os.path.join(
            BUILD, "trace", "%s-%d.jsonl" % (args.workload, args.seed))]
    left = DEADLINE - time.monotonic()
    if left <= 0:
        fail("out of time before workload %s started" % args.workload)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out" % args.workload)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("workload %s exited with %d" % (args.workload, proc.returncode))
    return json.loads(lines[-1])


def pick(res, specs):
    out = {}
    for spec in specs:
        name = spec["name"]
        if name not in res["metrics"]:
            fail("metric %s missing from workload output" % name)
        out[name] = {"value": res["metrics"][name]["value"],
                     "unit": spec["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()

    plain = run_once(args, traced=False)
    runs = [plain]
    if args.trace:
        traced = run_once(args, traced=True)
        runs.append(traced)
        ratios = [traced["metrics"][m]["value"] / plain["metrics"][m]["value"]
                  for m in OVERHEAD_METRICS]
        traced["metrics"]["trace.overhead_frac"] = {
            "value": statistics.median(ratios) - 1, "unit": "frac"}
        metrics = pick(traced, spec["per_layer"])
    else:
        metrics = pick(plain, spec["end_to_end"])
    info = dict(plain["info"])
    info["traced"] = bool(args.trace)
    print("# perfbench " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
