#!/usr/bin/env python3
"""Builds and runs the WhitenRec end-to-end benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and the benchmark from source into .bench_build (or
$CARGO_TARGET_DIR), runs the measuring-math self-test, then runs one workload
in its own process. With --trace 0 the result carries every end-to-end
metric; with --trace 1 it carries every per-layer metric from a traced run,
plus the tracing overhead: the traced run's end-to-end figures against an
untraced run of the same seed made just before it. The two runs share the
--seconds budget, half each, so a traced run takes about as long as an
untraced one. The last stdout line is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0 or not 1 <= a.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in 1..600")
    return a


def load_spec():
    path = os.path.join(HERE, os.pardir, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    return spec


def build(build_dir):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("WHITENREC_")}
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--parallel", "4",
                  "--target", "perfbench", "perfbench_test"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               env=env, timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if r.returncode != 0:
            fail(f"build step {' '.join(cmd[:3])} exited {r.returncode}")


def run_binary(cmd):
    """Runs perfbench; echoes its report lines and returns its JSON result."""
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"perfbench did not finish: {e}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail(f"perfbench printed nothing (exit {r.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"perfbench's last line is not JSON (exit {r.returncode})")
    if r.returncode not in (0, 1):
        fail(f"perfbench exited {r.returncode}")
    return result


def main():
    args = parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {names}")
    if any(k.startswith("WHITENREC_") for k in os.environ):
        fail("refusing to run with WHITENREC_* variables set; the benchmark "
             "configures the library through its API only")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(build_dir)
    test = subprocess.run([os.path.join(build_dir, "perfbench_test")],
                          stdout=sys.stderr, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S, check=False)
    if test.returncode != 0:
        fail("measuring-math self-test failed")

    seconds = max(1, args.seconds // 2) if args.trace else args.seconds
    base = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(seconds)]
    untraced = run_binary(base + ["--trace", "0"])
    wanted = spec["end_to_end"]
    result = untraced
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")
        traced = run_binary(base + ["--trace", "1", "--spans", spans])
        print(f"run.py: spans written to {spans}")
        layers = dict(traced["layers"])
        layers.update(traced["host"])
        # Tracing overhead: traced minus untraced end-to-end, same seed.
        for name in ("train_epoch_s", "serve_qps"):
            t = traced["metrics"][name]["value"]
            u = untraced["metrics"][name]["value"]
            layers[f"trace.overhead_{name}_pct"] = {
                "value": 100.0 * (t - u) / u, "unit": "%"}
        result = dict(traced)
        result["correct"] = traced["correct"] and untraced["correct"]
        result["metrics"] = layers
        wanted = spec["per_layer"]
    else:
        for name, m in untraced["host"].items():
            print(f"run.py: {name} = {m['value']:.4g} {m['unit']}")

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing from the run")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    out = {"correct": bool(result["correct"]),
           "attempted": int(result["attempted"]),
           "failed": int(result["failed"]),
           "metrics": metrics}
    print(json.dumps(out))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
