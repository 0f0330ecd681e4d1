#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call builds perfbench/ (which
compiles the repository's libraries from src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset. The serving and ingest workloads train
their model in a separate `perfbench train` process first, so the serving
process's peak RSS holds no training memory. The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1; 0 where a layer does not run on the workload).
Lines before it starting with "detail " carry per-run figures (p99,
generator lateness, the layer figures an untraced run measures anyway, the
traced run's end-to-end numbers) for steady.py.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-paper", "serve-uncached", "serve-cached", "ingest-refresh")
# Seconds a first run may spend building; the processes after the build
# share the rest of the 180 s a run may take.
BUILD_TIMEOUT = 840
RUN_BUDGET = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root):
    """Configures and builds perfbench; returns the binary's path."""
    build_dir = os.path.join(build_root, "cmake")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir] + generator,
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    return os.path.join(build_dir, "perfbench")


def run_child(cmd, deadline):
    """Runs one perfbench process; returns (result, detail) of its output."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (cmd[1], proc.returncode))
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    detail = {}
    for line in lines[:-1]:
        if line.startswith("detail "):
            detail.update(json.loads(line[len("detail "):]))
    return json.loads(lines[-1]), detail


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_root)
    except (subprocess.SubprocessError, OSError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    work = os.path.join(build_root, "work",
                        "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--work", work, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    deadline = time.monotonic() + RUN_BUDGET
    try:
        results = []
        if args.workload != "train-paper":
            prefill = "1" if args.workload == "ingest-refresh" else "0"
            results.append(run_child([binary, "train"] + common +
                                     ["--prefill", prefill], deadline))
        results.append(run_child([binary, args.workload] + common, deadline))
    except (RuntimeError, subprocess.SubprocessError, OSError,
            ValueError, IndexError) as e:
        log("perfbench: %s" % e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = all(r["correct"] for r, _ in results)
    metrics, detail = {}, {}
    for r, d in results:  # The workload's own figures win over training's.
        metrics.update(r["metrics"])
        detail.update(d)
    out = {}
    if args.trace == 0:
        for m in bench["end_to_end"]:
            if m["name"] not in metrics:
                log("perfbench: %s not measured" % m["name"])
                correct = False
                continue
            out[m["name"]] = {"value": metrics[m["name"]]["value"],
                              "unit": m["unit"]}
        # Layer figures the untraced run measures anyway (open-loop p90,
        # saturation throughput, refresh) go to the detail line.
        detail.update({name: m["value"] for name, m in metrics.items()
                       if name not in out})
    else:
        detail.update({"traced." + m["name"]: metrics[m["name"]]["value"]
                       for m in bench["end_to_end"] if m["name"] in metrics})
        for m in bench["per_layer"]:
            value = metrics.get(m["name"], {"value": 0})["value"]
            out[m["name"]] = {"value": value, "unit": m["unit"]}
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r, _ in results),
        "failed": sum(r["failed"] for r, _ in results),
        "metrics": out,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
