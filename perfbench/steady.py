#!/usr/bin/env python3
"""Steadiness of the benchmark: repeated runs, their spread, and comparisons.

    # N runs of one workload, seeds seed0 .. seed0+N-1, saved to OUT:
    python3 perfbench/steady.py run --workload W [--runs 10] [--seed0 1]
                                    [--seconds S] [--trace 0|1] [--out OUT]
    # Second set against the first, by each metric's bound in BENCHMARK.json:
    python3 perfbench/steady.py compare FIRST.json SECOND.json
    # Tracing overhead: traced end-to-end medians minus untraced ones:
    python3 perfbench/steady.py overhead UNTRACED.json TRACED.json
    # Every workload once, every metric by name and unit:
    python3 perfbench/steady.py all [--seed N] [--trace 0|1]

`run` prints, per metric, the median, the quartiles (statistics.quantiles
with n=4) and the spread (q3 - q1) / median against the metric's bound, and
per run the p99 latency and the generator's lateness. Run it from the
repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def value_of(run, name):
    """A metric of one run: from its result line, else its detail line."""
    if name in run["result"]["metrics"]:
        return run["result"]["metrics"][name]["value"]
    return run["detail"].get(name)


def summarize(runs, names):
    """name -> (median, q1, q3, spread) over the runs."""
    out = {}
    for name in names:
        values = [v for v in (value_of(r, name) for r in runs)
                  if v is not None]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        out[name] = (med, q1, q3, (q3 - q1) / abs(med) if med else float("inf"))
    return out


def run_once(workload, seed, seconds, trace):
    """One run.py call; returns (result, detail) or None when it failed."""
    cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("%s seed %d: run failed (exit %d)" %
              (workload, seed, proc.returncode))
        return None
    detail = {}
    for line in lines[:-1]:
        if line.startswith("detail "):
            detail.update(json.loads(line[len("detail "):]))
    return json.loads(lines[-1]), detail


def cmd_all(args):
    bench = load_bench()
    for w in bench["workloads"]:
        got = run_once(w["name"], args.seed, bench["run_seconds"], args.trace)
        if got is None:
            return 1
        result, _ = got
        print("%s: correct=%s attempted=%d failed=%d" %
              (w["name"], result["correct"], result["attempted"],
               result["failed"]))
        for name, m in result["metrics"].items():
            print("  %-34s %14s %s" % (name, fmt(m["value"]), m["unit"]))
    return 0


def cmd_run(args):
    bench = load_bench()
    runs = []
    for i in range(args.runs):
        seed = args.seed0 + i
        got = run_once(args.workload, seed,
                       args.seconds or bench["run_seconds"], args.trace)
        if got is None:
            return 1
        result, detail = got
        runs.append({"seed": seed, "result": result, "detail": detail})
        print("seed %d: correct=%s attempted=%d failed=%d p99=%s lag_p99=%s "
              "lag_max=%s" % (seed, result["correct"], result["attempted"],
                              result["failed"],
                              fmt(detail.get("latency_p99_us")),
                              fmt(detail.get("generator_lag_p99_us")),
                              fmt(detail.get("generator_lag_max_us"))),
              flush=True)
    # Untraced runs also list the layer figures their detail line carries.
    metrics = bench["per_layer"] if args.trace else (
        bench["end_to_end"] + [m for m in bench["per_layer"]
                               if any(m["name"] in r["detail"] for r in runs)])
    bounds = {m["name"]: m.get("bound") for m in metrics}
    print("%-34s %12s %12s %12s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, (med, q1, q3, spread) in summarize(runs, list(bounds)).items():
        bound = bounds[name]
        flag = "" if bound is None else (" OK" if spread <= bound / 3 else
                                         (" <bound" if spread <= bound else
                                          " WIDE"))
        print("%-34s %12s %12s %12s %8.4f %6s%s" %
              (name, fmt(med), fmt(q1), fmt(q3), spread,
               "" if bound is None else bound, flag))
    shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
    print("failed share per run: %s" % sorted(shares))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "runs": runs}, f, indent=1)
    return 0


def fmt(v):
    return "-" if v is None else "%.6g" % v


def cmd_compare(args):
    bench = load_bench()
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    metrics = bench["per_layer"] if first["trace"] else bench["end_to_end"]
    names = [m["name"] for m in metrics]
    a, b = summarize(first["runs"], names), summarize(second["runs"], names)
    ok = True
    for m in metrics:
        name = m["name"]
        if name not in a or name not in b:
            continue
        worse = (b[name][0] - a[name][0]) / abs(a[name][0]) if a[name][0] else 0
        if m["better"] == "higher":
            worse = -worse
        bound = m.get("bound")
        verdict = ""
        if bound is not None:
            verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
            ok = ok and worse <= bound
        print("%-34s %12s -> %12s  worse by %+.4f  %s" %
              (name, fmt(a[name][0]), fmt(b[name][0]), worse, verdict))
    sa = sum(r["result"]["failed"] for r in first["runs"]) / max(
        1, sum(r["result"]["attempted"] for r in first["runs"]))
    sb = sum(r["result"]["failed"] for r in second["runs"]) / max(
        1, sum(r["result"]["attempted"] for r in second["runs"]))
    print("failed share: %.6g -> %.6g" % (sa, sb))
    return 0 if ok else 1


def cmd_overhead(args):
    bench = load_bench()
    with open(args.untraced) as f:
        untraced = json.load(f)
    with open(args.traced) as f:
        traced = json.load(f)
    for m in bench["end_to_end"]:
        name = m["name"]
        plain = [r["result"]["metrics"][name]["value"] for r in untraced["runs"]
                 if name in r["result"]["metrics"]]
        with_trace = [r["detail"]["traced." + name] for r in traced["runs"]
                      if "traced." + name in r["detail"]]
        if not plain or not with_trace:
            continue
        p, t = statistics.median(plain), statistics.median(with_trace)
        print("%-20s untraced %12s traced %12s difference %+.4f of untraced" %
              (name, fmt(p), fmt(t), (t - p) / p if p else 0))
    return 0


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed0", type=int, default=1)
    run.add_argument("--seconds", type=float, default=0)
    run.add_argument("--trace", type=int, default=0)
    run.add_argument("--out")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    ovh = sub.add_parser("overhead")
    ovh.add_argument("untraced")
    ovh.add_argument("traced")
    all_ = sub.add_parser("all")
    all_.add_argument("--seed", type=int, default=1)
    all_.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    return {"run": cmd_run, "compare": cmd_compare, "overhead": cmd_overhead,
            "all": cmd_all}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
