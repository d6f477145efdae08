#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload untraced once per seed, at BENCHMARK.json's
run_seconds, and prints each run's wall time and, per metric, the
median and the distance between the first and third quartiles as a
share of the median (statistics.quantiles(values, n=4)), which is how
the bounds in BENCHMARK.json are checked. Run from the repository root:

    python3 arcbench/spread.py --workload sweep --seeds 1-10
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for s in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(s),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        t0 = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.monotonic() - t0
        if out.returncode != 0:
            sys.exit(f"seed {s}: exit {out.returncode}\n{out.stderr}")
        rep = json.loads(out.stdout.strip().splitlines()[-1])
        if not rep["correct"] or rep["failed"]:
            sys.exit(f"seed {s}: incorrect run {rep}")
        for k, v in rep["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        print(f"seed {s}: wall={wall:.1f}s " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(rep["metrics"].items())),
              file=sys.stderr, flush=True)
    for k, vs in sorted(values.items()):
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"{k:20s} median {med:14.4f}  spread {spread:7.4f}  bound {bounds.get(k)}")


if __name__ == "__main__":
    main()
