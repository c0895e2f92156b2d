#!/usr/bin/env python3
"""Run-to-run spread of the benchmark: runs run.py once per seed and prints,
for every metric, the median and the distance between the first and third
quartile as a share of the median (statistics.quantiles, n=4).

    python3 perfbench/spread.py --workload imu_xproc --seeds 1-10 [--trace 1]

With --json, also writes every run's metrics to that file.  A metric's
spread should stay below a third of its bound in BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stdout + out.stderr)
            sys.exit(f"seed {seed}: exit code {out.returncode}")
        result = json.loads(lines[-1])
        runs.append(result)
        print(f"seed {seed}: " + "  ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)

    print(f"\n{args.workload}, {len(runs)} runs of {seconds:g} s")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread < bound / 3 else "WIDE"
        print(f"  {name:44s} median {median:12.5g}  spread {spread:7.3f}"
              f"  {'' if bound is None else f'bound {bound:.2f} '}{verdict}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
