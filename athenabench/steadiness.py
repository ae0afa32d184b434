#!/usr/bin/env python3
"""Run one benchmark workload N times and report how steady it is.

Run from the repository root:

    python3 athenabench/steadiness.py --workload steady-detect --runs 10

Each run uses its own seed (seed0, seed0+1, ...). For every end-to-end
metric the tool prints the median and quartiles of the runs' values
(statistics.quantiles(n=4)), the quartile spread as a share of the
median, and that metric's bound from BENCHMARK.json. A spread at or
above a third of the bound is flagged; setup_s is judged only by its
median. It also prints each run's share of failed operations, its
metric values and, where /proc/stat exists, the share of CPU time the
host's hypervisor stole while it ran: wall-clock metrics move with it.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    short = {name: name.split("_")[0][:8] for name in bounds}
    shares = []
    for i in range(args.runs):
        seed = args.seed0 + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        cpu0 = cpu_times()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        cpu1 = cpu_times()
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"run with seed {seed} failed (exit {proc.returncode})")
        res = json.loads(lines[-1])
        share = res["failed"] / res["attempted"]
        shares.append(share)
        steal = ""
        if cpu0 and cpu1 and sum(cpu1) > sum(cpu0):
            steal = f" steal={(cpu1[7] - cpu0[7]) / (sum(cpu1) - sum(cpu0)):.3f}"
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} ({share:.6f}){steal}", flush=True)
        print("   " + " ".join(f"{short[n]}={v['value']:.4g}" for n, v in res["metrics"].items()
                               if n in short), flush=True)
        if not res["correct"]:
            sys.stderr.write(proc.stderr)
        for name, v in res["metrics"].items():
            values[name].append(v["value"])

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':22} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  steady")
    for name, m in bounds.items():
        xs = values[name]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ok = "-" if name == "setup_s" else ("yes" if spread < m["bound"] / 3 else "NO")
        print(f"{name:22} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.3f} {m['bound']:6.2f}  {ok}")
    print(f"failed share per run: {sorted(set(shares))}")


def cpu_times():
    """The host's aggregate CPU jiffies (user ... steal), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


if __name__ == "__main__":
    main()
