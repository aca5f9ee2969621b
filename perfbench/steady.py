"""Run one workload with several seeds and print each metric's spread.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S]

Run from the root of a checkout. For every metric it prints the median, the
quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median and,
for end-to-end metrics, the bound from BENCHMARK.json, plus the share of
failed operations in each run.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} failed {res['failed']}/{res['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
              flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{args.workload}: {len(results)} runs, all correct: "
          f"{all(r['correct'] for r in results)}, failed shares: {sorted(shares)}")
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:36} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bounds[name]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
