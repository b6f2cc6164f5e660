"""Repeat the benchmark and report how steady its end-to-end metrics are.

    python3 ccfbench/steady.py --workload cold-integral --seeds 1-10 [--repeat 1]

Runs ``run.py`` once per seed (and per repeat), one run at a time, with the
run length from BENCHMARK.json, and prints for each end-to-end metric the
median, the quartiles and the spread (interquartile distance over the
median, as statistics.quantiles(values, n=4) gives them) against the
metric's bound, plus the share of failed operations.
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
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    values = {}
    shares = set()
    for seed in args.seeds:
        for _ in range(args.repeat):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", args.workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                return 1
            shares.add(result["failed"] / result["attempted"])
            line = [f"seed {seed}:"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                line.append(f"{name}={m['value']:.4g}")
            print(" ".join(line), flush=True)
    print(f"{args.workload}: {len(next(iter(values.values())))} runs, "
          f"failed share {sorted(shares)}")
    for metric in bench["end_to_end"]:
        v = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        print(f"  {metric['name']:14s} median {med:.4g} {metric['unit']}, "
              f"quartiles {q1:.4g} .. {q3:.4g}, spread {spread:.3f} "
              f"(bound {metric['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
