#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's median and quartile spread.

    python3 perfbench/spread.py --workload qubit-ball --seeds 10 11 12 13 14 --seconds 35

Runs are sequential.  The spread is (Q3 - Q1) / median with the quartiles
of ``statistics.quantiles(values, n=4)``; a metric is steady when its
spread stays below a third of its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values) -> tuple:
    """(median, Q1, Q3, (Q3 - Q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
            return 1
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"seed {seed}: " + json.dumps(runs[-1]), flush=True)
    if len(runs) < 2:
        return 0
    for name in runs[0]:
        med, q1, q3, rel = spread([r[name] for r in runs])
        bound = bounds[name]
        verdict = "ok" if rel < bound / 3 else "WIDE"
        print(f"{args.workload} {name}: median {med:.6g} Q1 {q1:.6g} Q3 {q3:.6g} "
              f"spread {rel:.4f}  bound {bound}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
