#!/usr/bin/env python3
"""Run alternated parent/change benchmark pairs and compare their end-to-end metrics.

Usage:

    python3 tools/ab.py PARENT CHANGE --workload W --pairs N [--seconds 35] [--first-seed S]

PARENT and CHANGE are checkouts.  Pair i runs

    python3 perfbench/run.py --workload W --seed S+i --seconds SECONDS --trace 0

in each checkout, the parent first when i is even, and prints every run's
metrics.  Each end-to-end metric's ``better`` and ``bound`` are read from
CHANGE's BENCHMARK.json.  Per metric it prints each side's median and
quartiles (``statistics.quantiles(values, n=4)``, as perfbench/spread.py),
the change's wins out of the pairs, ties counting for neither, and the first
verdict of these that applies:

- ``gain``: the change wins at least 9/10 of the pairs, its median is better
  by more than the parent's quartile distance, and no more operations failed
  than at the parent;
- ``worse``: the change's median is worse than the parent's by more than the
  bound, relative to the parent's median;
- ``unresolved``: either side's quartile distance over its median exceeds the
  bound, unless every change run beats every parent run;
- ``no worse``: otherwise.

Exits 1 if any run exits nonzero or prints ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple:
    """(exit code, the run's closing JSON object or None) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, result


def beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(parent: list, change: list, better: str, bound: float, failed: dict) -> tuple:
    """(verdict, change wins, each side's quartiles) for one metric's runs, pair by pair."""
    wins = sum(beats(c, p, better) for p, c in zip(parent, change))
    quartiles = (p1, pm, p3), (c1, cm, c3) = [statistics.quantiles(v, n=4)
                                              for v in (parent, change)]
    gained = pm - cm if better == "lower" else cm - pm
    if 10 * wins >= 9 * len(parent) and gained > p3 - p1 and failed["change"] <= failed["parent"]:
        label = "gain"
    elif -gained > bound * abs(pm):
        label = "worse"
    elif ((p3 - p1) > bound * abs(pm) or (c3 - c1) > bound * abs(cm)) and not all(
            beats(c, p, better) for p in parent for c in change):
        label = "unresolved"
    else:
        label = "no worse"
    return label, wins, quartiles


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give quartiles")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    spec = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}

    values = {side: {name: [] for name in spec} for side in SIDES}
    ops = {side: {"failed": 0, "attempted": 0} for side in SIDES}
    ok = True
    for i in range(args.pairs):
        seed = args.first_seed + i
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            code, result = run_once(getattr(args, side), args.workload, seed, args.seconds)
            if code != 0 or result is None or not result["correct"]:
                ok = False
                print(f"pair {i} seed {seed} {side}: exit {code}, result {result}", flush=True)
                if result is None:
                    return 1  # no metrics to pair
            for key in ops[side]:
                ops[side][key] += result[key]
            metrics = {name: m["value"] for name, m in result["metrics"].items() if name in spec}
            for name, value in metrics.items():
                values[side][name].append(value)
            print(f"pair {i} seed {seed} {side}: " + json.dumps(metrics), flush=True)

    failed = {side: ops[side]["failed"] for side in SIDES}
    for name, (better, bound) in spec.items():
        parent, change = values["parent"][name], values["change"][name]
        label, wins, quartiles = verdict(parent, change, better, bound, failed)
        summary = ", ".join(f"{side} median {q[1]:.6g} [Q1 {q[0]:.6g}, Q3 {q[2]:.6g}]"
                            for side, q in zip(SIDES, quartiles))
        print(f"{args.workload} {name} ({better} is better, bound {bound}): {summary}; "
              f"change wins {wins}/{len(parent)}: {label}")
    print("operations failed/attempted: " + ", ".join(
        f"{side} {ops[side]['failed']}/{ops[side]['attempted']}" for side in SIDES))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
