#!/usr/bin/env python3
"""Record the golden tallies that the benchmark checks every operation against.

Run from the root of a checkout whose tallies are the reference:

    python3 perfbench/record_golden.py

For DEFAULT_SEED and HELD_OUT_SEED it records the first operations of each
workload as ``(case, seed, chunk_size, n_total) -> (n_total, n_positive,
n_sep)`` and rewrites ``perfbench/golden.json``.  A change that means to
keep tallies must never need this.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from sepmc import engine, kernels  # noqa: E402

import workloads as w  # noqa: E402
from checks import GOLDEN_PATH, golden_key  # noqa: E402
from inputs import quaterbit_body_points  # noqa: E402

# Operations recorded per seed: more than one run of each workload makes.
QUBIT_OPS = 16
CLI_OPS = 48


def _estimate(case, seed, n_total, chunk_size):
    t = engine.estimate(case, seed=seed, n_total=n_total, workers=w.WORKERS,
                        chunk_size=chunk_size).tally
    return [t.n_total, t.n_positive, t.n_sep]


def main() -> int:
    seeds = (w.DEFAULT_SEED, w.HELD_OUT_SEED)
    tallies = {name: {} for name in w.WORKLOADS}
    for seed in seeds:
        for k in range(QUBIT_OPS):
            s = w.op_seed(seed, k)
            tallies["qubit-ball"][golden_key("qubit", s, w.QUBIT_CHUNK, w.QUBIT_DRAWS)] = \
                _estimate("qubit", s, w.QUBIT_DRAWS, w.QUBIT_CHUNK)
        pts = quaterbit_body_points(seed, w.BODY_POINTS)
        npos, nsep = kernels.count_tallies(pts, "quaterbit")
        tallies["quaterbit-body"][golden_key("quaterbit", seed, len(pts), len(pts))] = \
            [len(pts), int(npos), int(nsep)]
        for k in range(CLI_OPS):
            s = w.op_seed(seed, k)
            for n in (w.CLI_HALF, w.CLI_DRAWS):
                tallies["rebit-cli-resume"][golden_key("rebit", s, w.CLI_CHUNK, n)] = \
                    _estimate("rebit", s, n, w.CLI_CHUNK)
        print(f"seed {seed} recorded", flush=True)
    doc = {
        "schema": "perfbench.golden/1",
        "seeds": {"default": w.DEFAULT_SEED, "held_out": w.HELD_OUT_SEED},
        "key": "case/seed/chunk_size/n_total -> [n_total, n_positive, n_sep]",
        "tallies": tallies,
    }
    text = re.sub(r"\[\s+(\d+),\s+(\d+),\s+(\d+)\s+\]", r"[\1, \2, \3]", json.dumps(doc, indent=1))
    GOLDEN_PATH.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
