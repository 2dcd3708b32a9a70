#!/usr/bin/env python3
"""sepmc benchmark: seconds to a target standard error per family, timed by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload qubit-ball --seed 1 --seconds 35 --trace 0

``--trace 0`` times whole operations and reports the end-to-end metrics;
``--trace 1`` records a span around every call into a ``sepmc`` layer and
reports the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full report (environment manifest, tallies with their golden-check
status, and timings kept apart from them) goes to
``perfbench/out/<workload>-seed<seed>-trace<trace>.json``; a traced run also
writes its spans next to it.  The program under test is imported from the
checkout's ``src`` directory; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("qubit-ball", "quaterbit-body", "rebit-cli-resume")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sepmc" / "__init__.py").is_file():
        print(f"perfbench: the program is missing: no sepmc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import checks
    import workloads
    from tracer import Tracer

    if not 0 <= args.seed < workloads.MAX_SEED:
        print(f"perfbench: --seed must lie in [0, 2^40), got {args.seed}", file=sys.stderr)
        return 1
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 1

    case, body = workloads.WORKLOADS[args.workload]
    log = checks.OpLog(checks.load_golden()[args.workload])
    man = checks.manifest(args.workload, args.seed, args.trace)
    print("manifest " + json.dumps(man), flush=True)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = Path(tempfile.mkdtemp(prefix=stem + "-", dir=OUT))
    tracer = Tracer() if args.trace else None
    run = workloads.Run(case, log, work_dir)
    try:
        body(run, args.seed, args.seconds, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if tracer is None:
        completed = len(run.walls)
        values = run.end_to_end()
        units = workloads.END_TO_END_UNITS
    else:
        completed = run.acc.get("ops", 0)
        values = workloads.per_layer(tracer, run)
        units = workloads.PER_LAYER_UNITS
        tracer.write(OUT / f"{stem}-spans.json")
    if not completed or not values:
        log.errors.append("no measured operation completed")
        values = values or dict.fromkeys(units, 0.0)

    n_total, n_positive, n_sep = run.tally
    p_ref = float(checks.P_REF[case])
    _, distinct_pos, distinct_sep = (sum(col) for col in zip((0, 0, 0), *run.distinct.values()))
    correct = log.failed == 0 and completed > 0
    report = {
        "manifest": man,
        "deterministic": {
            "operations": log.records,
            "golden_checks": log.golden_summary(),
            "timed_tally": {"n_total": n_total, "n_positive": n_positive, "n_sep": n_sep},
            "p_ref": str(checks.P_REF[case]),
            "abs_z": abs(checks.z_score(distinct_pos, distinct_sep, p_ref)),
        },
        "timing": {
            "op_wall_s": run.walls,
            "setup_samples_s": run.setup_samples,
            "input_gen_s": run.acc.get("input_gen_s", 0.0),
            "metrics": values,
        },
        "errors": log.errors,
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"golden checks {json.dumps(log.golden_summary())}")
    print(f"timed tally (n_total, n_positive, n_sep) = ({n_total}, {n_positive}, {n_sep}); "
          f"|z| vs {checks.P_REF[case]} = {report['deterministic']['abs_z']:.3f} (information only)")
    for err in log.errors:
        print(f"failed operation: {err}")
    for name, value in values.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
