"""Command line front end: estimate, conjecture, selftest.

Exit codes: 0 success, 1 usage error, 2 numeric or internal failure.
Result documents are JSON with a fixed, versioned field order so runs can
be diffed; every numeric field except wall_time_s is reproducible from the
flags and seed alone.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .conjecture import p_of_alpha
from .engine import CheckpointError, NoPositiveSamplesError, estimate
from .selftest import run_selftest
from .states import CASES

RESULT_SCHEMA = "sepmc.result/1"

# Series parameter matching each sampled family.
CASE_ALPHA = {"rebit": 0.5, "qubit": 1.0, "quaterbit": 2.0}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _workers_arg(value: str):
    if value == "auto":
        return None
    return int(value)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sepmc",
        description=(
            "Estimate the probability that a random bipartite state "
            "(rebit/qubit/quaterbit) is separable under the "
            "Hilbert-Schmidt measure, and evaluate the conjectured "
            "closed-form value for comparison."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run the Monte Carlo estimator")
    est.add_argument("--case", required=True, choices=sorted(CASES))
    est.add_argument("--samples", type=int, required=True, help="total ball samples")
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--workers", type=_workers_arg, default=None,
                     help="worker processes, or 'auto' (default)")
    est.add_argument("--chunk-size", type=int, default=1_000_000)
    est.add_argument("--checkpoint", default=None, metavar="PATH",
                     help="checkpoint file to write and resume from")
    est.add_argument("--checkpoint-every", type=int, default=1, metavar="K",
                     help="checkpoint every K completed chunks (0: never write)")
    est.add_argument("--out", default=None, metavar="PATH",
                     help="also write the result document to PATH")

    conj = sub.add_parser("conjecture", help="evaluate the conjectured series value")
    conj.add_argument("--alpha", type=float, required=True)
    conj.add_argument("--rel-tol", type=float, default=1e-12)
    conj.add_argument("--out", default=None, metavar="PATH")

    sub.add_parser("selftest", help="run the invariant battery")
    return parser


def _emit(doc: dict, out_path):
    text = json.dumps(doc, indent=2)
    print(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")


def cmd_estimate(args) -> int:
    if args.samples < 1:
        print("sepmc estimate: error: --samples must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.chunk_size < 1:
        print("sepmc estimate: error: --chunk-size must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.workers is not None and args.workers < 1:
        print("sepmc estimate: error: --workers must be >= 1 or 'auto'", file=sys.stderr)
        return EXIT_USAGE
    if not 0 <= args.seed < 2**64:
        print("sepmc estimate: error: --seed must be in [0, 2**64)", file=sys.stderr)
        return EXIT_USAGE
    if args.checkpoint_every < 0:
        print("sepmc estimate: error: --checkpoint-every must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    alpha = CASE_ALPHA[args.case]
    try:
        res = estimate(
            args.case,
            seed=args.seed,
            n_total=args.samples,
            workers=args.workers,
            chunk_size=args.chunk_size,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
        )
        conj = p_of_alpha(alpha, 1e-12)
    except (NoPositiveSamplesError, ArithmeticError) as exc:
        print(f"sepmc estimate: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except CheckpointError as exc:
        print(f"sepmc estimate: error: checkpoint {args.checkpoint}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"sepmc estimate: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    doc = {
        "schema": RESULT_SCHEMA,
        "command": "estimate",
        "case": args.case,
        "alpha": alpha,
        "n_total": res.tally.n_total,
        "n_positive": res.tally.n_positive,
        "n_sep": res.tally.n_sep,
        "p_hat": res.p_hat,
        "std_err": res.std_err,
        "conjecture": conj.value,
        "z_score": (res.p_hat - conj.value) / res.std_err if res.std_err > 0 else None,
        "seed": args.seed,
        "chunk_size": args.chunk_size,
        "wall_time_s": res.elapsed_s,
        "version": __version__,
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_conjecture(args) -> int:
    if args.alpha < 0:
        print("sepmc conjecture: error: --alpha must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    t0 = time.perf_counter()
    try:
        res = p_of_alpha(args.alpha, args.rel_tol)
    except ValueError as exc:
        print(f"sepmc conjecture: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"sepmc conjecture: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    doc = {
        "schema": RESULT_SCHEMA,
        "command": "conjecture",
        "alpha": res.alpha,
        "value": res.value,
        "terms_used": res.terms_used,
        "tail_bound": res.tail_bound,
        "rel_tol": res.rel_tol,
        "wall_time_s": time.perf_counter() - t0,
        "version": __version__,
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_selftest(_args) -> int:
    t0 = time.perf_counter()
    results = run_selftest()
    elapsed = time.perf_counter() - t0
    failed = [name for name, ok, _ in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed "
          f"in {elapsed:.1f}s")
    if elapsed > 60:
        print("warning: selftest exceeded its 60s budget", file=sys.stderr)
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "estimate": cmd_estimate,
        "conjecture": cmd_conjecture,
        "selftest": cmd_selftest,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
