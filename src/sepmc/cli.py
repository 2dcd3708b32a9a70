"""Command line front end: estimate, conjecture, selftest.

Exit codes: 0 success, 1 usage error, 2 numeric or internal failure.  Each
flag is checked by its argparse type and `main` alone maps exceptions to
exit codes, so every error is one stderr line naming the flag, path or
field.  Result documents are JSON with a fixed, versioned field order so
runs can be diffed; every numeric field except wall_time_s is reproducible
from the flags and seed alone.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .conjecture import p_of_alpha
from .engine import DEFAULT_CHUNK_SIZE, CheckpointError, NoPositiveSamplesError, estimate
from .sampler import derive_stream
from .selftest import run_selftest
from .states import CASES

RESULT_SCHEMA = "sepmc.result/1"

# Series parameter matching each sampled family.
CASE_ALPHA = {"rebit": 0.5, "qubit": 1.0, "quaterbit": 2.0}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    """argparse prints a usage dump and exits 2 on bad flags; here it is one line, exit 1."""

    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _count(low: int):
    """argparse type: an integer >= low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def _workers(text: str):
    return None if text == "auto" else _count(1)(text)


def _seed(text: str) -> int:
    try:
        return derive_stream(int(text), 0, 0).seed
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
    est.add_argument("--samples", type=_count(1), required=True, help="total ball samples")
    est.add_argument("--seed", type=_seed, default=0)
    est.add_argument("--workers", type=_workers, default=None,
                     help="worker processes, or 'auto' (default)")
    est.add_argument("--chunk-size", type=_count(1), default=DEFAULT_CHUNK_SIZE)
    est.add_argument("--checkpoint", default=None, metavar="PATH",
                     help="checkpoint file to write and resume from")
    est.add_argument("--checkpoint-every", type=_count(0), default=1, metavar="K",
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
    """Write the document to out_path first, so a failed write prints nothing."""
    text = json.dumps(doc, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def cmd_estimate(args) -> int:
    alpha = CASE_ALPHA[args.case]
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
    t0 = time.perf_counter()
    res = p_of_alpha(args.alpha, args.rel_tol)
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
    try:
        return handler(args)
    except OSError as exc:
        # An unusable --checkpoint or --out path.
        code, message = EXIT_USAGE, f"error: {exc.filename}: {exc.strerror}"
    except CheckpointError as exc:
        code, message = EXIT_USAGE, f"error: checkpoint {args.checkpoint}: {exc}"
    except ValueError as exc:
        code, message = EXIT_USAGE, f"error: {exc}"
    except (NoPositiveSamplesError, ArithmeticError) as exc:
        code, message = EXIT_FAILURE, str(exc)
    print(f"sepmc {args.command}: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
