"""Command line front end: estimate, conjecture, selftest.

Exit codes: 0 success, 1 usage error, 2 numeric or internal failure, 130
interrupted (Ctrl-C, or SIGTERM, which `main` turns into KeyboardInterrupt
while it runs; Python lets only the main thread set that handler, so
called from another thread `main` leaves the signal handlers as they
are).  Each flag is checked by its argparse type (an integer flag by the
library's own rule for the argument it feeds, `sampler.integer_in`) and
`main` alone maps exceptions to exit codes, so every error is one stderr
line naming the flag, path or field.  An `estimate` flag's dest is the
name of the `engine.estimate` parameter it sets, so `cmd_estimate` passes
those through by name; each subcommand names its handler by
`set_defaults(handler=...)`.  `selftest` runs `selftest.CHECKS` in order,
one line per check, and counts a check that raises as failed.  Result
documents are JSON with a fixed, versioned field order so runs can be
diffed; every numeric field except wall_time_s is reproducible from the
flags and seed alone.  `_emit` is the one function that builds and writes
a document: a command hands it only its own fields and its wall time.
Before its first chunk, `estimate` refuses an unusable `--out` or
`--checkpoint` by the engine's one path rule, `engine.check_path`, which
gives the write's own reason without opening the path, and an `--out`
that names its `--checkpoint` file, so such a path never throws a
finished run away; a path the process may not write still fails at the
write.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import signal
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict

from . import __version__
from .conjecture import MIN_REL_TOL, p_of_alpha
from .engine import (
    DEFAULT_CHUNK_SIZE,
    CheckpointError,
    NoPositiveSamplesError,
    check_path,
    estimate,
    write_text,
)
from .sampler import SEED_LIMIT, integer_in
from .selftest import CHECKS
from .states import CASES

RESULT_SCHEMA = "sepmc.result/1"

# Series parameter matching each sampled family: half its Dyson index beta.
CASE_ALPHA = {tag: case.beta / 2 for tag, case in CASES.items()}

# estimate()'s parameters: the dests of the `estimate` flags that set them.
ESTIMATE_PARAMETERS = tuple(inspect.signature(estimate).parameters)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a run Ctrl-C stopped; also for SIGTERM


class _Parser(argparse.ArgumentParser):
    """argparse prints a usage dump and exits 2 on bad flags; here it is one line, exit 1."""

    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _integer(name: str, low: int = 0, high: int = None):
    """argparse type: the library's integer rule for its argument `name`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = text  # refused by the rule as not an integer
        try:
            return integer_in(value, name, low, high)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _workers(text: str):
    return None if text == "auto" else _integer("workers", 1)(text)


def _path(text: str) -> str:
    """argparse type: a file path, which the empty string is not."""
    if not text:
        raise argparse.ArgumentTypeError("must name a file, got ''")
    return text


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
    est.add_argument("--samples", dest="n_total", type=_integer("n_total", 1), required=True,
                     metavar="SAMPLES", help="total ball samples")
    est.add_argument("--seed", type=_integer("seed", 0, SEED_LIMIT), default=0)
    est.add_argument("--workers", type=_workers, default=None,
                     help="worker processes, or 'auto' (default): the usable CPUs")
    est.add_argument("--chunk-size", type=_integer("chunk_size", 1), default=DEFAULT_CHUNK_SIZE)
    est.add_argument("--checkpoint", dest="checkpoint_path", type=_path, default=None,
                     metavar="PATH", help="checkpoint file to write and resume from")
    est.add_argument("--checkpoint-every", type=_integer("checkpoint_every"), default=1,
                     metavar="K", help="checkpoint every K completed chunks (0: never write)")
    est.add_argument("--out", type=_path, default=None, metavar="PATH",
                     help="also write the result document to PATH")
    est.set_defaults(handler=cmd_estimate)

    conj = sub.add_parser("conjecture", help="evaluate the conjectured series value")
    conj.add_argument("--alpha", type=float, required=True)
    conj.add_argument("--rel-tol", type=float, default=MIN_REL_TOL)
    conj.add_argument("--out", type=_path, default=None, metavar="PATH")
    conj.set_defaults(handler=cmd_conjecture)

    sub.add_parser("selftest", help="run the invariant battery").set_defaults(handler=cmd_selftest)
    return parser


def _emit(args, fields: dict, wall_time_s: float) -> int:
    """Build the command's result document, write it to args.out and print it.

    Fields in order: schema, command, the command's own fields, wall_time_s,
    version.  The file is written first, so a failed write prints nothing.
    """
    doc = {"schema": RESULT_SCHEMA, "command": args.command, **fields,
           "wall_time_s": wall_time_s, "version": __version__}
    text = json.dumps(doc, indent=2)
    if args.out is not None:
        write_text(args.out, text + "\n")
    print(text)
    return EXIT_OK


def cmd_estimate(args) -> int:
    alpha = CASE_ALPHA[args.case]
    if args.out is not None:  # refused before the run, not after it; the path is not opened
        check_path(args.out)
        if args.checkpoint_path and os.path.realpath(args.checkpoint_path) == os.path.realpath(args.out):
            raise ValueError(f"--out {args.out} is also the --checkpoint file")
    res = estimate(**{name: getattr(args, name) for name in ESTIMATE_PARAMETERS})
    conj = p_of_alpha(alpha)
    return _emit(args, {
        "case": args.case,
        "alpha": alpha,
        **asdict(res.tally),
        "p_hat": res.p_hat,
        "std_err": res.std_err,
        "conjecture": conj.value,
        "z_score": (res.p_hat - conj.value) / res.std_err if res.std_err > 0 else None,
        "seed": args.seed,
        "chunk_size": args.chunk_size,
    }, res.elapsed_s)


def cmd_conjecture(args) -> int:
    t0 = time.perf_counter()
    res = p_of_alpha(args.alpha, args.rel_tol)
    return _emit(args, asdict(res), time.perf_counter() - t0)


def cmd_selftest(_args) -> int:
    t0 = time.perf_counter()
    failed = []
    for check in CHECKS:
        name = check.__name__.removeprefix("check_").replace("_", "-")
        try:
            ok, detail = check()
        except Exception as exc:  # a crashing check is a failing check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failed.append(name)
    print(f"{len(CHECKS) - len(failed)}/{len(CHECKS)} checks passed "
          f"in {time.perf_counter() - t0:.1f}s")
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # SIGTERM takes Ctrl-C's path until main returns: one line, exit 130, workers ended
    on_main_thread = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler) if on_main_thread else None
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except KeyboardInterrupt:
        code, message = EXIT_INTERRUPTED, "interrupted"
        if getattr(args, "checkpoint_path", None) is not None:
            message += f"; rerun the same command to resume from checkpoint {args.checkpoint_path}"
    except BrokenProcessPool:
        code, message = EXIT_FAILURE, "error: a worker process died before its chunk was done"
    except OSError as exc:
        if exc.filename is not None:  # an unusable --checkpoint or --out path
            code, message = EXIT_USAGE, f"error: {exc.filename}: {exc.strerror}"
        else:  # a closed stdout, or a process the OS would not start
            code, message = EXIT_FAILURE, f"error: {exc.strerror or exc}"
            if isinstance(exc, BrokenPipeError):
                # the unwritten output must not fail again when Python flushes stdout at exit
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except CheckpointError as exc:
        code, message = EXIT_USAGE, f"error: checkpoint {args.checkpoint_path}: {exc}"
    except ValueError as exc:
        code, message = EXIT_USAGE, f"error: {exc}"
    except (NoPositiveSamplesError, ArithmeticError) as exc:
        code, message = EXIT_FAILURE, str(exc)
    finally:
        if on_main_thread:
            signal.signal(signal.SIGTERM, previous)
    print(f"sepmc {args.command}: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
