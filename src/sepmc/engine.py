"""Monte Carlo estimator: sample, test, tally, merge, checkpoint.

The run is organized map-reduce style: the total sample budget is split into
fixed-size chunks, chunk i is evaluated as a pure function of the stream
(seed, worker=0, chunk=i), and the resulting tallies are added.  The final
tally therefore depends only on (case, seed, number of chunks), never on how
chunks were scheduled over workers.  `chunk_tallies` yields the chunks'
tallies in chunk order and is the one place that knows about processes,
from the usable CPU count to the pool; `estimate` validates, resumes, folds
that stream and saves checkpoints.  A `Checkpoint` record's fields are the
checkpoint file's keys after `version`, in file order, with the tally's
fields flattened.
"""

from __future__ import annotations

import errno
import math
import os
import signal
import stat
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import astuple, dataclass, replace
from functools import partial
from itertools import islice

from . import kernels
from .sampler import DRAW_BATCH, SEED_LIMIT, StreamSpec, ball_batches, integer_in
from .states import get_case

# perfbench imports this alias of DRAW_BATCH; only a benchmark change can remove it.
KERNEL_BATCH = DRAW_BATCH

DEFAULT_CHUNK_SIZE = 1_000_000

# Chunks submitted at once: the results of at most this many are held, and
# no pool has more processes than this.
WINDOW = 256

CHECKPOINT_VERSION = 1

# A valid checkpoint is eight short lines (a rebit one is 92 bytes); a larger
# file is refused after reading at most one byte more than this.
CHECKPOINT_MAX_BYTES = 4096


class NoPositiveSamplesError(RuntimeError):
    """No sampled point was a valid state, so p_hat is undefined."""


class CheckpointError(ValueError):
    """Checkpoint file is corrupt, incomplete or incompatible."""


@dataclass(frozen=True)
class TallyCounts:
    """Counting sufficient statistic: total draws, positive draws, positive-and-PPT draws."""

    n_total: int
    n_positive: int
    n_sep: int

    def __post_init__(self):
        if not 0 <= self.n_sep <= self.n_positive <= self.n_total:
            raise ValueError(
                f"tally ordering violated: 0 <= {self.n_sep} <= "
                f"{self.n_positive} <= {self.n_total} must hold"
            )

    @classmethod
    def zero(cls) -> "TallyCounts":
        return cls(0, 0, 0)

    def merge(self, other: "TallyCounts") -> "TallyCounts":
        """Component-wise sum (commutative, associative, zero identity).

        Counters are Python ints, so the sum is exact at any scale; overflow
        cannot wrap silently.
        """
        return TallyCounts(
            self.n_total + other.n_total,
            self.n_positive + other.n_positive,
            self.n_sep + other.n_sep,
        )


@dataclass(frozen=True)
class EstimateResult:
    """A run's tally and wall time; p_hat and its binomial standard error follow from the tally."""

    tally: TallyCounts
    elapsed_s: float

    @property
    def p_hat(self) -> float:
        return self.tally.n_sep / self.tally.n_positive

    @property
    def std_err(self) -> float:
        return math.sqrt(self.p_hat * (1.0 - self.p_hat) / self.tally.n_positive)


def run_chunk(case, stream: StreamSpec, chunk_size: int) -> TallyCounts:
    """Sample chunk_size ball points on one stream and tally the two tests.

    Pure function of (case, stream, chunk_size): identical inputs give
    identical counts.
    """
    case = get_case(case)
    chunk_size = integer_in(chunk_size, "chunk_size", 1)
    n_positive = 0
    n_sep = 0
    for pts in ball_batches(case.num_coeffs, case.radius, stream.generator(), chunk_size):
        npos, nsep = kernels.count_tallies(pts, case.tag)
        n_positive += npos
        n_sep += nsep
    return TallyCounts(chunk_size, n_positive, n_sep)


@dataclass(frozen=True)
class Checkpoint:
    """Resumable state of a partially completed run, field for field the checkpoint file."""

    case: str
    seed: int
    chunk_size: int
    chunks_done: int
    tally: TallyCounts


# The checkpoint's 'key value' lines in file order: version, then Checkpoint's
# fields with the tally's flattened.  Every field but case is an integer
# in [low, high).
_CHECKPOINT_FIELDS = {
    "version": (CHECKPOINT_VERSION, CHECKPOINT_VERSION + 1),
    "case": None,
    "seed": (0, SEED_LIMIT),
    "chunk_size": (1, None),
    "chunks_done": (0, None),
    "n_total": (0, None),
    "n_positive": (0, None),
    "n_sep": (0, None),
}


def write_text(path, text: str) -> None:
    """Write text to path; an OSError names path also when the write, not the open, fails."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        exc.filename = path
        raise


def check_path(path) -> None:
    """Raise the OSError, naming path, that a write to path would meet first.

    The one rule for a path a run will write, checked before the run: it
    opens and creates nothing, so a FIFO or device passes unread.  os.stat
    gives the reason (a missing or non-directory parent, too long a name, a
    symlink loop), a directory raises IsADirectoryError, and a missing file
    in an existing directory passes.  A symlink is followed, as the write
    follows it: a dangling link passes only when its target's directory
    exists.  A path the process may not write, or a full device, still
    fails at the write.
    """
    try:
        if stat.S_ISDIR(os.stat(path).st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    except FileNotFoundError:
        if not os.path.isdir(os.path.dirname(os.path.realpath(path))):
            raise


def checkpoint_save(state: Checkpoint, path) -> None:
    """Write a checkpoint as line-oriented 'key value' text (atomic rename).

    A symlink is followed: the text goes to its target's PATH.tmp, which is
    renamed over the target, so the link stays and checkpoint_load reads
    what was saved.  Raises CheckpointError, before anything is written,
    for a state that checkpoint_load would refuse to read back.
    """
    *run, counts = astuple(state)
    text = "".join(f"{key} {value}\n" for key, value in
                   zip(_CHECKPOINT_FIELDS, (CHECKPOINT_VERSION, *run, *counts), strict=True))
    _parse(text.encode())
    target = os.path.realpath(path)
    write_text(f"{target}.tmp", text)
    os.replace(f"{target}.tmp", target)


def checkpoint_load(path) -> Checkpoint:
    """Parse a checkpoint file, raising CheckpointError naming any bad field.

    Only a regular file of at most CHECKPOINT_MAX_BYTES is read; a device,
    FIFO or directory, or a larger file, is refused.
    """
    # O_NONBLOCK: opening a FIFO must not wait for a writer
    with open(path, "rb", opener=lambda p, flags: os.open(p, flags | os.O_NONBLOCK)) as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            raise CheckpointError("not a regular file")
        return _parse(fh.read(CHECKPOINT_MAX_BYTES + 1))


def _parse(data: bytes) -> Checkpoint:
    """Parse checkpoint bytes: those checkpoint_load reads and those checkpoint_save writes."""
    if len(data) > CHECKPOINT_MAX_BYTES:
        raise CheckpointError(f"larger than {CHECKPOINT_MAX_BYTES} bytes")
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"not a text file: {exc}") from None
    fields = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise CheckpointError(f"line {lineno}: expected 'key value', got {line!r}")
        key, value = parts
        if key not in _CHECKPOINT_FIELDS or key in fields:
            problem = "repeated" if key in fields else "unknown"
            raise CheckpointError(f"line {lineno}: {problem} field {key!r}")
        fields[key] = value
    for key in _CHECKPOINT_FIELDS:
        if key not in fields:
            raise CheckpointError(f"missing field {key!r}")
    values = []
    for key, bounds in _CHECKPOINT_FIELDS.items():
        text = fields[key]
        try:
            values.append(get_case(text).tag if bounds is None
                          else integer_in(int(text), key, *bounds))
        except ValueError as exc:
            raise CheckpointError(f"field {key!r}: {exc}") from None
    _, case, seed, chunk_size, chunks_done, *counts = values
    try:
        tally = TallyCounts(*counts)
    except ValueError as exc:
        raise CheckpointError(f"field 'n_total/n_positive/n_sep': {exc}") from None
    if tally.n_total != chunks_done * chunk_size:
        raise CheckpointError(
            f"field 'n_total': {tally.n_total} draws, but chunks_done * chunk_size "
            f"= {chunks_done} * {chunk_size} = {chunks_done * chunk_size}"
        )
    return Checkpoint(case, seed, chunk_size, chunks_done, tally)


def _worker_signals() -> None:
    """A pool worker leaves Ctrl-C to its parent, which ends it, and dies at once at SIGTERM."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def chunk_tallies(case, seed: int, chunk_size: int, chunks: range, workers: int):
    """Yield run_chunk's TallyCounts for each chunk in chunks, in chunk order.

    The one place that knows about processes: workers=None means the CPUs
    this process may run on.  With min(workers, len(chunks[:WINDOW])) <= 1
    the chunks run in this process; otherwise a pool of that many processes
    runs them, submitted a window of WINDOW at a time and read back in
    order, so at most WINDOW results are held.  No len() of the whole range
    is taken, so a run of more than 2**63-1 chunks starts too.  No
    chunk is cancelled (as Executor.map cancels the queued ones when an
    interrupt unwinds it): ending the workers makes the pool's thread fail
    every chunk still pending, which on a cancelled one raised
    InvalidStateError in that thread (seen on Python 3.11).  Any exception,
    and closing the generator (GeneratorExit), terminates the workers
    before it propagates, so no chunk already queued to them is run.  The
    workers ignore SIGINT and die at SIGTERM (`_worker_signals`), so Ctrl-C
    to the process group, or a SIGTERM that the caller turns into
    KeyboardInterrupt (as `sepmc` does), ends them the same way.
    """
    task = partial(run_chunk, case, chunk_size=chunk_size)
    streams = (StreamSpec(seed, 0, i) for i in chunks)
    if workers is None:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    processes = min(workers, len(chunks[:WINDOW]))
    if processes <= 1:
        yield from map(task, streams)
        return
    with ProcessPoolExecutor(processes, initializer=_worker_signals) as pool:
        try:
            while window := [pool.submit(task, stream) for stream in islice(streams, WINDOW)]:
                for chunk in window:
                    yield chunk.result()
        except BaseException:
            # Leaving the pool waits for every chunk already submitted: end the
            # workers first (before Python 3.14 the pool has no public call for this).
            for process in tuple(pool._processes.values()):
                process.terminate()
            raise


def estimate(
    case,
    seed: int,
    n_total: int,
    workers: int = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    checkpoint_path=None,
    checkpoint_every: int = 1,
) -> EstimateResult:
    """Estimate the conditional probability n_sep/n_positive over n_total draws.

    n_total is rounded up to whole chunks.  workers=None means the CPUs this
    process may run on, as `chunk_tallies` counts them.  The tally is
    invariant under the worker count and any interrupt/resume through
    checkpoints; only wall time varies.  With checkpoint_path the run
    resumes from that file if it exists and rewrites it after every
    checkpoint_every completed chunks and after the last one (0: never
    write).  A path that cannot be opened, other than a missing
    file in an existing directory (`check_path`), raises OSError before the
    first chunk.  The chunks come from `chunk_tallies`, the one place that
    knows about processes, and a checkpoint always describes an exact
    prefix of the chunk sequence.  A run that stops early, by an exception
    or an interrupt, closes that stream, which ends the workers before the
    run raises (`chunk_tallies` says how).
    Raises NoPositiveSamplesError when no draw was positive: for rebit and
    qubit only at small n_total, but for quaterbit at every affordable one,
    as its states fill about 5.5e-14 of the coefficient ball.
    """
    case = get_case(case)
    n_total = integer_in(n_total, "n_total", 1)
    chunk_size = integer_in(chunk_size, "chunk_size", 1)
    if workers is not None:
        integer_in(workers, "workers", 1)
    integer_in(checkpoint_every, "checkpoint_every")
    seed = integer_in(seed, "seed", 0, SEED_LIMIT)
    if checkpoint_path == "":
        raise ValueError("checkpoint_path must name a file, got ''")

    t_start = time.perf_counter()
    n_chunks = -(-n_total // chunk_size)
    run = Checkpoint(case.tag, seed, chunk_size, 0, TallyCounts.zero())
    if checkpoint_path is not None:
        try:
            loaded = checkpoint_load(checkpoint_path)
        except FileNotFoundError:
            # no checkpoint yet; a path the first save cannot write is refused now
            check_path(checkpoint_path)
        else:
            for field in ("case", "seed", "chunk_size"):
                theirs, ours = getattr(loaded, field), getattr(run, field)
                if theirs != ours:
                    raise CheckpointError(
                        f"field {field!r}: checkpoint has {theirs!r}, run uses {ours!r}"
                    )
            if loaded.chunks_done > n_chunks:
                raise CheckpointError(
                    f"field 'chunks_done': checkpoint has {loaded.chunks_done} chunks, "
                    f"run has only {n_chunks}"
                )
            run = loaded

    # checkpoint_every counts the chunks this call completes, not those resumed from
    start_chunk = run.chunks_done
    # closing: an exception in the fold ends the workers at once
    with closing(chunk_tallies(case.tag, seed, chunk_size, range(start_chunk, n_chunks),
                               workers)) as tallies:
        for done, counts in enumerate(tallies, start_chunk + 1):
            run = replace(run, chunks_done=done, tally=run.tally.merge(counts))
            if checkpoint_path is not None and checkpoint_every and (
                    (done - start_chunk) % checkpoint_every == 0 or done == n_chunks):
                checkpoint_save(run, checkpoint_path)

    if run.tally.n_positive == 0:
        raise NoPositiveSamplesError(
            f"no positive samples among {run.tally.n_total} draws for case "
            f"{case.tag}; p_hat is undefined"
        )
    return EstimateResult(run.tally, time.perf_counter() - t_start)
