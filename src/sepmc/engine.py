"""Monte Carlo estimator: sample, test, tally, merge, checkpoint.

The run is organized map-reduce style: the total sample budget is split into
fixed-size chunks, chunk i is evaluated as a pure function of the stream
(seed, worker=0, chunk=i), and the resulting tallies are added.  The final
tally therefore depends only on (case, seed, number of chunks), never on how
chunks were scheduled over workers.
"""

from __future__ import annotations

import os
import stat
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import astuple, dataclass, replace
from functools import partial

import numpy as np

from . import kernels
from .sampler import DRAW_BATCH, SEED_LIMIT, StreamSpec, ball_batches, integer_in
from .states import get_case

# perfbench imports this alias of DRAW_BATCH; ROADMAP item 8 removes it with a benchmark change.
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
    tally: TallyCounts
    p_hat: float
    std_err: float
    elapsed_s: float


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
    """Resumable state of a partially completed run."""

    case_tag: str
    seed: int
    chunk_size: int
    chunks_done: int
    tally: TallyCounts


# The checkpoint's 'key value' lines in file order; every field but the case
# tag is an integer in [low, high).
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


def checkpoint_save(state: Checkpoint, path) -> None:
    """Write a checkpoint as line-oriented 'key value' text (atomic rename).

    Raises CheckpointError, before anything is written, for a state that
    checkpoint_load would refuse to read back.
    """
    values = (CHECKPOINT_VERSION, state.case_tag, state.seed, state.chunk_size,
              state.chunks_done, *astuple(state.tally))
    text = "".join(f"{key} {value}\n"
                   for key, value in zip(_CHECKPOINT_FIELDS, values, strict=True))
    _parse(text.encode())
    tmp = f"{path}.tmp"
    write_text(tmp, text)
    os.replace(tmp, path)


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
    _, tag, seed, chunk_size, chunks_done, *counts = values
    try:
        tally = TallyCounts(*counts)
    except ValueError as exc:
        raise CheckpointError(f"field 'n_total/n_positive/n_sep': {exc}") from None
    if tally.n_total != chunks_done * chunk_size:
        raise CheckpointError(
            f"field 'n_total': {tally.n_total} draws, but chunks_done * chunk_size "
            f"= {chunks_done} * {chunk_size} = {chunks_done * chunk_size}"
        )
    return Checkpoint(tag, seed, chunk_size, chunks_done, tally)


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
    process may run on.  The tally is invariant under the worker count and
    any interrupt/resume through checkpoints; only wall time varies.  With
    checkpoint_path the run resumes from that file if it exists and rewrites
    it after every checkpoint_every completed chunks and after the last one
    (0: never write).  A path that cannot be opened, other than a missing
    file in an existing directory, raises OSError before the first chunk.
    Raises NoPositiveSamplesError when no draw was positive: for rebit and
    qubit only at small n_total, but for quaterbit at every affordable one,
    as its states fill about 5.5e-14 of the coefficient ball.  A run that
    stops early, by an exception or an interrupt, terminates its worker
    processes before it raises, so no chunk already queued to them is run.
    """
    case = get_case(case)
    n_total = integer_in(n_total, "n_total", 1)
    chunk_size = integer_in(chunk_size, "chunk_size", 1)
    if workers is None:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
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
            # no checkpoint yet; a missing directory is refused now, not at the first save
            if not os.path.isdir(os.path.dirname(checkpoint_path) or os.curdir):
                raise
        else:
            for field, theirs, ours in zip(("case", "seed", "chunk_size"),
                                           astuple(loaded), astuple(run)):
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

    task = partial(run_chunk, case.tag, chunk_size=chunk_size)
    # checkpoint_every counts the chunks this call completes, not those resumed from
    start_chunk = run.chunks_done
    processes = min(workers, n_chunks - start_chunk, WINDOW)
    with ProcessPoolExecutor(processes) if processes > 1 else nullcontext() as pool:
        mapper = pool.map if pool else map
        try:
            # Windows of chunks in order, each merged in submission order, so a
            # checkpoint always describes an exact prefix of the chunk sequence.
            for lo in range(start_chunk, n_chunks, WINDOW):
                streams = (StreamSpec(seed, 0, i) for i in range(lo, min(lo + WINDOW, n_chunks)))
                for done, counts in enumerate(mapper(task, streams), lo + 1):
                    run = replace(run, chunks_done=done, tally=run.tally.merge(counts))
                    if checkpoint_path is not None and checkpoint_every and (
                        (done - start_chunk) % checkpoint_every == 0 or done == n_chunks
                    ):
                        checkpoint_save(run, checkpoint_path)
        except BaseException:
            # Leaving the pool waits for every chunk already queued to a
            # worker, which map cannot cancel: end the workers first (before
            # Python 3.14 the pool has no public call for this).
            for process in tuple(pool._processes.values()) if pool else ():
                process.terminate()
            raise

    if run.tally.n_positive == 0:
        raise NoPositiveSamplesError(
            f"no positive samples among {run.tally.n_total} draws for case "
            f"{case.tag}; p_hat is undefined"
        )
    p_hat = run.tally.n_sep / run.tally.n_positive
    std_err = float(np.sqrt(p_hat * (1.0 - p_hat) / run.tally.n_positive))
    return EstimateResult(
        tally=run.tally,
        p_hat=p_hat,
        std_err=std_err,
        elapsed_s=time.perf_counter() - t_start,
    )
