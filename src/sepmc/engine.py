"""Monte Carlo estimator: sample, test, tally, merge, checkpoint.

The run is organized map-reduce style: the total sample budget is split into
fixed-size chunks, chunk i is evaluated as a pure function of the stream
(seed, worker=0, chunk=i), and the resulting tallies are added.  The final
tally therefore depends only on (case, seed, number of chunks), never on how
chunks were scheduled over workers.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import astuple, dataclass
from functools import partial

import numpy as np

from . import kernels
from .sampler import DRAW_BATCH, StreamSpec, ball_batches, derive_stream
from .states import StateCase, get_case

# Samples per kernel call inside a chunk: the sampler's draw batch, so that
# a chunk's tally depends only on its StreamSpec and chunk_size.
KERNEL_BATCH = DRAW_BATCH

DEFAULT_CHUNK_SIZE = 1_000_000

CHECKPOINT_VERSION = 1


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
    case: StateCase
    tally: TallyCounts
    p_hat: float
    std_err: float
    seed: int
    elapsed_s: float


def run_chunk(case, stream: StreamSpec, chunk_size: int) -> TallyCounts:
    """Sample chunk_size ball points on one stream and tally the two tests.

    Pure function of (case, stream, chunk_size): identical inputs give
    identical counts.
    """
    case = get_case(case)
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
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


def _at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        return value
    return parse


def _version(text: str) -> int:
    if int(text) != CHECKPOINT_VERSION:
        raise ValueError(f"expected {CHECKPOINT_VERSION}, got {text}")
    return CHECKPOINT_VERSION


# The checkpoint's 'key value' lines in file order, each with its value's parser.
_CHECKPOINT_FIELDS = {
    "version": _version,
    "case": lambda text: get_case(text).tag,
    "seed": lambda text: derive_stream(int(text), 0, 0).seed,
    "chunk_size": _at_least(1),
    "chunks_done": _at_least(0),
    "n_total": int,
    "n_positive": int,
    "n_sep": int,
}


def checkpoint_save(state: Checkpoint, path) -> None:
    """Write a checkpoint as line-oriented 'key value' text (atomic rename)."""
    values = (CHECKPOINT_VERSION, state.case_tag, state.seed, state.chunk_size,
              state.chunks_done, *astuple(state.tally))
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.writelines(f"{key} {value}\n"
                      for key, value in zip(_CHECKPOINT_FIELDS, values, strict=True))
    os.replace(tmp, path)


def checkpoint_load(path) -> Checkpoint:
    """Parse a checkpoint file, raising CheckpointError naming any bad field."""
    fields = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"not a text file: {exc}") from None
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
    for key, parse in _CHECKPOINT_FIELDS.items():
        try:
            values.append(parse(fields[key]))
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
    checkpoint_every: int = 0,
) -> EstimateResult:
    """Estimate the conditional probability n_sep/n_positive over n_total draws.

    n_total is rounded up to whole chunks.  The tally is invariant under the
    worker count and any interrupt/resume through checkpoints; only wall
    time varies.  Raises NoPositiveSamplesError when no draw was positive
    (expected only for absurdly small n_total).
    """
    case = get_case(case)
    if n_total < 1:
        raise ValueError(f"n_total must be >= 1, got {n_total}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if checkpoint_every < 0:
        raise ValueError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
    derive_stream(seed, 0, 0)  # raises ValueError for a bad seed

    t_start = time.perf_counter()
    n_chunks = -(-n_total // chunk_size)
    start_chunk = 0
    tally = TallyCounts.zero()

    if checkpoint_path and os.path.exists(checkpoint_path):
        ck = checkpoint_load(checkpoint_path)
        for field, theirs, ours in (("case", ck.case_tag, case.tag), ("seed", ck.seed, seed),
                                    ("chunk_size", ck.chunk_size, chunk_size)):
            if theirs != ours:
                raise CheckpointError(
                    f"field {field!r}: checkpoint has {theirs!r}, run uses {ours!r}"
                )
        if ck.chunks_done > n_chunks:
            raise CheckpointError(
                f"field 'chunks_done': checkpoint has {ck.chunks_done} chunks, "
                f"run has only {n_chunks}"
            )
        start_chunk = ck.chunks_done
        tally = ck.tally

    todo = range(start_chunk, n_chunks)
    streams = (derive_stream(seed, 0, i) for i in todo)
    task = partial(run_chunk, case.tag, chunk_size=chunk_size)
    with ExitStack() as stack:
        if workers == 1 or len(todo) <= 1:
            mapper = map
        else:
            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        # Results are consumed in submission order so a checkpoint always
        # describes an exact prefix of the chunk sequence.
        for chunk_idx, counts in zip(todo, mapper(task, streams)):
            tally = tally.merge(counts)
            if checkpoint_path and checkpoint_every and (
                (chunk_idx + 1 - start_chunk) % checkpoint_every == 0 or chunk_idx + 1 == n_chunks
            ):
                checkpoint_save(
                    Checkpoint(case.tag, seed, chunk_size, chunk_idx + 1, tally),
                    checkpoint_path,
                )

    if tally.n_positive == 0:
        raise NoPositiveSamplesError(
            f"no positive samples among {tally.n_total} draws for case "
            f"{case.tag}; p_hat is undefined"
        )
    p_hat = tally.n_sep / tally.n_positive
    std_err = float(np.sqrt(p_hat * (1.0 - p_hat) / tally.n_positive))
    return EstimateResult(
        case=case,
        tally=tally,
        p_hat=p_hat,
        std_err=std_err,
        seed=seed,
        elapsed_s=time.perf_counter() - t_start,
    )
