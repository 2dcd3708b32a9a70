"""Monte Carlo estimator: sample, test, tally, merge, checkpoint.

The run is organized map-reduce style: the total sample budget is split into
fixed-size chunks, chunk i is evaluated as a pure function of the stream
(seed, worker=0, chunk=i), and the resulting tallies are added.  The final
tally therefore depends only on (case, seed, number of chunks), never on how
chunks were scheduled over workers.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels
from .sampler import StreamSpec, ball_from_draws, derive_stream
from .states import StateCase, get_case

# Samples materialized per kernel call inside a chunk.  Fixed, not tunable:
# the draw order (and hence the tally) of a chunk must depend only on its
# StreamSpec and chunk_size.
KERNEL_BATCH = 1 << 16

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


def merge(a: TallyCounts, b: TallyCounts) -> TallyCounts:
    return a.merge(b)


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
    rng = stream.generator()
    m, r = case.num_coeffs, case.radius
    n_positive = 0
    n_sep = 0
    done = 0
    while done < chunk_size:
        n = min(KERNEL_BATCH, chunk_size - done)
        z = rng.standard_normal((n, m))
        u = rng.random(n)
        pts = ball_from_draws(z, u, r)
        npos, nsep = kernels.count_tallies(pts, case.tag)
        n_positive += int(npos)
        n_sep += int(nsep)
        done += n
    return TallyCounts(chunk_size, n_positive, n_sep)


def _chunk_task(args) -> tuple:
    tag, seed, chunk_idx, chunk_size = args
    t = run_chunk(tag, derive_stream(seed, 0, chunk_idx), chunk_size)
    return t.n_total, t.n_positive, t.n_sep


@dataclass(frozen=True)
class Checkpoint:
    """Resumable state of a partially completed run."""

    case_tag: str
    seed: int
    chunk_size: int
    chunks_done: int
    tally: TallyCounts
    version: int = CHECKPOINT_VERSION


_CHECKPOINT_FIELDS = (
    "version", "case", "seed", "chunk_size", "chunks_done",
    "n_total", "n_positive", "n_sep",
)


def checkpoint_save(state: Checkpoint, path) -> None:
    """Write a checkpoint as line-oriented 'key value' text (atomic rename)."""
    lines = [
        f"version {state.version}",
        f"case {state.case_tag}",
        f"seed {state.seed}",
        f"chunk_size {state.chunk_size}",
        f"chunks_done {state.chunks_done}",
        f"n_total {state.tally.n_total}",
        f"n_positive {state.tally.n_positive}",
        f"n_sep {state.tally.n_sep}",
    ]
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
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
        fields[parts[0]] = parts[1]
    for key in _CHECKPOINT_FIELDS:
        if key not in fields:
            raise CheckpointError(f"missing field {key!r}")
    def _int(key):
        try:
            return int(fields[key])
        except ValueError:
            raise CheckpointError(f"field {key!r} is not an integer: {fields[key]!r}") from None
    version = _int("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"field 'version': expected {CHECKPOINT_VERSION}, got {version}"
        )
    tag = fields["case"]
    try:
        get_case(tag)
    except ValueError as exc:
        raise CheckpointError(f"field 'case': {exc}") from None
    seed = _int("seed")
    if not 0 <= seed < 1 << 64:
        raise CheckpointError(f"field 'seed': must be in [0, 2**64), got {seed}")
    chunk_size = _int("chunk_size")
    if chunk_size < 1:
        raise CheckpointError(f"field 'chunk_size': must be >= 1, got {chunk_size}")
    chunks_done = _int("chunks_done")
    if chunks_done < 0:
        raise CheckpointError(f"field 'chunks_done': must be >= 0, got {chunks_done}")
    try:
        tally = TallyCounts(_int("n_total"), _int("n_positive"), _int("n_sep"))
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

    t_start = time.perf_counter()
    n_chunks = math.ceil(n_total / chunk_size)
    start_chunk = 0
    tally = TallyCounts.zero()

    if checkpoint_path and os.path.exists(checkpoint_path):
        ck = checkpoint_load(checkpoint_path)
        if ck.case_tag != case.tag:
            raise CheckpointError(f"field 'case': checkpoint is for {ck.case_tag!r}, not {case.tag!r}")
        if ck.seed != seed:
            raise CheckpointError(f"field 'seed': checkpoint has {ck.seed}, run uses {seed}")
        if ck.chunk_size != chunk_size:
            raise CheckpointError(
                f"field 'chunk_size': checkpoint has {ck.chunk_size}, run uses {chunk_size}"
            )
        if ck.chunks_done > n_chunks:
            raise CheckpointError(
                f"field 'chunks_done': checkpoint has {ck.chunks_done} chunks, "
                f"run has only {n_chunks}"
            )
        start_chunk = ck.chunks_done
        tally = ck.tally

    todo = range(start_chunk, n_chunks)
    args = [(case.tag, seed, i, chunk_size) for i in todo]

    def _on_result(chunk_idx, counts):
        nonlocal tally
        tally = tally.merge(TallyCounts(*counts))
        if checkpoint_path and checkpoint_every and (
            (chunk_idx + 1 - start_chunk) % checkpoint_every == 0 or chunk_idx + 1 == n_chunks
        ):
            checkpoint_save(
                Checkpoint(case.tag, seed, chunk_size, chunk_idx + 1, tally),
                checkpoint_path,
            )

    if workers == 1 or len(args) <= 1:
        for chunk_idx, a in zip(todo, args):
            _on_result(chunk_idx, _chunk_task(a))
    else:
        # Results are consumed in submission order so a checkpoint always
        # describes an exact prefix of the chunk sequence.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk_idx, counts in zip(todo, pool.map(_chunk_task, args)):
                _on_result(chunk_idx, counts)

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
