"""Uniform sampling in m-balls with deterministic, splittable random streams.

Stream derivation
-----------------
A stream is identified by the triple (seed, worker, chunk).  It is realized
as numpy's Philox counter-based generator keyed through
``SeedSequence(entropy=seed, spawn_key=(worker, chunk))``; both SeedSequence
hashing and the Philox bit stream are stable, documented parts of numpy, so
identical triples reproduce identical draws bit-for-bit on any machine and
distinct triples give statistically independent streams.  Merging results
from any partition of chunks over workers is therefore scheduling-free.

Ball sampling
-------------
A point uniform in the m-ball of radius r is drawn as z/|z| * r * u^(1/m)
with z an m-vector of independent standard normals and u uniform on (0, 1);
this is exactly uniform in any dimension.

The draw loop
-------------
`ball_batches` is the one place that consumes a stream: it draws in
consecutive batches of at most DRAW_BATCH points, each batch taking its
normals first and then its radial uniforms.  That layout pins the
byte-exact output, so `sample_ball` and the engine's chunks both iterate
it, and a chunk's tally depends only on its stream and size.

Integer run values
------------------
`integer_in` is the one rule for every integer a run takes, wherever it
comes in: the stream ids here, `sample_ball`'s dim and count, the engine's
arguments and checkpoint fields, and the CLI flags.  An integer is what
``operator.index`` accepts (a Python or numpy integer) except a ``bool``:
2.5, "3" and True are refused, never read as 2, 3 or 1.  An accepted value
comes back as a Python int, so a numpy integer never reaches a tally or a
result document.  A refused value raises ValueError naming the argument,
its range and the value.
"""

from __future__ import annotations

import numbers
import operator
import sys
from dataclasses import dataclass

import numpy as np

# Largest batch materialized at once, to bound memory for big counts.  Part
# of the draw protocol: changing it changes every seeded tally.
DRAW_BATCH = 1 << 16

# Master seeds are the integers in [0, SEED_LIMIT): one 64-bit word.
SEED_LIMIT = 1 << 64


def integer_in(value, name: str, low: int = 0, high: int = None):
    """value as a Python int if it is an integer in [low, high); else ValueError naming name."""
    try:
        index = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        index = None
    if index is None or index < low or (high is not None and index >= high):
        kind = (f"an integer in [{low}, {high})" if high is not None
                else "a non-negative integer" if low == 0 else f"an integer >= {low}")
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return index


@dataclass(frozen=True)
class StreamSpec:
    """Reproducible random stream id: (master seed, worker index, chunk index)."""

    seed: int
    worker: int
    chunk: int

    def __post_init__(self):
        integer_in(self.seed, "seed", 0, SEED_LIMIT)
        integer_in(self.worker, "worker")
        integer_in(self.chunk, "chunk")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.worker, self.chunk)
        )
        return np.random.Generator(np.random.Philox(ss))


# perfbench imports this alias of StreamSpec; only a benchmark change can remove it.
derive_stream = StreamSpec


# Radial uniforms are clamped to [tiny, 1 - 2^-40].  The lower clamp keeps
# u^(1/m) defined at u = 0; the upper one keeps u^(1/m) far enough below 1
# that the recomputed point norm can never round above the radius.  Both
# clamps move sets of measure <= 1e-12.
_U_LO = np.finfo(float).tiny
_U_HI = 1.0 - 2.0**-40


def ball_from_draws(normals: np.ndarray, uniforms: np.ndarray, radius: float) -> np.ndarray:
    """Deterministic map from raw draws to points in the radius-ball.

    ``normals`` has shape (n, m), ``uniforms`` shape (n,) with values in
    [0, 1).  A zero normal vector (probability zero, but cheap to guard) is
    clamped away from 0/0.
    """
    m = normals.shape[1]
    u = np.clip(uniforms, _U_LO, _U_HI)
    norms = np.sqrt(np.einsum("ij,ij->i", normals, normals))
    norms = np.maximum(norms, np.finfo(float).tiny)
    scale = radius * u ** (1.0 / m) / norms
    return normals * scale[:, None]


def ball_batches(dim: int, radius: float, rng: np.random.Generator, count: int):
    """Yield ``count`` ball points from ``rng`` in batches of at most DRAW_BATCH rows."""
    for lo in range(0, count, DRAW_BATCH):
        n = min(DRAW_BATCH, count - lo)
        z = rng.standard_normal((n, dim))
        u = rng.random(n)
        yield ball_from_draws(z, u, radius)


def sample_ball(dim: int, radius: float, stream, count: int) -> np.ndarray:
    """Draw ``count`` points uniform in the closed dim-ball of given radius.

    ``stream`` is a StreamSpec (the draw sequence then restarts at the
    stream origin) or an np.random.Generator (draws continue from its
    current state, for callers accumulating statistics over many calls);
    any other stream raises ValueError naming stream, whatever the count.
    ``radius`` is a real number, finite and > 0, not a bool; anything else
    raises ValueError naming radius.  Returns an array of shape
    (count, dim) with every row norm <= radius.
    """
    integer_in(dim, "dim", 1)
    real = isinstance(radius, numbers.Real) and not isinstance(radius, bool)
    if not (real and 0 < radius <= sys.float_info.max):
        raise ValueError(f"radius must be a finite real number > 0, got {radius!r}")
    integer_in(count, "count")
    if not isinstance(stream, (StreamSpec, np.random.Generator)):
        raise ValueError(f"stream must be a StreamSpec or an np.random.Generator, got {stream!r}")
    rng = stream.generator() if isinstance(stream, StreamSpec) else stream
    out = np.empty((count, dim))
    for lo, pts in zip(range(0, count, DRAW_BATCH), ball_batches(dim, radius, rng, count)):
        out[lo : lo + len(pts)] = pts
    return out
