"""The benchmark's three workloads, each in an untraced and a traced form.

qubit-ball
    ``engine.estimate("qubit", workers=2)`` over 4e6 ball draws in 1e6-draw
    chunks: the paper's method on its headline family.  About 2.6e-5 of
    draws are states, so time splits between the sampler and the kernel's
    positivity stage; the PPT stage is nearly idle.
quaterbit-body
    ``kernels.count_tallies`` on 5e4 quaterbit states from the flat body
    measure (see ``inputs.py``).  Every point is a state and about 8% are
    PPT, so the 8x8 kernel runs every pivot and the PPT stage is busy while
    the sampler and engine do no work: the opposite regime to qubit-ball.
    The quaterbit *ball* path is not a workload: its acceptance rate is
    about 5e-14, so every affordable run ends in NoPositiveSamplesError.
rebit-cli-resume
    The ``sepmc estimate`` CLI on rebit with 2000-draw chunks, two workers
    and a checkpoint after every chunk, run to half of 4e5 draws and then
    rerun with the full budget so that it resumes from the checkpoint.  The
    engine's per-chunk overhead, interpreter start-up, the series value and
    JSON output dominate; the sampler and kernel are light.

Operation k of a run with workload seed s uses stream seed
``s * OPS_PER_SEED + k``, so a run's inputs follow from its seed and every
operation adds fresh positive states to the pooled tally.  Each run first
repeats operation 0 of DEFAULT_SEED, untimed, against the golden tally, so
the golden gate is exercised whatever seed the run is given.

The untraced form times whole operations and yields the end-to-end metrics.
The traced form records a span around every call into a ``sepmc`` layer,
replays ``engine.run_chunk``'s documented loop through public calls
(KERNEL_BATCH-sized batches, normals drawn before uniforms) and requires the
replayed tallies to equal the engine's own.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from sepmc import engine, kernels
from sepmc.cli import CASE_ALPHA
from sepmc.conjecture import p_of_alpha
from sepmc.engine import KERNEL_BATCH, Checkpoint, TallyCounts, checkpoint_load, checkpoint_save
from sepmc.sampler import StreamSpec, ball_from_draws, derive_stream
from sepmc.states import get_case

from checks import P_REF, ROOT, golden_key, peak_rss_mb, time_to_se_s
from inputs import quaterbit_body_points
from tracer import Tracer

WORKERS = 2
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
OPS_PER_SEED = 10_000
MAX_SEED = 2**40

QUBIT_DRAWS = 4_000_000
QUBIT_CHUNK = 1_000_000

BODY_POINTS = 50_000

CLI_DRAWS = 400_000
CLI_HALF = CLI_DRAWS // 2
CLI_CHUNK = 2000
# A child process still running after this long is killed with its descendants.
CHILD_TIMEOUT_S = 60

# Fresh interpreters started per run to measure set-up time.
SETUP_PROBES = 8

END_TO_END_UNITS = {
    "time_to_se_s": "s",
    "wall_s": "s",
    "us_per_accepted": "us",
    "draws_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "sampler.stream_init_us": "us",
    "sampler.draw_ns": "ns",
    "sampler.ball_map_ns": "ns",
    "kernels.ns_per_point": "ns",
    "kernels.ns_per_positive": "ns",
    "kernels.positive_frac": "fraction",
    "kernels.sep_frac": "fraction",
    "engine.chunks": "count",
    "engine.run_chunk_s": "s",
    "engine.pool_overhead_s": "s",
    "engine.parallel_eff": "fraction",
    "engine.checkpoint_save_us": "us",
    "engine.checkpoint_load_us": "us",
    "engine.checkpoint_bytes": "bytes",
    "cli.startup_s": "s",
    "conjecture.p_of_alpha_ms": "ms",
    "conjecture.terms_used": "count",
    "bench.input_gen_s": "s",
    "trace.overhead_pct": "%",
}


def op_seed(seed: int, k: int) -> int:
    return seed * OPS_PER_SEED + k


def _tally(t: TallyCounts) -> tuple:
    return (t.n_total, t.n_positive, t.n_sep)


def child_env() -> dict:
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def run_child(args: list) -> tuple:
    """Run one child interpreter to completion: (returncode, stdout, stderr, wall s).

    The child leads its own process group, so that on timeout its pool
    workers are killed with it and nothing outlives the benchmark.
    """
    t = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err, time.perf_counter() - t


def timed_ops(seconds: float, op, probe=None) -> None:
    """Call op(k) for k = 0, 1, ... while the next call is expected to end within ``seconds``.

    ``probe``, when given, runs about SETUP_PROBES times (at least once)
    between operations, spread evenly over the run, so that its samples see
    the same drift in machine speed as the operations do.
    """
    t0 = time.perf_counter()
    durations = []
    probes = 0
    for k in range(OPS_PER_SEED):
        t = time.perf_counter()
        op(k)
        durations.append(time.perf_counter() - t)
        if probe is not None and probes < SETUP_PROBES * (time.perf_counter() - t0) / seconds:
            probe()
            probes += 1
        if time.perf_counter() - t0 + statistics.median(durations) > seconds:
            break
    if probe is not None and probes == 0:
        probe()


class Run:
    """State of one benchmark run: operation log, timed walls, pooled tally."""

    def __init__(self, case: str, log, out_dir: Path):
        self.case = case
        self.log = log
        self.out_dir = out_dir
        self.walls = []
        self.tally = [0, 0, 0]
        self.distinct = {}
        self.setup_samples = []
        self.acc = {}

    def add(self, wall: float, key: str, tally) -> None:
        """One timed operation."""
        self.walls.append(wall)
        self.tally = [a + int(b) for a, b in zip(self.tally, tally)]
        self.record(key, tally)

    def record(self, key: str, tally) -> None:
        """Keep one tally per distinct input, for the |z| printed beside the result."""
        self.distinct[key] = tuple(int(x) for x in tally)

    def bump(self, name: str, value) -> None:
        self.acc[name] = self.acc.get(name, 0) + value

    def end_to_end(self) -> dict:
        n_total, n_positive, _ = self.tally
        if not self.walls or n_positive == 0 or not self.setup_samples:
            return {}
        wall = sum(self.walls)
        return {
            "time_to_se_s": time_to_se_s(wall, n_positive, float(P_REF[self.case])),
            "wall_s": statistics.median(self.walls),
            "us_per_accepted": wall / n_positive * 1e6,
            "draws_per_s": n_total / wall,
            "setup_s": statistics.median(self.setup_samples),
            "peak_rss_mb": peak_rss_mb(),
        }


# --- set-up probes ----------------------------------------------------------

def setup_probe(run: Run) -> bool:
    """Fresh interpreter: import sepmc and build the family's kernel tables."""
    code = f"import sepmc; from sepmc import kernels; kernels.case_tables({run.case!r})"
    rc, _, err, wall = run_child(["-c", code])
    if rc != 0:
        raise RuntimeError(f"set-up probe exited {rc}: {err.strip()[-400:]}")
    run.setup_samples.append(wall)
    return True


# --- qubit-ball ---------------------------------------------------------------

def qubit_op(run: Run, seed: int, timed: bool) -> bool:
    t = time.perf_counter()
    res = engine.estimate("qubit", seed=seed, n_total=QUBIT_DRAWS, workers=WORKERS,
                          chunk_size=QUBIT_CHUNK)
    wall = time.perf_counter() - t
    key = golden_key("qubit", seed, QUBIT_CHUNK, QUBIT_DRAWS)
    if timed:
        run.add(wall, key, _tally(res.tally))
    return run.log.check(key, _tally(res.tally))


def replay_chunk(tr: Tracer, run: Run, seed: int, chunk: int, chunk_size: int) -> TallyCounts:
    """engine.run_chunk's loop rebuilt from public calls, one span per call."""
    case = get_case(run.case)
    with tr.span("sampler.stream_init"):
        rng = StreamSpec(seed, 0, chunk).generator()
    n_pos = n_sep = done = 0
    while done < chunk_size:
        n = min(KERNEL_BATCH, chunk_size - done)
        with tr.span("sampler.draw"):
            z = rng.standard_normal((n, case.num_coeffs))
            u = rng.random(n)
        with tr.span("sampler.ball_map"):
            pts = ball_from_draws(z, u, case.radius)
        with tr.span("kernels.count_tallies"):
            npos, nsep = kernels.count_tallies(pts, case.tag)
        n_pos += int(npos)
        n_sep += int(nsep)
        done += n
    run.bump("drawn", chunk_size)
    run.bump("kernel_points", chunk_size)
    run.bump("kernel_positive", n_pos)
    run.bump("kernel_sep", n_sep)
    return TallyCounts(chunk_size, n_pos, n_sep)


def engine_passes(tr: Tracer, run: Run, seed: int, n_chunks: int, chunk_size: int,
                  checkpoint_path: Path = None) -> tuple:
    """Run every chunk through engine.run_chunk and through the traced replay.

    Returns the two merged tallies.  The untraced run_chunk time against
    the traced replay time of the same chunks gives the tracing overhead.
    With ``checkpoint_path`` the replay also saves a checkpoint after each
    chunk, as ``--checkpoint-every 1`` does.
    """
    direct = replayed = TallyCounts.zero()
    # Interleaved, so that drift in machine speed hits both passes alike.
    for i in range(n_chunks):
        with tr.span("engine.run_chunk") as sp:
            direct = direct.merge(engine.run_chunk(run.case, derive_stream(seed, 0, i), chunk_size))
        run.bump("untraced_s", sp["end"] - sp["start"])
        with tr.span("replay.chunk") as sp:
            replayed = replayed.merge(replay_chunk(tr, run, seed, i, chunk_size))
        run.bump("traced_s", sp["end"] - sp["start"])
        if checkpoint_path is not None:
            with tr.span("engine.checkpoint_save"):
                checkpoint_save(Checkpoint(run.case, seed, chunk_size, i + 1, replayed),
                                checkpoint_path)
    run.bump("chunks", n_chunks)
    return direct, replayed


def traced_qubit_op(tr: Tracer, run: Run, seed: int) -> bool:
    with tr.span("op"):
        with tr.span("engine.estimate") as sp:
            res = engine.estimate("qubit", seed=seed, n_total=QUBIT_DRAWS, workers=WORKERS,
                                  chunk_size=QUBIT_CHUNK)
        run.bump("estimate_s", sp["end"] - sp["start"])
        direct, replayed = engine_passes(tr, run, seed, QUBIT_DRAWS // QUBIT_CHUNK, QUBIT_CHUNK)
    run.bump("ops", 1)
    key = golden_key("qubit", seed, QUBIT_CHUNK, QUBIT_DRAWS)
    run.record(key, _tally(res.tally))
    ok = run.log.check(key, _tally(res.tally))
    return ok and direct == res.tally and replayed == res.tally


def qubit_ball(run: Run, seed: int, seconds: float, tr: Tracer = None) -> None:
    run.log.attempt(qubit_op, run, op_seed(DEFAULT_SEED, 0), False)
    if tr is None:
        timed_ops(seconds, lambda k: run.log.attempt(qubit_op, run, op_seed(seed, k), True),
                  lambda: run.log.attempt(setup_probe, run))
    else:
        timed_ops(seconds, lambda k: run.log.attempt(traced_qubit_op, tr, run, op_seed(seed, k)))


# --- quaterbit-body -------------------------------------------------------------

def body_op(run: Run, pts, seed: int, timed: bool) -> bool:
    t = time.perf_counter()
    npos, nsep = kernels.count_tallies(pts, "quaterbit")
    wall = time.perf_counter() - t
    tally = (len(pts), int(npos), int(nsep))
    key = golden_key("quaterbit", seed, len(pts), len(pts))
    if timed:
        run.add(wall, key, tally)
    return run.log.check(key, tally) and npos == len(pts)


def traced_body_op(tr: Tracer, run: Run, pts, seed: int) -> bool:
    with tr.span("op"):
        with tr.span("kernels.count_tallies") as sp:
            npos, nsep = kernels.count_tallies(pts, "quaterbit")
    run.bump("traced_s", sp["end"] - sp["start"])
    t = time.perf_counter()
    again = kernels.count_tallies(pts, "quaterbit")
    run.bump("untraced_s", time.perf_counter() - t)
    run.bump("ops", 1)
    run.bump("kernel_points", len(pts))
    run.bump("kernel_positive", int(npos))
    run.bump("kernel_sep", int(nsep))
    tally = (len(pts), int(npos), int(nsep))
    key = golden_key("quaterbit", seed, len(pts), len(pts))
    run.record(key, tally)
    return run.log.check(key, tally) and npos == len(pts) and tuple(again) == (npos, nsep)


def _generate(run: Run, seed: int):
    t = time.perf_counter()
    pts = quaterbit_body_points(seed, BODY_POINTS)
    run.bump("input_gen_s", time.perf_counter() - t)
    return pts


def quaterbit_body(run: Run, seed: int, seconds: float, tr: Tracer = None) -> None:
    ref = _generate(run, DEFAULT_SEED)
    # Untimed: the golden check, which also warms the kernel and verifies
    # that every generated point is a state before anything is timed.
    run.log.attempt(body_op, run, ref, DEFAULT_SEED, False)
    if seed == DEFAULT_SEED:
        pts = ref
    else:
        del ref
        pts = _generate(run, seed)
        if not run.log.attempt(body_op, run, pts, seed, False):
            return
    if tr is None:
        timed_ops(seconds, lambda k: run.log.attempt(body_op, run, pts, seed, True),
                  lambda: run.log.attempt(setup_probe, run))
    else:
        timed_ops(seconds, lambda k: run.log.attempt(traced_body_op, tr, run, pts, seed))


# --- rebit-cli-resume --------------------------------------------------------------

def run_cli(seed: int, samples: int, checkpoint: Path) -> tuple:
    """One ``sepmc estimate`` process: (tally, process wall s, engine wall s)."""
    rc, out, err, wall = run_child([
        "-m", "sepmc.cli", "estimate", "--case", "rebit",
        "--samples", str(samples), "--seed", str(seed), "--workers", str(WORKERS),
        "--chunk-size", str(CLI_CHUNK), "--checkpoint", str(checkpoint),
        "--checkpoint-every", "1",
    ])
    if rc != 0:
        raise RuntimeError(f"sepmc estimate exited {rc}: {err.strip()[-400:]}")
    doc = json.loads(out)
    return (doc["n_total"], doc["n_positive"], doc["n_sep"]), wall, doc["wall_time_s"]


def _cli_pair(run: Run, seed: int, checkpoint: Path, tr: Tracer = None):
    checkpoint.unlink(missing_ok=True)
    results = []
    for samples in (CLI_HALF, CLI_DRAWS):
        if tr is None:
            results.append(run_cli(seed, samples, checkpoint))
        else:
            with tr.span("cli.estimate"):
                results.append(run_cli(seed, samples, checkpoint))
    (half, w1, e1), (full, w2, e2) = results
    run.setup_samples += [w1 - e1, w2 - e2]
    ok_half = run.log.check(golden_key("rebit", seed, CLI_CHUNK, CLI_HALF), half)
    ok_full = run.log.check(golden_key("rebit", seed, CLI_CHUNK, CLI_DRAWS), full)
    return ok_half and ok_full, full, w1 + w2, e1 + e2


def cli_op(run: Run, seed: int, timed: bool) -> bool:
    checkpoint = run.out_dir / "cli.ckpt"
    ok, full, wall, _ = _cli_pair(run, seed, checkpoint)
    if timed:
        run.add(wall, golden_key("rebit", seed, CLI_CHUNK, CLI_DRAWS), full)
    saved = checkpoint_load(checkpoint)
    return ok and saved.chunks_done == CLI_DRAWS // CLI_CHUNK and _tally(saved.tally) == tuple(full)


def traced_cli_op(tr: Tracer, run: Run, seed: int) -> bool:
    checkpoint = run.out_dir / "cli.ckpt"
    replay_ckpt = run.out_dir / "replay.ckpt"
    with tr.span("op"):
        ok, full, _, engine_s = _cli_pair(run, seed, checkpoint, tr)
        run.bump("estimate_s", engine_s)
        with tr.span("engine.checkpoint_load"):
            saved = checkpoint_load(checkpoint)
        run.acc["checkpoint_bytes"] = checkpoint.stat().st_size
        direct, replayed = engine_passes(tr, run, seed, CLI_DRAWS // CLI_CHUNK, CLI_CHUNK,
                                         replay_ckpt)
        with tr.span("engine.checkpoint_load"):
            resaved = checkpoint_load(replay_ckpt)
        with tr.span("conjecture.p_of_alpha"):
            series = p_of_alpha(CASE_ALPHA["rebit"], 1e-12)
    run.acc["terms_used"] = series.terms_used
    run.bump("ops", 1)
    run.record(golden_key("rebit", seed, CLI_CHUNK, CLI_DRAWS), full)
    full = TallyCounts(*full)
    return ok and saved.tally == full and direct == full and replayed == full and resaved == saved


def rebit_cli_resume(run: Run, seed: int, seconds: float, tr: Tracer = None) -> None:
    run.log.attempt(cli_op, run, op_seed(DEFAULT_SEED, 0), False)
    if tr is None:
        timed_ops(seconds, lambda k: run.log.attempt(cli_op, run, op_seed(seed, k), True))
    else:
        timed_ops(seconds, lambda k: run.log.attempt(traced_cli_op, tr, run, op_seed(seed, k)))


WORKLOADS = {
    "qubit-ball": ("qubit", qubit_ball),
    "quaterbit-body": ("quaterbit", quaterbit_body),
    "rebit-cli-resume": ("rebit", rebit_cli_resume),
}


# --- per-layer metrics from the trace -------------------------------------------------

def per_layer(tr: Tracer, run: Run) -> dict:
    """Per-layer metrics; a layer that does no work on the workload reads 0."""
    tot = tr.totals()
    acc = run.acc

    def n(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def dur(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    ops = acc.get("ops", 0)
    points = acc.get("kernel_points", 0)
    positive = acc.get("kernel_positive", 0)
    drawn = acc.get("drawn", 0)
    busy = dur("engine.run_chunk")
    estimate_s = acc.get("estimate_s", 0.0)
    startups = run.setup_samples if n("cli.estimate") else []
    return {
        "sampler.stream_init_us": ratio(self_s("sampler.stream_init"), n("sampler.stream_init")) * 1e6,
        "sampler.draw_ns": ratio(self_s("sampler.draw"), drawn) * 1e9,
        "sampler.ball_map_ns": ratio(self_s("sampler.ball_map"), drawn) * 1e9,
        "kernels.ns_per_point": ratio(self_s("kernels.count_tallies"), points) * 1e9,
        "kernels.ns_per_positive": ratio(self_s("kernels.count_tallies"), positive) * 1e9,
        "kernels.positive_frac": ratio(positive, points),
        "kernels.sep_frac": ratio(acc.get("kernel_sep", 0), positive),
        "engine.chunks": ratio(acc.get("chunks", 0), ops),
        "engine.run_chunk_s": ratio(busy, ops),
        "engine.pool_overhead_s": ratio(estimate_s - busy / WORKERS, ops) if estimate_s else 0.0,
        "engine.parallel_eff": ratio(busy, WORKERS * estimate_s),
        "engine.checkpoint_save_us": ratio(self_s("engine.checkpoint_save"), n("engine.checkpoint_save")) * 1e6,
        "engine.checkpoint_load_us": ratio(self_s("engine.checkpoint_load"), n("engine.checkpoint_load")) * 1e6,
        "engine.checkpoint_bytes": acc.get("checkpoint_bytes", 0),
        "cli.startup_s": statistics.median(startups) if startups else 0.0,
        "conjecture.p_of_alpha_ms": ratio(self_s("conjecture.p_of_alpha"), n("conjecture.p_of_alpha")) * 1e3,
        "conjecture.terms_used": acc.get("terms_used", 0),
        "bench.input_gen_s": acc.get("input_gen_s", 0.0),
        "trace.overhead_pct": 100.0 * ratio(acc.get("traced_s", 0.0) - acc.get("untraced_s", 0.0),
                                            acc.get("untraced_s", 0.0)),
    }
