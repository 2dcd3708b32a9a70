"""Correctness bookkeeping and derived metrics shared by every workload.

The regression oracle is the seeded tally: an operation keyed by
``(case, seed, chunk_size, n_total)`` must give the ``(n_total, n_positive,
n_sep)`` recorded in ``golden.json``.  Keys absent from the table are
checked for repeatability instead: the same key seen twice in one run must
give the same tally.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden.json"

REPORT_SCHEMA = "perfbench.report/1"

# Standard error that time_to_se_s projects to.
TARGET_SE = 1e-3

# The conjectured PPT probability of each family (the paper's rationals).
P_REF = {
    "rebit": Fraction(29, 64),
    "qubit": Fraction(8, 33),
    "quaterbit": Fraction(26, 323),
}


def time_to_se_s(wall_s: float, n_positive: int, p_ref: float, se: float = TARGET_SE) -> float:
    """Wall seconds to reach standard error ``se`` at the measured cost per positive state.

    The binomial standard error of p_hat over n positive states is
    sqrt(p(1-p)/n), so reaching ``se`` takes p(1-p)/se^2 positive states.
    """
    return wall_s / n_positive * p_ref * (1.0 - p_ref) / se**2


def z_score(n_positive: int, n_sep: int, p_ref: float) -> float:
    """Signed distance of n_sep/n_positive from p_ref in binomial standard errors."""
    if n_positive == 0:
        return 0.0
    return (n_sep / n_positive - p_ref) / math.sqrt(p_ref * (1.0 - p_ref) / n_positive)


def golden_key(case: str, seed: int, chunk_size: int, n_total: int) -> str:
    return f"{case}/{seed}/{chunk_size}/{n_total}"


def load_golden() -> dict:
    """workload -> {golden_key: [n_total, n_positive, n_sep]}."""
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["tallies"]


class OpLog:
    """Counts operations attempted and failed, and checks each reported tally."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.records = []
        self.errors = []

    def check(self, key: str, tally) -> bool:
        """Record one tally; False when it contradicts the golden or an earlier tally."""
        tally = [int(x) for x in tally]
        expected = self.golden.get(key, self.seen.get(key))
        status = "golden" if key in self.golden else "repeat" if key in self.seen else "new"
        ok = expected is None or list(expected) == tally
        if not ok:
            status = f"MISMATCH expected {list(expected)}"
        self.seen.setdefault(key, tally)
        self.records.append({"key": key, "tally": tally, "check": status})
        return ok

    def attempt(self, op, *args):
        """Run one operation; it fails if it raises or returns False.

        This is the boundary that must keep running, so every exception is
        recorded and counted rather than propagated.
        """
        self.attempted += 1
        try:
            ok = op(*args)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            ok = False
            self.errors.append(f"{type(exc).__name__}: {exc}")
        if not ok:
            self.failed += 1
        return ok

    def golden_summary(self) -> dict:
        out = {"golden": 0, "repeat": 0, "new": 0, "mismatch": 0}
        for r in self.records:
            out["mismatch" if r["check"].startswith("MISMATCH") else r["check"]] += 1
        return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def git_rev(root: Path = ROOT) -> str:
    """Commit the checkout was made from, read from .git without leaving it."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def manifest(workload: str, seed: int, trace: int) -> dict:
    import numpy
    from sepmc import kernels

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "schema": REPORT_SCHEMA,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": kernels.BACKEND,
        "numba_imports": numba_imports,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }
