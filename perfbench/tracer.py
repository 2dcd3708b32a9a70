"""In-memory span recorder for the traced benchmark run.

A span is (id, name, parent, start, end), recorded by the benchmark around
each call it makes into a ``sepmc`` layer.  Spans stay in memory and are
written once, when the run ends.  A span's self time is its duration minus
the part of its interval covered by its direct children.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": self.clock(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = self.clock()

    def self_times(self) -> list:
        """Self time of every span, indexed by span id."""
        children = [[] for _ in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        return [
            (s["end"] - s["start"]) - covered_length(children[s["id"]], s["start"], s["end"])
            for s in self.spans
        ]

    def totals(self) -> dict:
        """name -> (span count, summed duration, summed self time)."""
        out = {}
        for s, self_t in zip(self.spans, self.self_times()):
            n, dur, slf = out.get(s["name"], (0, 0.0, 0.0))
            out[s["name"]] = (n + 1, dur + (s["end"] - s["start"]), slf + self_t)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "self_s": self.self_times()}, fh)
