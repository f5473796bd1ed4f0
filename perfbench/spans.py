"""In-memory spans: name, start, end and parent, written out when a run ends.

Times come from ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so spans recorded in a child process line up
with the spans that run.py records itself.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around the body; it yields the span record."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Append spans recorded elsewhere, hanging their roots under ``parent``."""
        base = len(self.spans)
        for rec in spans:
            rec = dict(rec, id=rec["id"] + base)
            rec["parent"] = parent if rec["parent"] is None else rec["parent"] + base
            self.spans.append(rec)


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: duration minus the children's part.

    Children of one span run one after another, so the part of the
    parent's interval they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            covered[rec["parent"]] += duration(rec)
    totals: dict[str, float] = {}
    for rec, child in zip(spans, covered):
        totals[rec["name"]] = totals.get(rec["name"], 0.0) + duration(rec) - child
    return totals


def overhead_per_span(repeats: int = 20000) -> float:
    """Traced minus untraced time of an empty body, per span, in seconds."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(repeats):
        with tracer.span("probe"):
            pass
    traced = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(repeats):
        pass
    return (traced - (time.perf_counter() - start)) / repeats
