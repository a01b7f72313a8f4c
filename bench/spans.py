"""In-memory spans recorded by the benchmark around its calls into each layer.

A span is ``{id, name, start, end, parent, task, attrs}`` with times from
``time.perf_counter``.  Spans stay in memory and are written out once, when
the run ends.  A layer's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import statistics
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def start(self, name: str, task: int, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "task": task,
            "attrs": attrs,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()

    def call(self, name: str, task: int, fn, *args, **kwargs):
        span = self.start(name, task)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)


def call(tracer: Tracer | None, name: str, task: int, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, inside a span when ``tracer`` is set."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, task, fn, *args, **kwargs)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_summary(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, busy (summed self time) and median duration, in seconds."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        entry = out.setdefault(s["name"], {"calls": 0, "busy_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["busy_s"] += own[s["id"]]
        entry["durations"].append(s["end"] - s["start"])
    for entry in out.values():
        entry["p50_s"] = statistics.median(entry.pop("durations"))
    return out
