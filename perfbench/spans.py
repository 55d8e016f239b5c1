"""In-memory spans recorded around calls into the package.

A span has a name, start and end times, the span that was open when it
started (its parent) and the run id. With tracing off, ``span`` still times
the block, so the untraced run uses the same clock, but nothing is stored.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the block; the yielded span's ``end`` is set on exit."""
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.run_id)
        if self.enabled:
            self.spans.append(record)
            self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            if self.enabled:
                self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def self_times(self) -> dict[int, float]:
        """Span id -> its duration minus the time its direct children cover.

        Children of one span never overlap, since the run has one thread.
        """
        child_time = {s.id: 0.0 for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.seconds
        return {s.id: s.seconds - child_time[s.id] for s in self.spans}

    def self_time_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span_id, t in self.self_times().items():
            name = self.spans[span_id].name
            totals[name] = totals.get(name, 0.0) + t
        return totals

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
            fh.write("\n")
