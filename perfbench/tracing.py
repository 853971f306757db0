"""Spans and counts recorded around the benchmark's calls into icbounds.

Every public call an op makes goes through `call(layer, name, fn, *args)`.
The untraced run uses `NullTracer`, whose `call` only forwards, so both runs
execute the same benchmark code and differ only in the bookkeeping.  Spans
stay in memory and are written once, by `write`, when the run ends.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from dataclasses import dataclass, asdict
from time import perf_counter


@dataclass
class Span:
    id: int
    parent: int | None  # id of the span that made this call
    op: int  # spans of one op share this index
    layer: str
    name: str
    start: float
    end: float


class NullTracer:
    """Forwards calls without recording anything."""

    def op(self, index: int, kind: str, fn):
        return fn()

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, key: str, value=1) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._op = -1

    def op(self, index: int, kind: str, fn):
        self._op = index
        return self.call("op", kind, fn)

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, parent, self._op, layer, name, t0, t1))

    def count(self, key: str, value=1) -> None:
        self.counts[key] += value

    def self_times(self, duration=lambda start, end: end - start) -> dict[tuple[str, str], float]:
        """Seconds per (layer, name): each span's duration minus the time
        its direct children cover.  `duration` turns a span's start and end
        into seconds."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += duration(s.start, s.end)
        out: dict[tuple[str, str], float] = defaultdict(float)
        for s in self.spans:
            out[(s.layer, s.name)] += duration(s.start, s.end) - child[s.id]
        return dict(out)

    def bookkeeping_s(self, calls: int = 20_000) -> float:
        """Seconds this run's spans cost to record, from timing `calls`
        traced no-op calls on a scratch tracer."""
        scratch = Tracer()
        t0 = perf_counter()
        for _ in range(calls):
            scratch.call("probe", "noop", int)
        return (perf_counter() - t0) / calls * len(self.spans)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
