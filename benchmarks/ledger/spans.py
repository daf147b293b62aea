"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around calls into the
program's public functions; nothing inside ``src/repro`` knows about
them.  A span is ``(name, start, end, parent id, op id)``; spans of one
operation share its op id.  They stay in memory until the run ends and
are then written as JSON lines.

Self time of a span is its duration minus the part its direct children
cover.  The benchmark is single-threaded, so children never overlap and
the subtraction is exact.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterator


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int | None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._next_op = 0

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, time.perf_counter_ns(), 0, parent, self._op)
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end_ns = time.perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def op(self, name: str = "bench.op") -> Iterator[Span]:
        """A span that opens a new operation: it and everything inside
        it carry one fresh op id."""
        outer, self._op = self._op, self._next_op
        self._next_op += 1
        try:
            with self.span(name) as sp:
                yield sp
        finally:
            self._op = outer

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "id": sp.id, "name": sp.name, "start_ns": sp.start_ns,
                    "end_ns": sp.end_ns, "parent": sp.parent, "op": sp.op,
                }) + "\n")


def span(rec: SpanRecorder | None, name: str):
    """``rec.span(name)``, or a no-op context when tracing is off."""
    return rec.span(name) if rec is not None else nullcontext()


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span id -> self time (duration minus direct children)."""
    covered: dict[int, int] = defaultdict(int)
    for sp in spans:
        if sp.parent is not None:
            covered[sp.parent] += sp.duration_ns
    return {sp.id: sp.duration_ns - covered[sp.id] for sp in spans}


def self_ms_by_name(spans: list[Span]) -> dict[str, float]:
    """Span name -> total self time in milliseconds."""
    selfs = self_times_ns(spans)
    out: dict[str, float] = defaultdict(float)
    for sp in spans:
        out[sp.name] += selfs[sp.id] / 1e6
    return dict(out)
