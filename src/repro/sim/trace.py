"""Lightweight event tracing.

A :class:`Tracer` collects timestamped records emitted by model components
(cores, ports, algorithms).  It is off by default and costs one branch per
emit when disabled, so leaving emit calls in hot paths is acceptable.

Benches use traces to derive per-phase timings (e.g. "when did the last
leaf finish its off-chip copy"), and tests use them to assert protocol
ordering properties (a child never gets a chunk before its notify).

Beyond the stored record list, a tracer supports *listeners*: callables
invoked synchronously with each record as it is emitted.
The observability layer builds on this -- the online
:class:`repro.obs.InvariantChecker` subscribes as a listener and verifies
protocol invariants while the simulation runs, without a second pass over
the record list.  Span-shaped records (kinds ending in ``.begin`` /
``.end``) pair up into duration events in the Chrome-trace export
(:func:`repro.obs.to_chrome_trace`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass(slots=True)
class TraceRecord:
    """One traced occurrence.  Treat it as read-only: it is not frozen
    only because a frozen dataclass costs three times as much to build,
    and a traced service run builds tens of thousands."""

    time: float
    source: str
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        items = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:12.4f}] {self.source:<14} {self.kind:<20} {items}"


class Tracer:
    """Collects :class:`TraceRecord` objects when enabled."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.records: list[TraceRecord] = []
        self._listeners: list[Callable[[TraceRecord], None]] = []

    def emit(self, time: float, source: str, kind: str, **detail: Any) -> None:
        if not self.enabled:
            return
        rec = TraceRecord(time, source, kind, detail)
        self.records.append(rec)
        for listener in self._listeners:
            listener(rec)

    def add_listener(self, listener: Callable[[TraceRecord], None]) -> None:
        """Invoke ``listener`` synchronously with each record.

        Listeners see records in emission order; they must not mutate
        simulation state (they run inside model hot paths).
        """
        self._listeners.append(listener)

    def clear(self) -> None:
        self.records.clear()

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)
