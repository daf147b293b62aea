"""The transport contract the protocol layer is written against.

The contract *is* a class: :class:`repro.rcce.endpoint.Endpoint`,
re-exported here as :class:`Transport`.  It implements everything
protocols call, once, over the backend primitives named in
``Transport.PRIMITIVES``; :class:`repro.rcce.comm.CoreComm` (SCC chip
model) and :class:`repro.transport.asyncio_backend.AsyncioTransport`
subclass it and supply only those.  A third backend does the same --
``docs/TRANSPORT.md`` lists both halves.
"""

from __future__ import annotations

from ..faults.plan import FaultKind
from ..rcce.endpoint import Endpoint as Transport
from ..sim.errors import FaultInjected
from .decisions import kinds_with

#: The kinds ``Endpoint.trace`` emits: the only ones a crash can name.
_RANK_KINDS = kinds_with("rank")

__all__ = ["CrashOnEvent", "Transport"]


class CrashOnEvent:
    """Backend-agnostic crash coordinate: kill ``rank`` at its ``nth``
    emission of trace kind ``kind``.

    Installed as ``comm.transport_faults`` (SCC) or
    ``net.transport_faults`` (asyncio); both backends consult it from
    ``trace()`` *before* the record is emitted, so the crashing rank's
    streams are identical on both -- the event that kills it never
    appears.  The raised :class:`FaultInjected` unwinds the rank's
    program generator; scenario programs catch it and report
    ``"crashed"``.

    Naming an event instead of an operation count makes the coordinate
    portable: operation interleavings differ across backends, a rank's
    own trace stream (program order) does not.  ``kind`` must be a
    rank-emitted kind of :data:`repro.transport.decisions.TRACE_KINDS`:
    only ``trace()`` calls the hook, so any other kind -- a typo, a wire
    record -- would never fire and the run would pass as fault-free.
    """

    def __init__(self, rank: int, kind: str, *, nth: int = 1) -> None:
        if nth < 1:
            raise ValueError(f"crash coordinate nth must be >= 1, got {nth}")
        if kind not in _RANK_KINDS:
            raise ValueError(
                f"crash coordinate kind {kind!r} is not a trace kind a "
                f"rank emits, so it would never fire"
            )
        self.rank = rank
        self.kind = kind
        self.nth = nth
        self.seen = 0
        self.fired = False

    def on_trace(self, rank: int, kind: str, detail: dict) -> None:
        if self.fired or rank != self.rank or kind != self.kind:
            return
        self.seen += 1
        if self.seen >= self.nth:
            self.fired = True
            site = f"rank{self.rank}@{self.kind}#{self.nth}"
            raise FaultInjected(
                f"rank {self.rank} crashed at its {self.nth}th "
                f"{self.kind!r} event",
                kind=FaultKind.CORE_CRASH.value,
                site=site,
            )
