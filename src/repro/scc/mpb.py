"""Per-core message-passing buffer: byte-accurate storage + access port.

Every core owns one MPB (8 KB on the SCC).  All accesses -- by the owner
or by remote cores -- go through the buffer's single access port, which is
the contention point the paper measures in Figure 4: the port serves one
cache-line access at a time, each occupying it for ``t_mpb_port``.

The MPB also supports *write watchers*: a core polling a flag registers a
watcher on the flag's cache line and is woken when any write touches it.
The polling sweep cost itself is charged by the wait primitive
(:meth:`repro.rcce.comm.CoreComm._wait`); the watcher mechanism only keeps the event
count low (no busy-poll events while nothing changes).

Fault injection: *protocol* writes (those carrying ``source``/``op``
metadata -- flag and payload deposits from :mod:`repro.rcce`) are
counted by the store they land in, and at an armed occurrence pass
through the chip's :class:`repro.faults.FaultInjector`, which may
silently drop them (no byte change, no watcher wake-up -- a lost
notification) or corrupt them.  Raw writes (test pokes,
initialisation) are never faulted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..faults.plan import NEVER
from ..sim import Event, Resource, Simulator
from .config import CACHE_LINE, SccConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injector import FaultInjector


class ByteStore:
    """Byte-accurate storage with the protocol-write classification every
    transport backend shares (the asyncio rank stores are bare instances
    of this; :class:`Mpb` adds the access port and the write watchers).

    *Protocol* writes carry ``source`` (writing core id) and ``op``
    (``"flag"`` / ``"data"``), are counted here and, at an armed
    occurrence, pass through the attached
    :class:`repro.faults.FaultInjector`; the default ``op="raw"`` marks
    untimed initialisation writes, which are never faulted.
    """

    _LABEL = "store"  # names the store in range errors

    def __init__(self, owner: int, size: int) -> None:
        self.owner = owner
        self.data = bytearray(size)
        #: Set by FaultInjector.attach; entered at armed protocol writes.
        self.injector: "FaultInjector | None" = None
        #: Protocol flag / data writes landed here, and the occurrence
        #: numbers at which the injector must be entered.
        self.flag_writes = self.data_writes = 0
        self.flag_writes_arm = self.data_writes_arm = NEVER

    @property
    def size(self) -> int:
        return len(self.data)

    def read_bytes(self, offset: int, nbytes: int) -> bytes:
        self._check_range(offset, nbytes)
        return bytes(self.data[offset : offset + nbytes])

    def write_bytes(
        self,
        offset: int,
        payload: bytes | bytearray | memoryview,
        *,
        source: int | None = None,
        op: str = "raw",
    ) -> str:
        """Store ``payload`` at ``offset``.

        Returns the write's fate -- ``"ok"``, ``"dropped"`` (no byte
        changes) or ``"corrupted"`` (lands bit-flipped) -- so callers can
        annotate trace records (the invariant checker keys off this to
        flag lost notifications).
        """
        nbytes = len(payload)
        self._check_range(offset, nbytes)
        landed = "ok"
        if source is not None and op != "raw":
            if op == "flag":
                n = self.flag_writes + 1
                quiet = n < self.flag_writes_arm
                if quiet:
                    self.flag_writes = n
            else:
                n = self.data_writes + 1
                quiet = n < self.data_writes_arm
                if quiet:
                    self.data_writes = n
            if not quiet:
                action = self.injector.filter_mpb_write(
                    owner=self.owner, offset=offset, nbytes=nbytes,
                    source=source, op=op,
                )
                if action == "drop":
                    return "dropped"
                if action == "corrupt":
                    payload = bytes(b ^ 0xFF for b in bytes(payload))
                    landed = "corrupted"
        self.data[offset : offset + nbytes] = payload
        self._wake_watchers(offset, nbytes)
        return landed

    def _wake_watchers(self, offset: int, nbytes: int) -> None:
        """Hook: a write landed on ``[offset, offset + nbytes)`` (a
        dropped write wakes nobody -- a lost notification)."""

    def _check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > len(self.data):
            raise IndexError(
                f"{self._LABEL} {self.owner}: access [{offset}, {offset + nbytes}) "
                f"outside 0..{len(self.data)}"
            )


class Mpb(ByteStore):
    """One core's message-passing buffer."""

    _LABEL = "MPB"

    def __init__(self, sim: Simulator, config: SccConfig, owner: int) -> None:
        super().__init__(owner, config.mpb_bytes)
        self.sim = sim
        self.config = config
        self.port = Resource(sim, capacity=1, name=f"mpb{owner}.port")
        # offset (line-aligned) -> list of pending wake events
        self._watchers: dict[int, list[Event]] = {}
        # line offset -> watch event name, formatted once per line (flag
        # waits re-watch the same few lines for the whole run)
        self._watch_names: dict[int, str] = {}

    @property
    def lines(self) -> int:
        return len(self.data) // CACHE_LINE

    # -- watchers ----------------------------------------------------------------

    def watch(self, *offsets: int) -> Event:
        """One event that fires at the next write touching a cache line
        containing one of ``offsets`` (named after the first).  It stays
        listed under the other lines, already triggered, until their next
        write clears the lists -- no pending event is left behind."""
        lines = [(offset // CACHE_LINE) * CACHE_LINE for offset in offsets]
        name = self._watch_names.get(lines[0])
        if name is None:
            name = self._watch_names[lines[0]] = f"mpb{self.owner}.watch@{lines[0]}"
        ev = Event(self.sim, name)
        watchers = self._watchers
        for line in lines:
            watchers.setdefault(line, []).append(ev)
        return ev

    def _wake_watchers(self, offset: int, nbytes: int) -> None:
        if not self._watchers:
            return
        first = (offset // CACHE_LINE) * CACHE_LINE
        last = ((offset + nbytes - 1) // CACHE_LINE) * CACHE_LINE
        for line in range(first, last + CACHE_LINE, CACHE_LINE):
            waiters = self._watchers.pop(line, None)
            if waiters:
                for ev in waiters:
                    if not ev.triggered:
                        ev.succeed(line)
