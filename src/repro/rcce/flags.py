"""MPB synchronization flags.

The SCC guarantees read/write atomicity at cache-line (32 B) granularity,
so one cache line per flag needs no locks (paper Section 5.1).  A flag
here carries a :class:`FlagValue` -- a ``(tag, seq)`` pair -- rather than
a bare boolean: monotonically increasing sequence numbers let OC-Bcast's
double buffering and RCCE's send/recv reuse the same flag line across
chunks and invocations without clearing it (clearing would cost an extra
remote put per chunk).

Polling cost model
------------------
A core waiting on flags continuously sweeps them, each flag read costing
``t_poll``.  Simulating every sweep would explode the event count, so the
wait primitive (:func:`wait_local_flags`) is event-driven -- it sleeps on
MPB write-watchers -- and charges the *detection delay* a sweep would add:
on the wake-up that satisfies the predicate, the core pays half a sweep
(``0.5 * nflags * t_poll``) plus one flag read.  This reproduces the
paper's observation that large ``k`` makes the root slow to notice its 47
doneFlags, while keeping waits O(#writes) in events.

Fault tolerance
---------------
Plain flag waits spin forever if the awaited write was lost (the SCC's
MPB stores are unacknowledged), which turns a single dropped write into
a whole-program deadlock.  Two escape hatches, both opt-in:

- every wait primitive takes a ``timeout`` (a polling budget in
  simulated microseconds); an expired budget raises
  :class:`repro.sim.TimeoutError` naming the waiting core, the flag and
  the simulated time, instead of spinning silently;
- :func:`flag_write_acked` reads the flag line back after writing and
  re-sends until it verifies (bounded retries), converting the
  fire-and-forget store into an acknowledged one at the cost of one
  remote read per attempt.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator, Sequence

from ..sim import any_of
from ..sim.errors import TimeoutError as SimTimeoutError
from ..scc.config import CACHE_LINE
from ..resilience.policy import RetryPolicy, plan_delays
from .layout import MpbRegion

if TYPE_CHECKING:  # pragma: no cover
    from ..scc.chip import SccChip
    from ..scc.core import Core

# Histogram bucket bounds (us) for backoff pauses inserted by retry
# policies; coarse decades matching the simulated RMA cost scale.
_BACKOFF_BOUNDS = (10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0)


def _ack_recovered(
    core: "Core", kind: str, site: str, note: str, attempts: int, **detail
) -> None:
    """The shared trace/metric emission for an acked write that needed
    re-sending: one place instead of three near-identical blocks, so
    the retry-policy integration (and any future field) lands once."""
    chip = core.chip
    chip.trace(f"core{core.id}", kind, attempts=attempts, **detail)
    if chip.faults is not None:
        chip.faults.note_recovery(site, note=note)
    if chip.metrics is not None:
        chip.metrics.inc("resilience.retry_ok")


def _backoff_pause(core: "Core", site: str, delay: float) -> Generator:
    """Charge one backoff pause before a re-send.  Callers only route
    strictly positive delays here, so a zero/None policy inserts no
    simulator events and default traces stay bit-identical."""
    chip = core.chip
    chip.trace(f"core{core.id}", "retry_backoff", site=site, delay=delay)
    if chip.metrics is not None:
        chip.metrics.inc("resilience.backoffs")
        chip.metrics.histogram("resilience.backoff_us", _BACKOFF_BOUNDS).observe(delay)
    yield core.compute(delay)

_STRUCT = struct.Struct("<qq")  # tag, seq -- 16 of the 32 flag bytes


@dataclass(frozen=True, order=True)
class FlagValue:
    """The content of a flag line: an opaque tag and a sequence number."""

    tag: int = 0
    seq: int = 0

    def encode(self) -> bytes:
        return _STRUCT.pack(self.tag, self.seq) + b"\x00" * (
            CACHE_LINE - _STRUCT.size
        )

    @classmethod
    def decode(cls, raw: bytes) -> "FlagValue":
        tag, seq = _STRUCT.unpack_from(raw)
        return cls(tag, seq)


ZERO = FlagValue(0, 0)


@dataclass(frozen=True)
class Flag:
    """A symmetric one-cache-line flag: core ``i``'s copy lives at
    ``region.offset`` in core ``i``'s MPB."""

    region: MpbRegion
    name: str = "flag"

    def __post_init__(self) -> None:
        if self.region.nbytes != CACHE_LINE:
            raise ValueError(f"flag must be exactly one cache line, got {self.region.nbytes}")

    @property
    def offset(self) -> int:
        return self.region.offset

    def peek(self, chip: "SccChip", owner_core: int) -> FlagValue:
        """Untimed read of the flag in ``owner_core``'s MPB (for tests)."""
        raw = chip.mpbs[owner_core].read_bytes(self.offset, CACHE_LINE)
        return FlagValue.decode(raw)

    def poke(self, chip: "SccChip", owner_core: int, value: FlagValue) -> None:
        """Untimed write (for initialisation in tests)."""
        chip.mpbs[owner_core].write_bytes(self.offset, value.encode())


class FlagSlotArray:
    """Per-partner flag slots packed into few cache lines (RCCE-style).

    Real RCCE keeps one flag per communication partner and bit-packs them
    so 48 partners cost a handful of bytes rather than 48 cache lines; we
    model the same with one little-endian 16-bit sequence counter per
    partner (16 slots per line).  Each slot has exactly ONE writer (the
    partner it is named after), so there are no write races; the packing
    means a write touches only its own bytes -- the property RCCE's
    bit-flags rely on.

    The array is symmetric: every core's MPB holds its own copy at
    ``region.offset``.
    """

    SLOT_BYTES = 2
    MAX_SEQ = 0xFFFF

    def __init__(self, region: MpbRegion, nslots: int, name: str = "slots") -> None:
        need = -(-nslots * self.SLOT_BYTES // CACHE_LINE)
        if region.lines < need:
            raise ValueError(
                f"slot array {name!r} needs {need} lines for {nslots} slots, "
                f"got {region.lines}"
            )
        self.region = region
        self.nslots = nslots
        self.name = name

    @classmethod
    def lines_needed(cls, nslots: int) -> int:
        return -(-nslots * cls.SLOT_BYTES // CACHE_LINE)

    def _check(self, slot: int) -> int:
        if not 0 <= slot < self.nslots:
            raise IndexError(f"slot {slot} outside 0..{self.nslots - 1}")
        return slot

    def slot_offset(self, slot: int) -> int:
        return self.region.offset + self._check(slot) * self.SLOT_BYTES

    def peek(self, chip: "SccChip", owner_core: int, slot: int) -> int:
        raw = chip.mpbs[owner_core].read_bytes(self.slot_offset(slot), self.SLOT_BYTES)
        return int.from_bytes(raw, "little")

    def write(
        self, core: "Core", owner_core: int, slot: int, value: int
    ) -> Generator:
        """Timed remote write of one slot (costs one 1-line flag put)."""
        if not 0 <= value <= self.MAX_SEQ:
            raise ValueError(
                f"slot value {value} exceeds 16-bit sequence space; "
                f"reinitialise the communicator for longer runs"
            )
        chip = core.chip
        yield core.compute(chip.config.o_put_mpb)
        yield from core.mpb_access(owner_core, 1, write=True)
        landed = chip.mpbs[owner_core].write_bytes(
            self.slot_offset(slot),
            value.to_bytes(self.SLOT_BYTES, "little"),
            source=core.id,
            op="flag",
        )
        chip.trace(
            f"core{core.id}", "slot_write",
            array=self.name, owner=owner_core, slot=slot, value=value,
            landed=landed,
        )
        if chip.metrics is not None:
            chip.metrics.inc("flags.slot_writes")

    def write_acked(
        self,
        core: "Core",
        owner_core: int,
        slot: int,
        value: int,
        *,
        max_retries: int = 3,
        policy: "RetryPolicy | None" = None,
    ) -> Generator:
        """An acknowledged slot write: read the slot back and re-send
        until it verifies (slot values are monotonic per writer, so a
        readback >= value also acks).  The membership heartbeats ride on
        this -- a silently dropped heartbeat would otherwise read as a
        crash and evict a live core.  A ``policy`` paces the re-sends
        (and overrides ``max_retries``); ``None`` keeps the legacy
        immediate re-send schedule.
        """
        chip = core.chip
        off = self.slot_offset(slot)
        site = f"{self.name}[{slot}]@core{owner_core}"
        delays = plan_delays(policy, core.id, site, max_retries)
        for attempt in range(len(delays) + 1):
            if attempt and delays[attempt - 1] > 0.0:
                yield from _backoff_pause(core, site, delays[attempt - 1])
            yield from self.write(core, owner_core, slot, value)
            yield from core.mpb_access(owner_core, 1)
            got = int.from_bytes(
                chip.mpbs[owner_core].read_bytes(off, self.SLOT_BYTES), "little"
            )
            if got >= value:
                if attempt:
                    _ack_recovered(
                        core, "slot_write_retry_ok", site,
                        f"slot re-sent x{attempt}", attempt + 1,
                        array=self.name, owner=owner_core, slot=slot,
                    )
                return
        raise SimTimeoutError(
            f"core {core.id}: slot write {self.name}[{slot}] to core "
            f"{owner_core} un-acked after {len(delays) + 1} attempts at "
            f"t={core.sim.now:.4f}{_timeline_suffix(chip)}",
            process=f"core{core.id}",
            sim_time=core.sim.now,
            site=site,
        )

    def wait_any_at_least(
        self,
        core: "Core",
        slots: Sequence[int],
        value: int,
        *,
        timeout: float,
        site: str = "",
    ) -> Generator[object, object, int]:
        """Wait until *any* of the core's own copies of ``slots`` is
        >= ``value``; returns the first satisfying slot (lowest index).

        The multi-slot twin of :meth:`wait_at_least`: one watcher per
        *distinct cache line* covering the watched slots, so 16 slots
        cost one watcher.  Always takes a ``timeout`` -- the election
        protocol that rides on this is all about bounded waits.  Raises
        :class:`repro.sim.TimeoutError` on budget expiry.
        """
        if not slots:
            raise ValueError("wait_any_at_least needs at least one slot")
        mpb = core.mpb
        sim = core.sim
        offs = {self.slot_offset(s): s for s in slots}
        lines = sorted({off - off % CACHE_LINE for off in offs})
        deadline = sim.now + timeout
        where = site or f"{self.name}[any]"

        def hit() -> int | None:
            for s in sorted(slots):
                raw = mpb.read_bytes(self.slot_offset(s), self.SLOT_BYTES)
                if int.from_bytes(raw, "little") >= value:
                    return s
            return None

        yield _charge_poll(core, core.config.t_poll)
        while True:
            got = hit()
            if got is not None:
                return got
            watchers = [mpb.watch(off) for off in lines]
            got = hit()
            if got is not None:
                return got
            remaining = deadline - sim.now
            if remaining <= 0:
                _raise_wait_timeout(core, where, timeout)
            timer = sim.timeout(remaining, name=f"core{core.id}.{self.name}.budget")
            yield any_of(sim, [*watchers, timer], name=f"core{core.id}.wait_any")
            if hit() is None and sim.now >= deadline:
                _raise_wait_timeout(core, where, timeout)
            got = hit()
            if got is not None:
                yield _charge_poll(core, 1.5 * core.config.t_poll)
                return got

    def wait_at_least(
        self, core: "Core", slot: int, value: int, *, timeout: float | None = None
    ) -> Generator[object, object, int]:
        """Wait until the core's own copy of ``slot`` is >= ``value``.

        Same polling cost model as :func:`wait_local_flags`; wakes on any
        write to the slot's cache line (sharing a line with other slots
        only causes spurious re-checks, never missed wake-ups).  With a
        ``timeout``, an exhausted poll budget raises
        :class:`repro.sim.TimeoutError` instead of spinning forever.
        """
        mpb = core.mpb
        off = self.slot_offset(slot)
        sim = core.sim
        deadline = None if timeout is None else sim.now + timeout

        def read() -> int:
            return int.from_bytes(mpb.read_bytes(off, self.SLOT_BYTES), "little")

        yield _charge_poll(core, core.config.t_poll)
        while True:
            current = read()
            if current >= value:
                return current
            watcher = mpb.watch(off)
            current = read()
            if current >= value:
                return current
            if deadline is None:
                yield watcher
            else:
                remaining = deadline - sim.now
                if remaining <= 0:
                    _raise_wait_timeout(core, f"{self.name}[{slot}]", timeout)
                timer = sim.timeout(
                    remaining, name=f"core{core.id}.{self.name}.budget"
                )
                yield any_of(sim, [watcher, timer], name=f"core{core.id}.wait_slot")
                if read() < value and sim.now >= deadline:
                    _raise_wait_timeout(core, f"{self.name}[{slot}]", timeout)
            current = read()
            if current >= value:
                yield _charge_poll(core, 1.5 * core.config.t_poll)
                return read()


_VOTE = struct.Struct("<II")  # round seq, digest -- 8 of the slot's 8 bytes


class DigestSlotArray:
    """Per-partner ``(seq, digest)`` vote slots -- the RBC wire format.

    :class:`FlagSlotArray`'s 16-bit slots are too narrow to carry a
    payload digest, so quorum votes get 8-byte slots (4 per cache line):
    a 32-bit round sequence number qualifying the vote and a 32-bit
    digest being voted for.  The single-writer discipline is identical --
    slot ``i`` is written only by member ``i`` -- which is exactly the
    trust base the Byzantine mode leans on: a compromised core can forge
    values *in its own slots* (vote equivocation) but cannot overwrite
    another member's vote.

    The array is symmetric: every core's MPB holds its own tally copy,
    and a voter pushes its vote into all of them.
    """

    SLOT_BYTES = 8
    MAX_SEQ = 0xFFFFFFFF

    def __init__(self, region: MpbRegion, nslots: int, name: str = "votes") -> None:
        need = -(-nslots * self.SLOT_BYTES // CACHE_LINE)
        if region.lines < need:
            raise ValueError(
                f"vote array {name!r} needs {need} lines for {nslots} slots, "
                f"got {region.lines}"
            )
        self.region = region
        self.nslots = nslots
        self.name = name

    @classmethod
    def lines_needed(cls, nslots: int) -> int:
        return -(-nslots * cls.SLOT_BYTES // CACHE_LINE)

    def _check(self, slot: int) -> int:
        if not 0 <= slot < self.nslots:
            raise IndexError(f"slot {slot} outside 0..{self.nslots - 1}")
        return slot

    def slot_offset(self, slot: int) -> int:
        return self.region.offset + self._check(slot) * self.SLOT_BYTES

    def peek(self, chip: "SccChip", owner_core: int, slot: int) -> tuple[int, int]:
        raw = chip.mpbs[owner_core].read_bytes(self.slot_offset(slot), self.SLOT_BYTES)
        return _VOTE.unpack(raw)

    def write(
        self, core: "Core", owner_core: int, slot: int, seq: int, digest: int
    ) -> Generator:
        """Timed remote write of one vote slot (one 1-line flag put)."""
        if not 0 <= seq <= self.MAX_SEQ:
            raise ValueError(f"vote seq {seq} exceeds 32-bit sequence space")
        if not 0 <= digest <= 0xFFFFFFFF:
            raise ValueError(f"digest {digest:#x} is not a 32-bit value")
        chip = core.chip
        yield core.compute(chip.config.o_put_mpb)
        yield from core.mpb_access(owner_core, 1, write=True)
        landed = chip.mpbs[owner_core].write_bytes(
            self.slot_offset(slot),
            _VOTE.pack(seq, digest),
            source=core.id,
            op="flag",
        )
        chip.trace(
            f"core{core.id}", "vote_write",
            array=self.name, owner=owner_core, slot=slot, seq=seq,
            digest=digest, landed=landed,
        )
        if chip.metrics is not None:
            chip.metrics.inc("flags.vote_writes")

    def write_acked(
        self,
        core: "Core",
        owner_core: int,
        slot: int,
        seq: int,
        digest: int,
        *,
        max_retries: int = 3,
        policy: "RetryPolicy | None" = None,
    ) -> Generator:
        """An acknowledged vote write: read the slot back and re-send until
        it verifies.  Digests are not monotonic, so unlike
        :meth:`FlagSlotArray.write_acked` the ack demands an *exact*
        digest match at this seq -- or a later seq, meaning the tally has
        already moved on and this vote is moot anyway.
        """
        chip = core.chip
        off = self.slot_offset(slot)
        site = f"{self.name}[{slot}]@core{owner_core}"
        delays = plan_delays(policy, core.id, site, max_retries)
        for attempt in range(len(delays) + 1):
            if attempt and delays[attempt - 1] > 0.0:
                yield from _backoff_pause(core, site, delays[attempt - 1])
            yield from self.write(core, owner_core, slot, seq, digest)
            yield from core.mpb_access(owner_core, 1)
            got_seq, got_digest = _VOTE.unpack(
                chip.mpbs[owner_core].read_bytes(off, self.SLOT_BYTES)
            )
            if got_seq > seq or (got_seq == seq and got_digest == digest):
                if attempt:
                    _ack_recovered(
                        core, "vote_write_retry_ok", site,
                        f"vote re-sent x{attempt}", attempt + 1,
                        array=self.name, owner=owner_core, slot=slot,
                    )
                return
        raise SimTimeoutError(
            f"core {core.id}: vote write {self.name}[{slot}] to core "
            f"{owner_core} un-acked after {len(delays) + 1} attempts at "
            f"t={core.sim.now:.4f}{_timeline_suffix(chip)}",
            process=f"core{core.id}",
            sim_time=core.sim.now,
            site=site,
        )

    def tally(self, chip: "SccChip", owner_core: int, seq: int) -> dict[int, int]:
        """Untimed count of votes at round ``seq`` in ``owner_core``'s copy:
        digest -> number of distinct voters.  Timed callers charge the
        sweep themselves (:meth:`wait_quorum` does)."""
        counts: dict[int, int] = {}
        mpb = chip.mpbs[owner_core]
        base = self.region.offset
        for s in range(self.nslots):
            got_seq, got_digest = _VOTE.unpack(
                mpb.read_bytes(base + s * self.SLOT_BYTES, self.SLOT_BYTES)
            )
            if got_seq == seq:
                counts[got_digest] = counts.get(got_digest, 0) + 1
        return counts

    def wait_quorum(
        self,
        core: "Core",
        seq: int,
        need: int,
        *,
        timeout: float,
        site: str = "",
    ) -> Generator[object, object, int]:
        """Wait until some digest holds >= ``need`` votes at round ``seq``
        in the core's *own* tally copy; returns that digest.

        Event-driven like the other waits: one watcher per cache line of
        the region, a sweep-shaped detection charge on the satisfying
        wake-up.  Raises :class:`repro.sim.TimeoutError` when the budget
        expires with every digest still short of quorum -- the RBC
        layer's signal that votes are split (or voters silent) and the
        round cannot complete.
        """
        mpb = core.mpb
        sim = core.sim
        nlines = -(-self.nslots * self.SLOT_BYTES // CACHE_LINE)
        lines = [self.region.offset + i * CACHE_LINE for i in range(nlines)]
        deadline = sim.now + timeout
        where = site or f"{self.name}.quorum(seq={seq})"

        def hit() -> int | None:
            counts = self.tally(core.chip, core.id, seq)
            best = None
            for digest, votes in sorted(counts.items()):
                if votes >= need and (best is None or votes > counts[best]):
                    best = digest
            return best

        yield _charge_poll(core, core.config.t_poll)
        while True:
            got = hit()
            if got is not None:
                return got
            watchers = [mpb.watch(off) for off in lines]
            got = hit()
            if got is not None:
                return got
            remaining = deadline - sim.now
            if remaining <= 0:
                _raise_wait_timeout(core, where, timeout)
            timer = sim.timeout(remaining, name=f"core{core.id}.{self.name}.budget")
            yield any_of(sim, [*watchers, timer], name=f"core{core.id}.wait_quorum")
            if hit() is None and sim.now >= deadline:
                _raise_wait_timeout(core, where, timeout)
            got = hit()
            if got is not None:
                yield _charge_poll(
                    core, 0.5 * nlines * core.config.t_poll + core.config.t_poll
                )
                return got


def _charge_poll(core: "Core", duration: float):
    """A poll-shaped compute: same timing as ``core.compute`` but also
    accrued into the core's poll counters (nominal, pre-jitter time)."""
    core.stats.polls += 1
    core.stats.poll_time += duration
    return core.compute(duration)


def _timeline_suffix(chip: "SccChip") -> str:
    """The injector's fault timeline (if any), for timeout messages."""
    faults = getattr(chip, "faults", None)
    if faults is None:
        return ""
    text = faults.timeline_text()
    return f"\n{text}" if text else ""


def _raise_wait_timeout(core: "Core", site: str, timeout: float | None) -> None:
    raise SimTimeoutError(
        f"core {core.id} exhausted its {timeout}-us poll budget waiting on "
        f"{site!r} at t={core.sim.now:.4f}{_timeline_suffix(core.chip)}",
        process=f"core{core.id}",
        sim_time=core.sim.now,
        site=site,
    )


def flag_write(
    core: "Core", owner_core: int, flag: Flag, value: FlagValue
) -> Generator:
    """Set ``flag`` in ``owner_core``'s MPB to ``value`` (a 1-line put
    whose source is a register/L1-resident variable, so no source read)."""
    chip = core.chip
    yield core.compute(chip.config.o_put_mpb)
    yield from core.mpb_access(owner_core, 1, write=True)
    landed = chip.mpbs[owner_core].write_bytes(
        flag.offset, value.encode(), source=core.id, op="flag"
    )
    if chip.tracer.enabled:
        chip.trace(f"core{core.id}", "flag_write", flag=flag.name, owner=owner_core,
                   off=flag.offset, tag=value.tag, seq=value.seq, landed=landed)
    if chip.metrics is not None:
        chip.metrics.inc("flags.writes")
        if landed != "ok":
            chip.metrics.inc(f"flags.writes_{landed}")


def flag_write_acked(
    core: "Core",
    owner_core: int,
    flag: Flag,
    value: FlagValue,
    *,
    max_retries: int = 3,
    policy: "RetryPolicy | None" = None,
) -> Generator[object, object, FlagValue]:
    """An *acknowledged* flag write: write, read the line back, re-send
    until it verifies (at most ``max_retries`` re-sends, or the
    ``policy``'s schedule when one is given).

    The SCC's MPB store is fire-and-forget; the ack here is a remote
    read of the just-written line, costing one extra 1-line MPB access
    per attempt -- the per-write robustness tax of the FT protocols.
    Verification accepts any state at least as new as ``value`` (another
    writer may legitimately have advanced a monotonic flag further).
    Raises :class:`repro.sim.TimeoutError` when every attempt was lost.
    """
    chip = core.chip
    site = f"{flag.name}@core{owner_core}"
    delays = plan_delays(policy, core.id, site, max_retries)
    for attempt in range(len(delays) + 1):
        if attempt and delays[attempt - 1] > 0.0:
            yield from _backoff_pause(core, site, delays[attempt - 1])
        yield from flag_write(core, owner_core, flag, value)
        # The ack: read the remote line back and compare.
        yield from core.mpb_access(owner_core, 1)
        got = FlagValue.decode(
            chip.mpbs[owner_core].read_bytes(flag.offset, CACHE_LINE)
        )
        if got.tag == value.tag and got.seq >= value.seq:
            if attempt > 0:
                _ack_recovered(
                    core, "flag_write_retry_ok", site,
                    f"flag re-sent x{attempt}", attempt + 1,
                    flag=flag.name, owner=owner_core,
                )
            return got
    raise SimTimeoutError(
        f"core {core.id}: flag write {flag.name!r} to core {owner_core} "
        f"un-acked after {len(delays) + 1} attempts at t={core.sim.now:.4f}"
        f"{_timeline_suffix(chip)}",
        process=f"core{core.id}",
        sim_time=core.sim.now,
        site=site,
    )


def flag_put(
    core: "Core",
    owner_core: int,
    flag: Flag,
    value: FlagValue,
    *,
    acked: bool = False,
    max_retries: int = 3,
    policy: "RetryPolicy | None" = None,
) -> Generator[object, object, "FlagValue | None"]:
    """The one entry point for remote flag writes: plain fire-and-forget
    or acked (readback-verified, bounded re-send).  Higher layers route
    through here so the acked/unacked paths cannot drift apart."""
    if acked:
        return (
            yield from flag_write_acked(
                core, owner_core, flag, value,
                max_retries=max_retries, policy=policy,
            )
        )
    yield from flag_write(core, owner_core, flag, value)
    return None


def flag_read_local(core: "Core", flag: Flag) -> Generator[object, object, FlagValue]:
    """One timed poll of the core's own copy of ``flag``."""
    yield _charge_poll(core, core.config.t_poll)
    raw = core.mpb.read_bytes(flag.offset, CACHE_LINE)
    return FlagValue.decode(raw)


def wait_local_flags(
    core: "Core",
    flags: Sequence[Flag],
    predicate: Callable[[Sequence[FlagValue]], bool],
    *,
    sweep_flags: int | None = None,
    timeout: float | None = None,
    site: str = "",
) -> Generator[object, object, list[FlagValue]]:
    """Wait until ``predicate(values)`` holds over the core's own copies of
    ``flags``; returns the satisfying values.

    ``sweep_flags`` overrides the number of flags the core is sweeping (for
    algorithms that poll a superset of the flags the predicate needs).

    ``timeout`` bounds the wait (simulated microseconds of polling
    budget); on expiry :class:`repro.sim.TimeoutError` is raised with the
    waiting core, ``site`` (defaults to the flag names) and the sim time
    in its structured fields -- the FT protocols build their retry and
    crash-suspicion logic on this.
    """
    if not flags:
        return []
    mpb = core.mpb
    sim = core.sim
    nscan = sweep_flags if sweep_flags is not None else len(flags)
    deadline = None if timeout is None else sim.now + timeout
    where = site or "+".join(f.name for f in flags)

    def values() -> list[FlagValue]:
        return [
            FlagValue.decode(mpb.read_bytes(f.offset, CACHE_LINE)) for f in flags
        ]

    # Entry check costs one sweep position; full sweeps while blocked are
    # concurrent with the wait and charged only as the detection delay.
    yield _charge_poll(core, core.config.t_poll)
    while True:
        vals = values()
        if predicate(vals):
            return vals
        watchers = [mpb.watch(f.offset) for f in flags]
        vals = values()
        if predicate(vals):  # value changed while registering: no sleep
            return vals
        if deadline is None:
            yield any_of(sim, watchers, name=f"core{core.id}.wait_flags")
        else:
            remaining = deadline - sim.now
            if remaining <= 0:
                _raise_wait_timeout(core, where, timeout)
            timer = sim.timeout(remaining, name=f"core{core.id}.poll_budget")
            yield any_of(
                sim, [*watchers, timer], name=f"core{core.id}.wait_flags"
            )
            if not predicate(values()) and sim.now >= deadline:
                _raise_wait_timeout(core, where, timeout)
        vals = values()
        if predicate(vals):
            # Detection delay: half a sweep on average, plus the final read.
            yield _charge_poll(
                core, 0.5 * nscan * core.config.t_poll + core.config.t_poll
            )
            return values()
