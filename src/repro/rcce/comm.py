"""The communication world: ranks, MPB layout, per-core handles.

A :class:`Comm` binds a set of participating cores (by chip core id) to
ranks ``0..P-1``, owns the symmetric MPB layout, and hands out per-core
:class:`CoreComm` handles that programs drive with ``yield from``.

All collective algorithms in :mod:`repro.collectives` and
:mod:`repro.core` are written against :class:`CoreComm`, so they are
rank-based and agnostic of which physical cores participate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Sequence

from ..scc.chip import SccChip
from ..scc.memory import MemRef
from ..resilience.policy import RetryPolicy
from .flags import (
    DigestSlotArray,
    Flag,
    FlagSlotArray,
    FlagValue,
    flag_put,
    flag_read_local,
    wait_local_flags,
)
from .layout import MpbLayout, MpbRegion
from . import onesided

if TYPE_CHECKING:  # pragma: no cover
    from ..scc.core import Core
    from .twosided import TwoSidedState


class Comm:
    """A communicator over a subset (default: all) of the chip's cores."""

    def __init__(self, chip: SccChip, ranks: Sequence[int] | None = None) -> None:
        self.chip = chip
        self.core_ids: tuple[int, ...] = (
            tuple(ranks) if ranks is not None else tuple(range(chip.num_cores))
        )
        if len(set(self.core_ids)) != len(self.core_ids):
            raise ValueError("duplicate core ids in communicator")
        for cid in self.core_ids:
            if not 0 <= cid < chip.num_cores:
                raise ValueError(f"core id {cid} outside chip")
        self._rank_of = {cid: r for r, cid in enumerate(self.core_ids)}
        self.layout = MpbLayout(chip.config.mpb_lines)
        #: Optional transport-level fault layer (differential testing):
        #: an object with ``on_trace(rank, kind, detail)`` consulted by
        #: :meth:`CoreComm.trace` before every protocol trace event.  It
        #: may raise :class:`repro.sim.FaultInjected` to crash the rank
        #: at a *logical* protocol point -- the backend-agnostic crash
        #: coordinate the differential harness uses.  ``None`` (the
        #: default) adds one attribute check per protocol trace.
        self.transport_faults = None
        self._twosided: "TwoSidedState | None" = None
        # Per-core tail of the outstanding non-blocking send chain (the
        # payload staging buffer is shared, so sends gate on each other).
        self._send_tails: dict[int, object] = {}

    @property
    def size(self) -> int:
        return len(self.core_ids)

    def rank_of(self, core_id: int) -> int:
        try:
            return self._rank_of[core_id]
        except KeyError:
            raise ValueError(f"core {core_id} is not in this communicator") from None

    def core_of(self, rank: int) -> int:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} outside 0..{self.size - 1}")
        return self.core_ids[rank]

    def flag(self, name: str) -> Flag:
        """Allocate one symmetric flag line."""
        return Flag(self.layout.alloc_lines(1), name=name)

    def attach(self, core: "Core") -> "CoreComm":
        """Per-core handle for the program running on ``core``."""
        return CoreComm(self, core)

    @property
    def twosided(self) -> "TwoSidedState":
        """Lazily allocated RCCE send/recv state (flags + payload buffer)."""
        if self._twosided is None:
            from .twosided import TwoSidedState

            self._twosided = TwoSidedState(self)
        return self._twosided

    def reset_mpb(self) -> None:
        """Zero all participating MPBs (when switching algorithms whose
        regions alias; sequence-numbered flags normally make this
        unnecessary)."""
        for cid in self.core_ids:
            mpb = self.chip.mpbs[cid]
            mpb.write_bytes(0, bytes(mpb.size))


class CoreComm:
    """The view of a :class:`Comm` from one core's program."""

    def __init__(self, comm: Comm, core: "Core") -> None:
        self.comm = comm
        self.core = core
        self.chip = comm.chip
        self.rank = comm.rank_of(core.id)

    @property
    def size(self) -> int:
        return self.comm.size

    # -- memory -----------------------------------------------------------

    def alloc(self, nbytes: int) -> MemRef:
        """Allocate private off-chip memory on this core."""
        return self.core.mem.alloc(nbytes)

    def local_copy(self, dst: MemRef, src: MemRef, nbytes: int) -> Generator:
        """Timed private-memory-to-private-memory copy on this core."""
        if src.owner != self.core.id or dst.owner != self.core.id:
            raise ValueError("local_copy operates on this core's memory only")
        if nbytes < 0 or nbytes > src.nbytes or nbytes > dst.nbytes:
            raise ValueError(f"bad local_copy length {nbytes}")
        if nbytes == 0:
            return
        yield from self.core.mem_read(src.sub(0, nbytes))
        yield from self.core.mem_write(dst.sub(0, nbytes))
        dst.sub(0, nbytes).write(src.sub(0, nbytes).read())

    # -- one-sided ----------------------------------------------------------

    def put(
        self, dst_rank: int, dst_offset: int, src: "MemRef | int", nbytes: int
    ) -> Generator:
        """One-sided put to ``dst_rank``'s MPB (offset in bytes)."""
        yield from onesided.put(
            self.core, self.comm.core_of(dst_rank), dst_offset, src, nbytes
        )

    def get(
        self, src_rank: int, src_offset: int, dst: "MemRef | int", nbytes: int
    ) -> Generator:
        """One-sided get from ``src_rank``'s MPB (offset in bytes)."""
        yield from onesided.get(
            self.core, self.comm.core_of(src_rank), src_offset, dst, nbytes
        )

    def put_acked(
        self,
        dst_rank: int,
        dst_offset: int,
        src: "MemRef | int",
        nbytes: int,
        *,
        max_retries: int = 3,
        policy: "RetryPolicy | None" = None,
    ) -> Generator:
        """Acked, bounded-retry put: re-sends un-acked cache lines (see
        :func:`repro.rcce.onesided.put_acked`)."""
        yield from onesided.put_acked(
            self.core,
            self.comm.core_of(dst_rank),
            dst_offset,
            src,
            nbytes,
            max_retries=max_retries,
            policy=policy,
        )

    def get_acked(
        self,
        src_rank: int,
        src_offset: int,
        dst: "MemRef | int",
        nbytes: int,
        *,
        max_retries: int = 3,
        policy: "RetryPolicy | None" = None,
    ) -> Generator:
        """Verified, bounded-retry get: re-fetches until the destination
        matches the source (see :func:`repro.rcce.onesided.get_acked`)."""
        yield from onesided.get_acked(
            self.core,
            self.comm.core_of(src_rank),
            src_offset,
            dst,
            nbytes,
            max_retries=max_retries,
            policy=policy,
        )

    def put_bytes(
        self, dst_rank: int, dst_offset: int, payload: bytes
    ) -> Generator[object, object, str]:
        """Small register-sourced protocol write (chunk headers,
        membership bitmaps); returns the landed status."""
        return (
            yield from onesided.put_bytes(
                self.core, self.comm.core_of(dst_rank), dst_offset, payload
            )
        )

    def get_bytes(
        self, src_rank: int, src_offset: int, nbytes: int
    ) -> Generator[object, object, bytes]:
        """Small register-destined read of ``src_rank``'s MPB lines."""
        return (
            yield from onesided.get_bytes(
                self.core, self.comm.core_of(src_rank), src_offset, nbytes
            )
        )

    # -- flags ---------------------------------------------------------------

    def flag_set(self, owner_rank: int, flag: Flag, value: FlagValue) -> Generator:
        """Write ``value`` into ``flag`` in ``owner_rank``'s MPB."""
        yield from flag_put(
            self.core, self.comm.core_of(owner_rank), flag, value, acked=False
        )

    def flag_set_acked(
        self,
        owner_rank: int,
        flag: Flag,
        value: FlagValue,
        *,
        max_retries: int = 3,
        policy: "RetryPolicy | None" = None,
    ) -> Generator[object, object, FlagValue]:
        """Acknowledged flag write: verify by readback, re-send until it
        lands (see :func:`repro.rcce.flags.flag_write_acked`)."""
        return (
            yield from flag_put(
                self.core,
                self.comm.core_of(owner_rank),
                flag,
                value,
                acked=True,
                max_retries=max_retries,
                policy=policy,
            )
        )

    def flag_poll(self, flag: Flag) -> Generator[object, object, FlagValue]:
        """One timed poll of this core's own copy of ``flag``."""
        return (yield from flag_read_local(self.core, flag))

    def wait_flags(
        self,
        flags: Sequence[Flag],
        predicate: Callable[[Sequence[FlagValue]], bool],
        *,
        sweep_flags: int | None = None,
        timeout: float | None = None,
        site: str = "",
    ) -> Generator[object, object, list[FlagValue]]:
        """Block until ``predicate`` holds over own copies of ``flags``.
        With ``timeout``, raise :class:`repro.sim.TimeoutError` when the
        poll budget expires instead of spinning forever."""
        return (
            yield from wait_local_flags(
                self.core,
                flags,
                predicate,
                sweep_flags=sweep_flags,
                timeout=timeout,
                site=site,
            )
        )

    def wait_flag_equals(self, flag: Flag, value: FlagValue) -> Generator:
        """Block until own copy of ``flag`` equals ``value`` exactly."""
        yield from wait_local_flags(self.core, [flag], lambda v: v[0] == value)

    def wait_flag_at_least(self, flag: Flag, tag: int, seq: int) -> Generator:
        """Block until own ``flag`` has ``tag`` and ``seq >= seq``."""
        yield from wait_local_flags(
            self.core, [flag], lambda v: v[0].tag == tag and v[0].seq >= seq
        )

    # -- transport interface: identity, timing and observability hooks -------
    #
    # Everything below (together with the one-sided/flag/slot primitives
    # above) forms the narrow ``Transport`` surface protocols are written
    # against (see :mod:`repro.transport.api`).  Each method delegates to
    # exactly the chip/core call chain the protocol call sites used
    # before the extraction, so the SCC paths stay bit-identical.

    @property
    def core_id(self) -> int:
        """The physical identity of this endpoint (chip core id here;
        the rank itself on backends without a core/rank distinction)."""
        return self.core.id

    @property
    def now(self) -> float:
        """Current virtual time (microseconds)."""
        return self.core.sim.now

    @property
    def t_poll(self) -> float:
        """Cost of one flag poll on this endpoint (microseconds)."""
        return self.core.config.t_poll

    @property
    def tracer_enabled(self) -> bool:
        return self.chip.tracer.enabled

    @property
    def has_faults(self) -> bool:
        """Whether a fault injector is attached to this backend."""
        return self.chip.faults is not None

    def trace(self, kind: str, **detail: object) -> None:
        """Emit one protocol trace record as ``rank{rank}``.  The
        transport fault layer (differential crash coordinates) hooks
        here; it may raise :class:`repro.sim.FaultInjected`."""
        tf = self.comm.transport_faults
        if tf is not None:
            tf.on_trace(self.rank, kind, detail)
        if self.chip.tracer.enabled:
            self.chip.trace(f"rank{self.rank}", kind, **detail)

    def metric_inc(self, name: str, n: int = 1) -> None:
        if self.chip.metrics is not None:
            self.chip.metrics.inc(name, n)

    def metric_set(self, name: str, value: float) -> None:
        if self.chip.metrics is not None:
            self.chip.metrics.set(name, value)

    def observe_histogram(self, name: str, bounds, value: float) -> None:
        if self.chip.metrics is not None:
            self.chip.metrics.histogram(name, bounds).observe(value)

    def compute(self, duration: float) -> Generator:
        """Local compute for ``duration`` microseconds."""
        yield self.core.compute(duration)

    def read_local(self, offset: int, nbytes: int) -> bytes:
        """Untimed read of this endpoint's own MPB bytes (timed callers
        charge the access themselves)."""
        return self.chip.mpbs[self.core.id].read_bytes(offset, nbytes)

    def mpb_charge_local(self, lines: int, *, write: bool = False) -> Generator:
        """The timed cost of touching ``lines`` of the own MPB."""
        yield from self.core.mpb_access(self.core.id, lines, write=write)

    def mem_read(self, ref: MemRef) -> Generator:
        """Timed private-memory read of ``ref`` (own memory only)."""
        yield from self.core.mem_read(ref)

    def mem_write(self, ref: MemRef) -> Generator:
        """Timed private-memory write of ``ref`` (own memory only)."""
        yield from self.core.mem_write(ref)

    def flag_peek(self, flag: Flag) -> FlagValue:
        """Untimed read of this endpoint's own copy of ``flag``."""
        return flag.peek(self.chip, self.core.id)

    # -- transport interface: fault/adversary hooks --------------------------

    def adversary_stage(self):
        """The Byzantine staging hook (EQUIVOCATE window), or ``None``."""
        faults = self.chip.faults
        return None if faults is None else faults.adversary_stage(self.core.id)

    def quorum_vote(self):
        """The Byzantine vote hook (FORGE/LIE specs), or ``None``."""
        faults = self.chip.faults
        return None if faults is None else faults.quorum_vote(self.core.id)

    def note_recovery(self, site: str, note: str = "") -> None:
        if self.chip.faults is not None:
            self.chip.faults.note_recovery(site, note=note)

    def first_fault_time(self) -> float | None:
        """Time of the first injected fault, or ``None`` (repair
        telemetry baselines)."""
        faults = self.chip.faults
        if faults is not None and faults.injected:
            return faults.injected[0].time
        return None

    # -- transport interface: slot arrays (heartbeats, claims, ring) ---------

    def slot_write(
        self, array: FlagSlotArray, owner_rank: int, slot: int, value: int
    ) -> Generator:
        yield from array.write(
            self.core, self.comm.core_of(owner_rank), slot, value
        )

    def slot_write_acked(
        self,
        array: FlagSlotArray,
        owner_rank: int,
        slot: int,
        value: int,
        *,
        max_retries: int = 3,
        policy: "RetryPolicy | None" = None,
    ) -> Generator:
        yield from array.write_acked(
            self.core,
            self.comm.core_of(owner_rank),
            slot,
            value,
            max_retries=max_retries,
            policy=policy,
        )

    def slot_peek(self, array: FlagSlotArray, slot: int) -> int:
        """Untimed read of the own copy of one slot."""
        return array.peek(self.chip, self.core.id, slot)

    def slot_wait_at_least(
        self,
        array: FlagSlotArray,
        slot: int,
        value: int,
        *,
        timeout: float | None = None,
    ) -> Generator[object, object, int]:
        return (
            yield from array.wait_at_least(self.core, slot, value, timeout=timeout)
        )

    def slot_wait_any_at_least(
        self,
        array: FlagSlotArray,
        slots: Sequence[int],
        value: int,
        *,
        timeout: float,
        site: str = "",
    ) -> Generator[object, object, int]:
        return (
            yield from array.wait_any_at_least(
                self.core, slots, value, timeout=timeout, site=site
            )
        )

    # -- transport interface: digest vote slots (RBC) -------------------------

    def vote_write(
        self, array: DigestSlotArray, owner_rank: int, slot: int, seq: int,
        digest: int,
    ) -> Generator:
        yield from array.write(
            self.core, self.comm.core_of(owner_rank), slot, seq, digest
        )

    def vote_write_acked(
        self,
        array: DigestSlotArray,
        owner_rank: int,
        slot: int,
        seq: int,
        digest: int,
        *,
        max_retries: int = 3,
        policy: "RetryPolicy | None" = None,
    ) -> Generator:
        yield from array.write_acked(
            self.core,
            self.comm.core_of(owner_rank),
            slot,
            seq,
            digest,
            max_retries=max_retries,
            policy=policy,
        )

    def vote_peek(self, array: DigestSlotArray, slot: int) -> tuple[int, int]:
        """Untimed read of the own copy of one vote slot."""
        return array.peek(self.chip, self.core.id, slot)

    def vote_wait_quorum(
        self,
        array: DigestSlotArray,
        seq: int,
        need: int,
        *,
        timeout: float,
        site: str = "",
    ) -> Generator[object, object, int]:
        return (
            yield from array.wait_quorum(
                self.core, seq, need, timeout=timeout, site=site
            )
        )

    # -- two-sided -------------------------------------------------------------

    def send(self, dst_rank: int, src: MemRef, nbytes: int) -> Generator:
        """Blocking RCCE-style send (matching :meth:`recv` required)."""
        from .twosided import send

        yield from send(self, dst_rank, src, nbytes)

    def recv(self, src_rank: int, dst: MemRef, nbytes: int) -> Generator:
        """Blocking RCCE-style receive."""
        from .twosided import recv

        yield from recv(self, src_rank, dst, nbytes)

    # -- non-blocking (explicit progress, iRCCE-style) ----------------------

    def isend(self, dst_rank: int, src: MemRef, nbytes: int):
        """Post a non-blocking send; progress with :meth:`wait_all`."""
        from .nonblocking import isend

        return isend(self, dst_rank, src, nbytes)

    def irecv(self, src_rank: int, dst: MemRef, nbytes: int):
        """Post a non-blocking receive; progress with :meth:`wait_all`."""
        from .nonblocking import irecv

        return irecv(self, src_rank, dst, nbytes)

    def wait_all(self, requests) -> Generator:
        """Progress and complete the given non-blocking requests."""
        from .nonblocking import wait_all

        yield from wait_all(self, requests)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CoreComm rank={self.rank} core={self.core.id}>"
