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
from ..scc.core import lines_of
from ..scc.memory import MemRef
from ..sim import any_of
from .endpoint import Endpoint, store_loop
from .flags import Flag
from .layout import MpbLayout
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


class CoreComm(Endpoint):
    """The view of a :class:`Comm` from one core's program: the SCC
    backend of :class:`~repro.rcce.endpoint.Endpoint`.  Each primitive
    is the chip/core call chain the calibrated timing model charges
    (paper Formulas 1-12); everything protocols call beyond these is
    inherited."""

    def __init__(self, comm: Comm, core: "Core") -> None:
        self.comm = comm
        self.core = core
        self.chip = comm.chip
        self.rank = comm.rank_of(core.id)
        self.tracer = self.chip.tracer
        self.metrics = self.chip.metrics

    # -- identity, clock, fault injector ------------------------------------

    @property
    def core_id(self) -> int:
        """The physical identity of this endpoint (the chip core id)."""
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
    def faults(self):
        return self.chip.faults

    # -- memory and compute ----------------------------------------------------

    def alloc(self, nbytes: int) -> MemRef:
        """Allocate private off-chip memory on this core."""
        return self.core.mem.alloc(nbytes)

    def compute(self, duration: float) -> Generator:
        """Local compute for ``duration`` microseconds."""
        yield self.core.compute(duration)

    def mem_read(self, ref: MemRef) -> Generator:
        """Timed private-memory read of ``ref`` (own memory only)."""
        yield from self.core.mem_read(ref)

    def mem_write(self, ref: MemRef) -> Generator:
        """Timed private-memory write of ``ref`` (own memory only)."""
        yield from self.core.mem_write(ref)

    def mpb_charge_local(self, lines: int, *, write: bool = False) -> Generator:
        """The timed cost of touching ``lines`` of the own MPB."""
        yield from self.core.mpb_access(self.core.id, lines, write=write)

    def read_local(self, offset: int, nbytes: int) -> bytes:
        """Untimed read of this endpoint's own MPB bytes (timed callers
        charge the access themselves)."""
        return self.core.mpb.read_bytes(offset, nbytes)

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

    def _store(
        self, owner: int, off: int, payload: bytes, op: str, site: str
    ) -> Generator[object, object, str]:
        """A register-sourced write: the put call overhead plus one MPB
        write per line (no source read)."""
        core = self.core
        yield from core.mpb_call(
            core.config.o_put_mpb, owner, lines_of(len(payload)), write=True
        )
        return self.chip.mpbs[owner].write_bytes(
            off, payload, source=core.id, op=op
        )

    def _store_each(
        self,
        stores: Sequence[tuple[int, int, bytes, str, str]],
        landed: Callable[[int, str], object],
    ) -> Generator:
        """The stores back to back.  Where the per-access hooks are inert
        (:meth:`Core.claim_stores`) a run of two or more is one leg
        script (:meth:`Core.store_script`): the rank wakes once, and each
        line lands -- bytes, watcher wake-ups, ``landed`` -- in the hop
        where the per-store loop's resumption would land it."""
        core = self.core
        if len(stores) < 2 or not core.claim_stores(len(stores)):
            yield from store_loop(self, stores, landed)
            return
        mpbs, source = self.chip.mpbs, core.id
        pending = enumerate(stores)

        def land() -> None:
            i, (owner, off, payload, op, _site) = next(pending)
            landed(i, mpbs[owner].write_bytes(off, payload, source=source, op=op))

        yield from core.store_script(tuple(store[0] for store in stores), land)

    def _load(
        self, owner: int, off: int, nbytes: int, site: str
    ) -> Generator[object, object, bytes]:
        """A register-destined read: the get call overhead plus one MPB
        read per line (nothing is deposited)."""
        core = self.core
        yield from core.mpb_call(core.config.o_get_mpb, owner, lines_of(nbytes))
        return self.chip.mpbs[owner].read_bytes(off, nbytes)

    def _readback(
        self, owner: int, off: int, nbytes: int, site: str
    ) -> Generator[object, object, bytes]:
        yield from self.core.mpb_access(owner, lines_of(nbytes))
        return self.chip.mpbs[owner].read_bytes(off, nbytes)

    def _verify_get(
        self, src: int, src_offset: int, dst: "MemRef | int", nbytes: int, site: str
    ) -> Generator[object, object, bool]:
        """The vulnerable leg of a get is the deposit, so the check is a
        cheap local re-read of it (one memory read for a private-memory
        destination) against the source lines."""
        core = self.core
        want = self.chip.mpbs[src].read_bytes(src_offset, nbytes)
        if isinstance(dst, MemRef):
            yield from core.mem_read(dst.sub(0, nbytes))
        else:
            yield from core.mpb_access(core.id, lines_of(nbytes))
        return self._local_bytes(dst, nbytes) == want

    # -- polling ------------------------------------------------------------

    def _charge_poll(self, duration: float):
        """A poll-shaped compute event: same timing as ``core.compute``
        but also accrued into the core's poll counters (nominal,
        pre-jitter time)."""
        core = self.core
        core.stats.polls += 1
        core.stats.poll_time += duration
        return core.compute(duration)

    def _poll(self, duration: float, site: str) -> Generator:
        yield self._charge_poll(duration)

    def _wait(
        self,
        check: Callable[[], object],
        offsets: Sequence[int],
        detect_cost: float,
        timeout: float | None,
        site: str,
    ) -> Generator:
        """The one event-driven wait: sleep on one MPB write-watch of
        ``offsets``' lines; see the polling cost model in
        :mod:`repro.rcce.endpoint`.  A multi-line watch still wakes the
        rank through an ``any_of`` hop, as one watch per line did."""
        core = self.core
        mpb = core.mpb
        sim = core.sim
        deadline = None if timeout is None else sim.now + timeout
        # Entry check costs one sweep position; full sweeps while blocked
        # are concurrent with the wait and charged only as the detection
        # delay.
        yield self._charge_poll(core.config.t_poll)
        while True:
            got = check()
            if got is not None:
                return got
            watch = mpb.watch(*offsets)
            got = check()
            if got is not None:  # value changed while registering: no sleep
                return got
            if deadline is None:
                yield (
                    watch if len(offsets) == 1
                    else any_of(sim, (watch,), name=f"core{core.id}.wait")
                )
            else:
                remaining = deadline - sim.now
                if remaining <= 0:
                    raise self._poll_budget_exhausted(site, timeout)
                timer = sim.timeout(remaining, name=f"core{core.id}.poll_budget")
                yield any_of(sim, (watch, timer), name=f"core{core.id}.wait")
                if check() is None and sim.now >= deadline:
                    raise self._poll_budget_exhausted(site, timeout)
            got = check()
            if got is not None:
                yield self._charge_poll(detect_cost)
                return got

    # -- two-sided -------------------------------------------------------------

    def send(self, dst_rank: int, src: MemRef, nbytes: int) -> Generator:
        """Blocking RCCE-style send (matching :meth:`recv` required)."""
        from .twosided import send

        yield from send(self, dst_rank, src, nbytes)

    def recv(self, src_rank: int, dst: MemRef, nbytes: int) -> Generator:
        """Blocking RCCE-style receive."""
        from .twosided import recv

        yield from recv(self, src_rank, dst, nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CoreComm rank={self.rank} core={self.core.id}>"
