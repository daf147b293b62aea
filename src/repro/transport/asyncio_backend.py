"""The asyncio transport backend: cooperative rank tasks in virtual time.

The protocols in this repo are generator coroutines written against
:class:`repro.rcce.endpoint.Endpoint`.  This module supplies that
class's backend primitives without the SCC chip model: each rank's
program is a cooperative task on a single-threaded loop, each rank owns
a :class:`RankStore` (the stand-in for its message-passing buffer), and
all timing comes from a pluggable, seeded
:class:`~repro.transport.models.DelayModel` instead of the chip's
calibrated LogP constants.  The loop is :meth:`AsyncioNetwork.run`
itself, not the standard library's: virtual time needs no selector, so
a rank that blocks costs one generator step, not a trip through the
standard library's event loop.  The name stays -- it is a persisted
schema (``"backend": "asyncio"`` in chaos bundles, golden file names,
the CLI, the ledger's workload and metric names).

Virtual time
------------
``AsyncioNetwork`` keeps a virtual clock (float microseconds, like the
SCC simulator) that never touches the wall clock.  A primitive registers
its block synchronously -- a deadline-heap entry ``(deadline, seq, rank,
block generation)`` and/or "waiting on the own store" -- and yields a
bare ``yield``; whatever follows the wake (omission filter, the store
write, the predicate re-test) runs in the resumed rank.  The ordering
contract (pinned against the stdlib-loop scheduler this one replaced by
``tests/differential/test_scheduler_equivalence.py``):

1. all ranks start runnable, in rank order;
2. released ranks resume FIFO, in release order;
3. the clock advances only at quiescence (ready queue empty), to the
   earliest live ``(deadline, seq)`` entry, releasing exactly one rank;
   stale entries -- their rank was released since, so its block
   generation moved on -- are discarded without moving the clock;
4. a landed store write releases the store owner's waiter at that
   instant, behind the ranks already released;
5. at a wedge every blocked rank is released in blocking order with the
   same error, except that the rank whose own block found the wedge
   continues first;
6. ``seq`` is drawn at block time for every timed block, zero-delay
   checkpoints included, so execution order is a deterministic function
   of rank order and model draws -- the property the differential
   harness depends on.

If the heap runs dry (or holds only entries beyond ``time_limit``)
while ranks are still blocked, every blocked rank is failed with a
:class:`~repro.sim.errors.DeadlockError` naming the stuck sites.  This
is deliberately not :mod:`repro.sim.kernel`: two independently written
schedulers agreeing on decisions is what the differential harness is
for.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from types import SimpleNamespace
from typing import Any, Callable, Generator, Sequence

from ..faults.injector import FaultInjector
from ..faults.plan import NEVER, FaultPlan
from ..rcce.endpoint import Endpoint, store_loop, timeline_suffix
from ..rcce.flags import Flag
from ..rcce.layout import MpbLayout
from ..scc.config import MPB_BYTES, MPB_LINES
from ..scc.memory import MemRef, PrivateMemory
from ..scc.mpb import ByteStore
from ..sim.errors import DeadlockError, ScheduleInPastError
from ..sim.trace import Tracer
from .models import DelayModel, NoDelay

_PRIVATE_MEM_BYTES = 16 * 1024 * 1024


class RankStore(ByteStore):
    """One rank's shared message store (the asyncio stand-in for an MPB):
    the :class:`~repro.scc.mpb.ByteStore` write-classification contract
    with no access port, so a :class:`FaultInjector` attaches unchanged.
    With no core model here, it also holds its rank's fault-injector
    occurrence counters -- timed operations and remote transactions --
    and their arms (an SCC :class:`~repro.scc.core.Core` holds its own)."""

    def __init__(self, owner: int, size: int = MPB_BYTES) -> None:
        super().__init__(owner, size)
        self.ops = self.accesses = 0
        self.ops_arm = self.accesses_arm = NEVER


class _SimShim:
    """The ``chip.sim`` surface the fault injector expects."""

    def __init__(self, net: "AsyncioNetwork") -> None:
        self._net = net
        self.diagnostic_context: Callable[[], str] | None = None

    @property
    def now(self) -> float:
        return self._net.now


class _ChipShim:
    """Just enough ``SccChip`` surface for :meth:`FaultInjector.attach`
    and the flag layouts' untimed ``peek``/``tally`` (which only touch
    ``chip.mpbs``)."""

    def __init__(self, net: "AsyncioNetwork") -> None:
        self._net = net
        self.mpbs = net.stores
        self.faults: FaultInjector | None = None
        self.sim = _SimShim(net)

    def trace(self, source: str, kind: str, **detail: Any) -> None:
        self._net.emit(source, kind, **detail)


class AsyncioNetwork:
    """The world object of the asyncio backend (duck-types ``Comm``).

    Build one per run: ``net = AsyncioNetwork(8, model=UniformDelay(),
    seed=3)``, allocate protocol state against it (``net.flag``,
    ``net.layout``), then ``net.run(program)`` where ``program(cc)`` is
    the same generator the SCC backend runs per core.
    """

    def __init__(
        self,
        nranks: int,
        *,
        model: DelayModel | None = None,
        seed: int = 0,
        plan: FaultPlan | None = None,
        tracer: Tracer | None = None,
        time_limit: float = 10_000_000.0,
    ) -> None:
        if nranks < 1:
            raise ValueError("need at least one rank")
        self.size = nranks
        self.core_ids = tuple(range(nranks))
        self.layout = MpbLayout(MPB_LINES)
        self.stores = [RankStore(r) for r in range(nranks)]
        self.model = model if model is not None else NoDelay()
        self.model.reset(seed)
        self.seed = seed
        self.tracer = tracer if tracer is not None else Tracer(enabled=True)
        self.transport_faults = None
        self.time_limit = time_limit
        self.chip = _ChipShim(self)
        self.faults: FaultInjector | None = None
        if plan is not None:
            injector = FaultInjector(plan)
            injector.attach(self.chip)
            self.faults = injector

        # -- virtual-time scheduler ---------------------------------------
        self.now = 0.0
        #: ``(deadline, seq, rank, block generation)``.
        self._heap: list[tuple[float, int, int, int]] = []
        self._seq = itertools.count()
        self._ready: deque[int] = deque()
        #: Per rank, how often it has been released: names its next block.
        self._generation = [0] * nranks
        #: Per rank, the block generation in which it waits on its store.
        self._waiting = [-1] * nranks
        #: ``rank -> site`` of every blocked rank, in blocking order.
        self._blocked: dict[int, str] = {}
        self._wedge: DeadlockError | None = None
        self._ran = False
        self._transports: dict[int, AsyncioTransport] = {}

    # -- Comm surface ------------------------------------------------------

    def flag(self, name: str) -> Flag:
        """Allocate one symmetric flag line (same layout as the SCC)."""
        return Flag(self.layout.alloc_lines(1), name=name)

    def core_of(self, rank: int) -> int:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} outside 0..{self.size - 1}")
        return rank

    def rank_of(self, core_id: int) -> int:
        if not 0 <= core_id < self.size:
            raise ValueError(f"core {core_id} is not in this communicator")
        return core_id

    def transport(self, rank: int) -> "AsyncioTransport":
        """The (cached) per-rank endpoint."""
        cc = self._transports.get(rank)
        if cc is None:
            cc = AsyncioTransport(self, self.core_of(rank))
            self._transports[rank] = cc
        return cc

    def emit(self, source: str, kind: str, **detail: Any) -> None:
        self.tracer.emit(self.now, source, kind, **detail)

    # -- virtual-time scheduler ---------------------------------------------

    def _block(
        self, rank: int, site: str, deadline: float | None, *, wait: bool = False
    ) -> None:
        """Register ``rank``'s block -- until ``deadline`` and/or (``wait``)
        until a write lands in its store; the caller yields next."""
        if self._wedge is not None:
            raise DeadlockError(
                f"asyncio transport already wedged at t={self.now:.4f}",
                sim_time=self.now,
            )
        generation = self._generation[rank]
        if deadline is not None:
            heappush(self._heap, (deadline, next(self._seq), rank, generation))
        if wait:
            self._waiting[rank] = generation
        self._blocked[rank] = site

    def _sleep(self, rank: int, duration: float, site: str) -> None:
        """Block ``rank`` for ``duration`` virtual us (0 is still a
        deterministic scheduling checkpoint through the heap)."""
        if not duration >= 0.0:  # negative or NaN: either corrupts the heap
            raise ScheduleInPastError(
                f"rank {rank} at {site!r}: duration {duration!r} us is "
                f"negative or not a number"
            )
        self._block(rank, site, self.now + duration)

    def _release(self, rank: int) -> None:
        del self._blocked[rank]
        self._generation[rank] += 1
        self._ready.append(rank)

    def _wake(self, rank: int) -> None:
        """Release ``rank`` if it waits on its store (spurious wake-ups
        only cause predicate re-checks, as with the MPB line watchers)."""
        if self._waiting[rank] == self._generation[rank]:
            self._release(rank)

    def _advance(self, current: int) -> None:
        """The world is quiescent: move the clock to the earliest live
        deadline and release its rank, or declare the wedge.  ``current``
        is the rank that ran last."""
        heap, generations = self._heap, self._generation
        capped = False
        while heap:
            deadline, _, rank, generation = heap[0]
            if generations[rank] != generation:  # released since: stale
                heappop(heap)
                continue
            if deadline > self.time_limit:
                capped = True
                break
            heappop(heap)
            if deadline > self.now:
                self.now = deadline
            self._release(rank)
            return
        if not self._blocked:
            return  # everyone finished
        stuck = tuple(
            (f"rank{r}", site or "blocked", self.now)
            for r, site in self._blocked.items()
        )
        names = ", ".join(sorted(f"{n}@{s}" for n, s, _ in stuck))
        cause = (
            f"next event beyond time_limit={self.time_limit:g} us"
            if capped
            else "no pending event"
        )
        suffix = timeline_suffix(self.faults)
        self._wedge = DeadlockError(
            f"asyncio transport wedged at t={self.now:.4f}: "
            f"{len(stuck)} rank(s) blocked with {cause} ({names}){suffix}",
            stuck=stuck,
            sim_time=self.now,
        )
        order = list(self._blocked)
        if order[-1] == current:  # its own block found the wedge: it goes first
            order.insert(0, order.pop())
        for rank in order:
            self._release(rank)

    # -- the wire: delayed/filtered store access ---------------------------

    def _send(self, src: int, dst: int, op: str, nbytes: int, site: str) -> None:
        """Block ``src`` for the model delay of one operation against
        ``dst``'s store (``op`` ``"flag"``/``"data"``/``"read"``)."""
        delay = self.model.delay(src, dst, op=op, nbytes=nbytes)
        # The mesh hook's countdown, kept on the sender's store: at an
        # armed occurrence the injector may arm LINK_DOWN windows / add
        # stalls.  The asyncio backend counts one "mpb_access" per remote
        # operation (the SCC counts per line batch), so occurrence-based
        # mpb_access specs are not portable across backends -- the
        # write-fault categories the differential plans use are.
        store = self.stores[src]
        n = store.accesses + 1
        if n < store.accesses_arm:
            store.accesses = n
        else:
            delay += self.faults.link_stall(src, dst)
        self._sleep(src, delay, site)

    def _land(self, src: int, dst: int, offset: int, payload: bytes, op: str) -> str:
        """The far end of a remote store, run by the resumed sender: the
        omission filter (local writes always reach the own store), then
        the store's write countdown (and, at an armed write, the fault
        injector) -- the same boundary order as the SCC, where the mesh
        carries the packet and the MPB applies the plan."""
        if src != dst and not self.model.deliver(src, dst, now=self.now):
            return "dropped"
        landed = self.stores[dst].write_bytes(offset, payload, source=src, op=op)
        if landed != "dropped":
            self._wake(dst)
        return landed

    # -- running programs ---------------------------------------------------

    def run(self, program: Callable[["AsyncioTransport"], Generator],
            *, return_exceptions: bool = False) -> list:
        """Run ``program(cc)`` (the same generator the SCC backend runs
        per core) on every rank; returns the per-rank return values.

        Single-shot: build a fresh network per run, like a fresh chip.
        The loop below is the whole scheduler: a rank that returns from
        ``send`` has registered its block, and the world is quiescent
        exactly when the ready queue is empty.
        """
        if self._ran:
            raise RuntimeError("an AsyncioNetwork runs exactly once")
        self._ran = True
        ready, blocked = self._ready, self._blocked
        tasks: list[Generator | None] = [None] * self.size
        results: list = [None] * self.size
        ready.extend(range(self.size))
        while ready:
            rank = ready.popleft()
            try:
                task = tasks[rank]
                if task is None:
                    task = tasks[rank] = program(self.transport(rank))
                if self._wedge is None:
                    task.send(None)
                else:
                    task.throw(self._wedge)
            except StopIteration as stop:
                results[rank] = stop.value
            except Exception as exc:  # noqa: BLE001 - the rank's result
                results[rank] = exc
            else:
                if rank not in blocked:
                    raise TypeError(
                        f"rank {rank} yielded outside a transport primitive"
                    )
            if not ready and self._wedge is None:
                self._advance(rank)
        if not return_exceptions:
            for res in results:
                if isinstance(res, BaseException):
                    raise res
        return results


class AsyncioTransport(Endpoint):
    """Per-rank endpoint over :class:`AsyncioNetwork`: the asyncio
    backend of :class:`~repro.rcce.endpoint.Endpoint`.

    Every primitive registers one block with the network and yields
    once, one wire operation each; protocol code cannot tell the
    difference from the SCC's simulator events.  There is no chip model:
    local memory and own-store accesses cost a zero-delay scheduling
    checkpoint, polls cost nothing but their duration, and ``_wait``
    ignores ``detect_cost`` (the SCC's sweep-shaped detection delay).
    """

    def __init__(self, net: AsyncioNetwork, rank: int) -> None:
        self.comm = net
        self.net = net
        self.rank = rank
        self.tracer = net.tracer
        self.metrics = None  # no registry on this backend: metric calls no-op
        self._mem = PrivateMemory(
            SimpleNamespace(private_mem_bytes=_PRIVATE_MEM_BYTES), rank
        )

    # -- identity, clock, fault injector ------------------------------------

    @property
    def core_id(self) -> int:
        return self.rank

    @property
    def now(self) -> float:
        return self.net.now

    @property
    def t_poll(self) -> float:
        return 0.25

    @property
    def faults(self) -> FaultInjector | None:
        return self.net.faults

    # -- memory / compute ---------------------------------------------------

    def alloc(self, nbytes: int) -> MemRef:
        return self._mem.alloc(nbytes)

    def compute(self, duration: float) -> Generator:
        self.net._sleep(self.rank, duration, "compute")
        yield

    def mem_read(self, ref: MemRef) -> Generator:
        self._own(ref, "mem_read")
        self.net._sleep(self.rank, 0.0, "mem_read")
        yield

    def mem_write(self, ref: MemRef) -> Generator:
        self._own(ref, "mem_write")
        self.net._sleep(self.rank, 0.0, "mem_write")
        yield

    def mpb_charge_local(self, lines: int, *, write: bool = False) -> Generator:
        self.net._sleep(self.rank, 0.0, "mpb_local")
        yield

    def read_local(self, offset: int, nbytes: int) -> bytes:
        return self.net.stores[self.rank].read_bytes(offset, nbytes)

    def _own(self, ref: MemRef, what: str) -> None:
        if ref.owner != self.rank:
            raise ValueError(f"{what} operates on this rank's memory only")

    # -- one-sided RMA ------------------------------------------------------

    def put(
        self, dst_rank: int, dst_offset: int, src: "MemRef | int", nbytes: int
    ) -> Generator:
        """Source bytes are a private-memory buffer (must be this rank's)
        or an offset into this rank's own store (store-to-store
        forwarding, as in the one-sided ring)."""
        dst = self.net.core_of(dst_rank)
        if isinstance(src, MemRef):
            self._own(src, "put")
            if nbytes > src.nbytes:
                raise ValueError(f"put of {nbytes} bytes from {src.nbytes}-byte buffer")
        payload = self._local_bytes(src, nbytes)
        landed = yield from self._store(
            dst, dst_offset, payload, "data", f"mpb{dst}@{dst_offset}"
        )
        self._emit("put", dst=dst, off=dst_offset, n=nbytes, landed=landed)

    def get(
        self, src_rank: int, src_offset: int, dst: "MemRef | int", nbytes: int
    ) -> Generator:
        src = self.net.core_of(src_rank)
        payload = yield from self._load(
            src, src_offset, nbytes, f"mpb{src}@{src_offset}"
        )
        if isinstance(dst, MemRef):
            self._own(dst, "get")
            if nbytes > dst.nbytes:
                raise ValueError(f"get of {nbytes} bytes into {dst.nbytes}-byte buffer")
            dst.sub(0, nbytes).write(payload)
            landed = "ok"
        else:
            # Deposit into the own store: a protocol write, hence faultable
            # exactly like the SCC's own-MPB deposit path.
            landed = self.net.stores[self.rank].write_bytes(
                dst, payload, source=self.rank, op="data"
            )
            if landed != "dropped":
                self.net._wake(self.rank)
        self._emit("get", src=src, off=src_offset, n=nbytes, landed=landed)

    def _store(
        self, owner: int, off: int, payload: bytes, op: str, site: str
    ) -> Generator[object, object, str]:
        net = self.net
        net._send(self.rank, owner, op, len(payload), site)
        yield
        return net._land(self.rank, owner, off, payload, op)

    _store_each = store_loop

    def _load(
        self, owner: int, off: int, nbytes: int, site: str
    ) -> Generator[object, object, bytes]:
        """A remote read (RMA pull): delayed, never dropped."""
        net = self.net
        net._send(self.rank, owner, "read", nbytes, site)
        yield
        return net.stores[owner].read_bytes(off, nbytes)

    _readback = _load  # no call overhead to leave out

    def _verify_get(
        self, src: int, src_offset: int, dst: "MemRef | int", nbytes: int, site: str
    ) -> Generator[object, object, bool]:
        """Re-read the source lines over the wire and compare them with
        the (untimed) local deposit."""
        want = yield from self._load(src, src_offset, nbytes, site)
        return self._local_bytes(dst, nbytes) == want

    # -- polling ------------------------------------------------------------

    def _poll(self, duration: float, site: str) -> Generator:
        self.net._sleep(self.rank, duration, site)
        yield

    def _wait(
        self,
        check: Callable[[], Any],
        offsets: Sequence[int],
        detect_cost: float,
        timeout: float | None,
        site: str,
    ) -> Generator:
        """Every write into the own store wakes the waiter, whatever its
        line; spurious wake-ups only re-run ``check``.  The SCC wait
        ordering is preserved: the predicate is evaluated before any
        deadline test, so a wait satisfied exactly at (or entered with
        an exhausted) budget still succeeds."""
        val = check()
        if val is not None:
            return val
        net = self.net
        deadline = None if timeout is None else net.now + timeout
        while True:
            if deadline is not None and net.now >= deadline:
                raise self._poll_budget_exhausted(site, timeout)
            net._block(self.rank, site, deadline, wait=True)
            yield
            val = check()
            if val is not None:
                return val

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AsyncioTransport rank={self.rank}>"
