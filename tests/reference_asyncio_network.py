"""The Task/Future asyncio scheduler, kept as the ordering oracle for the direct one.

This is ``repro.transport.asyncio_backend`` as it stood before the
network started stepping the rank generators itself: every rank an
``asyncio`` Task, every block a ``Future`` on the stdlib event loop, the
virtual clock advanced from ``_maybe_advance`` when the ``_active`` /
``_pending`` counters say the world is quiescent.  ``AsyncioNetwork``
and ``AsyncioTransport`` are that commit's classes verbatim (only the
imports are absolute, and the transport has the one primitive declared
since, ``_store_each``, as the shared loop over its own ``_store``), so
nothing the oracle schedules goes through the
code under test -- the stores, models, injector and ``Endpoint`` are
shared.  ``tests/differential/test_scheduler_equivalence.py`` drives
both side by side.
"""

from __future__ import annotations

import asyncio
import itertools
from heapq import heappop, heappush
from types import SimpleNamespace
from typing import Any, Callable, Generator, Sequence

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.rcce.endpoint import Endpoint, store_loop, timeline_suffix
from repro.rcce.flags import Flag
from repro.rcce.layout import MpbLayout
from repro.scc.config import MPB_BYTES, MPB_LINES
from repro.scc.memory import MemRef, PrivateMemory
from repro.scc.mpb import ByteStore
from repro.sim.errors import DeadlockError
from repro.sim.trace import Tracer
from repro.transport.models import DelayModel, NoDelay

_PRIVATE_MEM_BYTES = 16 * 1024 * 1024


class RankStore(ByteStore):
    """One rank's shared message store (the asyncio stand-in for an MPB):
    the :class:`~repro.scc.mpb.ByteStore` write-classification contract
    with no access port, so a :class:`FaultInjector` attaches unchanged."""

    def __init__(self, owner: int, size: int = MPB_BYTES) -> None:
        super().__init__(owner, size)


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
        self.mesh = SimpleNamespace(injector=None)
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

        # -- virtual clock ------------------------------------------------
        self.now = 0.0
        self._heap: list[tuple[float, int, asyncio.Future]] = []
        self._seq = itertools.count()
        self._active = 0
        self._pending = 0
        self._blocked: dict[asyncio.Future, tuple[int, str]] = {}
        self._watchers: list[list[asyncio.Future]] = [[] for _ in range(nranks)]
        self._wedged = False
        self._loop: asyncio.AbstractEventLoop | None = None
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

    # -- virtual clock ------------------------------------------------------

    def _fire(self, fut: asyncio.Future, exc: BaseException | None = None) -> None:
        if fut.done():
            return
        self._pending += 1
        if exc is not None:
            fut.set_exception(exc)
        else:
            fut.set_result(None)

    async def _block(self, fut: asyncio.Future, rank: int, site: str) -> None:
        if self._wedged and not fut.done():
            raise DeadlockError(
                f"asyncio transport already wedged at t={self.now:.4f}",
                sim_time=self.now,
            )
        self._blocked[fut] = (rank, site)
        self._active -= 1
        self._maybe_advance()
        try:
            await fut
        finally:
            self._blocked.pop(fut, None)
            self._pending -= 1
            self._active += 1

    def _maybe_advance(self) -> None:
        if self._active > 0 or self._pending > 0 or self._wedged:
            return
        capped = False
        while self._heap:
            deadline, _, fut = self._heap[0]
            if fut.done():
                heappop(self._heap)
                continue
            if deadline > self.time_limit:
                capped = True
                break
            heappop(self._heap)
            if deadline > self.now:
                self.now = deadline
            self._fire(fut)
            return
        if not self._blocked:
            return  # everyone finished
        self._wedged = True
        stuck = tuple(
            (f"rank{r}", site or "blocked", self.now)
            for r, site in self._blocked.values()
        )
        names = ", ".join(sorted(f"{n}@{s}" for n, s, _ in stuck))
        cause = (
            f"next event beyond time_limit={self.time_limit:g} us"
            if capped
            else "no pending event"
        )
        suffix = timeline_suffix(self.faults)
        err = DeadlockError(
            f"asyncio transport wedged at t={self.now:.4f}: "
            f"{len(stuck)} rank(s) blocked with {cause} ({names}){suffix}",
            stuck=stuck,
            sim_time=self.now,
        )
        for fut in list(self._blocked):
            self._fire(fut, err)

    async def sleep(self, rank: int, duration: float, site: str = "compute") -> None:
        """Advance this rank by ``duration`` virtual us (0 still yields a
        deterministic scheduling checkpoint through the heap)."""
        assert self._loop is not None
        fut = self._loop.create_future()
        heappush(self._heap, (self.now + max(0.0, duration), next(self._seq), fut))
        await self._block(fut, rank, site)

    async def wait_until(
        self,
        rank: int,
        check: Callable[[], Any],
        *,
        timeout: float | None = None,
        site: str = "",
    ) -> Any:
        """Block ``rank`` until ``check()`` returns non-``None``; the SCC
        wait ordering is preserved: the predicate is evaluated before any
        deadline test, so a wait satisfied exactly at (or entering with
        an exhausted) budget still succeeds."""
        assert self._loop is not None
        val = check()
        if val is not None:
            return val
        deadline = None if timeout is None else self.now + timeout
        while True:
            if deadline is not None and self.now >= deadline:
                raise self.transport(rank)._poll_budget_exhausted(site, timeout)
            fut = self._loop.create_future()
            self._watchers[rank].append(fut)
            if deadline is not None:
                heappush(self._heap, (deadline, next(self._seq), fut))
            try:
                await self._block(fut, rank, site)
            finally:
                try:
                    self._watchers[rank].remove(fut)
                except ValueError:
                    pass
            val = check()
            if val is not None:
                return val

    def _wake(self, rank: int) -> None:
        """Fire every watcher of ``rank``'s store (spurious wake-ups only
        cause predicate re-checks, as with the MPB line watchers)."""
        watchers = self._watchers[rank]
        if not watchers:
            return
        self._watchers[rank] = []
        for fut in watchers:
            self._fire(fut)

    # -- the wire: delayed/filtered store access ---------------------------

    async def _write(
        self, src: int, dst: int, offset: int, payload: bytes, *, op: str, site: str
    ) -> str:
        """One remote store: model delay, then the omission filter (local
        writes always reach the own store), then the fault injector
        inside the store -- the same boundary order as the SCC, where the
        mesh carries the packet and the MPB applies the plan."""
        delay = self.model.delay(src, dst, op=op, nbytes=len(payload))
        if self.faults is not None:
            # The mesh hook: may arm LINK_DOWN windows / add stalls.  The
            # asyncio backend counts one "mpb_access" per remote operation
            # (the SCC mesh counts per line batch), so occurrence-based
            # mpb_access specs are not portable across backends -- the
            # write-fault categories the differential plans use are.
            delay += self.faults.link_stall(src, dst)
        await self.sleep(src, delay, site=site)
        if src != dst and not self.model.deliver(src, dst, now=self.now):
            return "dropped"
        landed = self.stores[dst].write_bytes(offset, payload, source=src, op=op)
        if landed != "dropped":
            self._wake(dst)
        return landed

    async def _read(
        self, src: int, dst: int, offset: int, nbytes: int, *, site: str
    ) -> bytes:
        """A remote read (RMA pull): delayed, never dropped."""
        delay = self.model.delay(src, dst, op="read", nbytes=nbytes)
        if self.faults is not None:
            delay += self.faults.link_stall(src, dst)
        await self.sleep(src, delay, site=site)
        return self.stores[dst].read_bytes(offset, nbytes)

    # -- running programs ---------------------------------------------------

    def run(self, program: Callable[["AsyncioTransport"], Generator],
            *, return_exceptions: bool = False) -> list:
        """Run ``program(cc)`` (the same generator the SCC backend runs
        per core) on every rank; returns the per-rank return values.

        Single-shot: build a fresh network per run, like a fresh chip.
        """
        if self._ran:
            raise RuntimeError("an AsyncioNetwork runs exactly once")
        self._ran = True

        async def main() -> list:
            self._loop = asyncio.get_running_loop()
            self._active = self.size
            tasks = [
                self._loop.create_task(
                    self._runner(rank, program), name=f"rank{rank}"
                )
                for rank in range(self.size)
            ]
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = asyncio.run(main())
        if not return_exceptions:
            for res in results:
                if isinstance(res, BaseException):
                    raise res
        return list(results)

    async def _runner(self, rank: int, program) -> Any:
        try:
            return await self._drive(program(self.transport(rank)))
        finally:
            self._active -= 1
            self._maybe_advance()

    async def _drive(self, gen: Generator) -> Any:
        """Trampoline a protocol generator: every yielded item is an
        awaitable from this network; its result (or exception) is fed
        back into the generator frame, so protocol-level ``try/except``
        around ``yield from`` works exactly as on the SCC."""
        to_send: Any = None
        exc: BaseException | None = None
        while True:
            try:
                if exc is not None:
                    pending, exc = exc, None
                    item = gen.throw(pending)
                else:
                    item = gen.send(to_send)
            except StopIteration as stop:
                return stop.value
            to_send = None
            try:
                to_send = await item
            except Exception as caught:  # noqa: BLE001 - re-thrown into gen
                exc = caught


class AsyncioTransport(Endpoint):
    """Per-rank endpoint over :class:`AsyncioNetwork`: the asyncio
    backend of :class:`~repro.rcce.endpoint.Endpoint`.

    Every primitive yields coroutines for the driving trampoline to
    await, one wire operation each; protocol code cannot tell the
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
        yield self.net.sleep(self.rank, duration)

    def mem_read(self, ref: MemRef) -> Generator:
        self._own(ref, "mem_read")
        yield self.net.sleep(self.rank, 0.0, site="mem_read")

    def mem_write(self, ref: MemRef) -> Generator:
        self._own(ref, "mem_write")
        yield self.net.sleep(self.rank, 0.0, site="mem_write")

    def mpb_charge_local(self, lines: int, *, write: bool = False) -> Generator:
        yield self.net.sleep(self.rank, 0.0, site="mpb_local")

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
        landed = yield self.net._write(
            self.rank, dst, dst_offset, payload, op="data",
            site=f"mpb{dst}@{dst_offset}",
        )
        self._emit("put", dst=dst, off=dst_offset, n=nbytes, landed=landed)

    def get(
        self, src_rank: int, src_offset: int, dst: "MemRef | int", nbytes: int
    ) -> Generator:
        src = self.net.core_of(src_rank)
        payload = yield self.net._read(
            self.rank, src, src_offset, nbytes, site=f"mpb{src}@{src_offset}"
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
        landed = yield self.net._write(
            self.rank, owner, off, payload, op=op, site=site
        )
        return landed

    _store_each = store_loop

    def _load(
        self, owner: int, off: int, nbytes: int, site: str
    ) -> Generator[object, object, bytes]:
        raw = yield self.net._read(self.rank, owner, off, nbytes, site=site)
        return raw

    _readback = _load  # no call overhead to leave out

    def _verify_get(
        self, src: int, src_offset: int, dst: "MemRef | int", nbytes: int, site: str
    ) -> Generator[object, object, bool]:
        """Re-read the source lines over the wire and compare them with
        the (untimed) local deposit."""
        want = yield self.net._read(self.rank, src, src_offset, nbytes, site=site)
        return self._local_bytes(dst, nbytes) == want

    # -- polling ------------------------------------------------------------

    def _poll(self, duration: float, site: str) -> Generator:
        yield self.net.sleep(self.rank, duration, site=site)

    def _wait(
        self,
        check: Callable[[], Any],
        offsets: Sequence[int],
        detect_cost: float,
        timeout: float | None,
        site: str,
    ) -> Generator:
        # Every write into the own store wakes the waiter, whatever its
        # line; spurious wake-ups only re-run ``check``.
        got = yield self.net.wait_until(self.rank, check, timeout=timeout, site=site)
        return got

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AsyncioTransport rank={self.rank}>"
