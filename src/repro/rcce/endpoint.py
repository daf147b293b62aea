"""The per-rank protocol endpoint: the flag/RMA protocol surface, once.

Every protocol in this repo (OC-Bcast, the membership/election/RBC
services, the OC collectives) is a generator coroutine that talks to one
object, its rank's :class:`Endpoint`, with ``yield from cc.method(...)``.
Everything above raw byte movement lives here, written once: plain and
acknowledged flag/slot/vote writes, acked puts and verified gets, polls,
the flag/slot/quorum wait predicates, trace and metric emission, the
fault/adversary hooks.  A backend (:class:`repro.rcce.comm.CoreComm` on
the chip simulator, :class:`repro.transport.asyncio_backend.AsyncioTransport`
on the event loop) subclasses it and supplies only the members named in
:attr:`Endpoint.PRIMITIVES`.  What the generators yield underneath is
backend-private (simulator events on the SCC, a bare ``yield`` on asyncio);
protocol code may rely only on arguments, return values and raised
exceptions (:class:`~repro.sim.errors.TimeoutError` carrying ``site``,
:class:`~repro.sim.errors.FaultInjected`, ``ValueError`` on misuse).
Timing may differ arbitrarily between backends; *decisions* (the trace
kinds of :mod:`repro.transport.decisions`) must not.

Polling cost model
------------------
A core waiting on flags continuously sweeps them, each flag read costing
``t_poll``.  Simulating every sweep would explode the event count, so the
``_wait`` primitive is event-driven -- it sleeps until a write touches a
watched line -- and charges the *detection delay* a sweep would add: on
the wake-up that satisfies the predicate the waiter pays ``detect_cost``,
half a sweep plus one flag read (:func:`repro.scc.costs.poll_detect`).
This reproduces the paper's observation that large ``k`` makes the root
slow to notice its 47 doneFlags, while keeping waits O(#writes) in
events.  (A backend without a polling model may ignore ``detect_cost``.)

Fault tolerance
---------------
Plain flag waits spin forever if the awaited write was lost (the SCC's
MPB stores are unacknowledged), which turns a single dropped write into
a whole-program deadlock.  Two escape hatches, both opt-in:

- every wait takes a ``timeout`` (a polling budget in virtual
  microseconds); an expired budget raises
  :class:`repro.sim.TimeoutError` naming the waiting core, the site and
  the time, instead of spinning silently;
- the ``*_acked`` writes read the written lines back and re-send until
  they verify (bounded and paced by their ``retry``
  :class:`~repro.resilience.policy.RetryPolicy`), converting the
  fire-and-forget store into an acknowledged one at the cost of one
  remote read per attempt -- the per-write robustness tax of the FT
  protocols.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Callable, Generator, Sequence

from ..resilience.policy import IMMEDIATE, RetryPolicy
from ..scc.config import CACHE_LINE
from ..scc.costs import poll_detect
from ..scc.memory import MemRef
from ..sim.errors import TimeoutError as SimTimeoutError
from .flags import DigestSlotArray, Flag, FlagSlotArray, FlagValue

# Histogram bucket bounds (us) for backoff pauses inserted by retry
# policies; coarse decades matching the simulated RMA cost scale.
_BACKOFF_BOUNDS = (10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0)

_SCC_ONLY = "two-sided send/recv is SCC-backend-only"


def timeline_suffix(faults: Any) -> str:
    """The injector's fault timeline (if any), for error messages."""
    text = faults.timeline_text() if faults is not None else ""
    return f"\n{text}" if text else ""


def store_loop(
    cc: "Endpoint",
    stores: Sequence[tuple[int, int, bytes, str, str]],
    landed: Callable[[int, str], object],
) -> Generator:
    """The ``_store_each`` primitive as the loop over ``cc._store``: a
    correct implementation on any backend."""
    for i, store in enumerate(stores):
        landed(i, (yield from cc._store(*store)))


class Endpoint:
    """One rank's view of the communication world.

    The backend contract.  Instance attributes set in ``__init__``:
    ``rank``, ``comm`` (the world object: ``size``, ``core_of(rank)``,
    ``flag(name)``, ``layout``, ``transport_faults``), ``tracer`` and
    ``metrics`` (:class:`~repro.obs.MetricsRegistry` or ``None``) --
    both fixed for the life of a world, so plain attributes keep the
    per-write trace/metric guards free of calls.  Class members,
    :attr:`PRIMITIVES` (stores are addressed by *core id*,
    ``comm.core_of(rank)``; ``site`` labels the operation in stuck-rank
    diagnostics):

    - ``core_id``, ``now`` (virtual us), ``t_poll`` (cost of one flag
      poll) -- identity and clock;
    - ``faults`` -- the attached :class:`~repro.faults.FaultInjector` or
      ``None`` (a property: an injector may attach after the endpoint
      exists);
    - ``alloc(nbytes)``, ``compute(us)``, ``mem_read(ref)``,
      ``mem_write(ref)``, ``mpb_charge_local(lines, write=)`` -- private
      memory and the timed cost of touching own memory / own store;
    - ``read_local(off, n)`` -- untimed read of the own store;
    - ``put(dst_rank, dst_off, src, n)``, ``get(src_rank, src_off, dst,
      n)`` -- bulk one-sided RMA, tracing ``put``/``get`` records;
    - ``_store(owner, off, payload, op, site) -> landed`` -- one timed
      register-sourced protocol write (``op`` ``"flag"``/``"data"``);
    - ``_store_each(stores, landed)`` -- ``_store(*store)`` of each
      one-line ``store`` in turn, back to back, calling ``landed(i,
      status)`` at the instant store ``i`` lands (the fan-out of
      :meth:`vote_cast`; :func:`store_loop` is a correct one);
    - ``_load(owner, off, n, site) -> bytes`` -- one timed
      register-destined read, call overhead included; ``_readback`` --
      the same read as the ack leg of a write just issued;
    - ``_verify_get(src, src_off, dst, n, site) -> bool`` -- the timed
      check that a just-fetched ``dst`` matches the source lines;
    - ``_poll(us, site)`` -- a poll-shaped compute;
    - ``_wait(check, offsets, detect_cost, timeout, site)`` -- block
      until ``check()`` is not ``None`` and return that value; re-check
      whenever a write touches the own-store line of one of ``offsets``;
      test the predicate *before* the deadline, so a wait satisfied
      exactly at (or entered with) an exhausted budget still succeeds;
      on expiry raise :meth:`_poll_budget_exhausted`.
    """

    PRIMITIVES = (
        "core_id", "now", "t_poll", "faults",
        "alloc", "compute", "mem_read", "mem_write", "mpb_charge_local",
        "read_local", "put", "get",
        "_store", "_store_each", "_load", "_readback", "_verify_get",
        "_poll", "_wait",
    )

    rank: int
    comm: Any
    tracer: Any
    metrics: Any

    # -- identity ------------------------------------------------------------

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def tracer_enabled(self) -> bool:
        return self.tracer.enabled

    @property
    def has_faults(self) -> bool:
        """Whether a fault injector is attached to this backend."""
        return self.faults is not None

    # -- observability and fault/adversary hooks -------------------------------

    # Record sources, formatted once per endpoint (both are fixed for its
    # life): a traced run emits thousands of records per rank.

    @cached_property
    def _core_source(self) -> str:
        return f"core{self.core_id}"

    @cached_property
    def _rank_source(self) -> str:
        return f"rank{self.rank}"

    def _emit(self, kind: str, **detail: object) -> None:
        """One wire-level trace record, as ``core{core_id}``."""
        if self.tracer.enabled:
            self.tracer.emit(self.now, self._core_source, kind, **detail)

    def trace(self, kind: str, **detail: object) -> None:
        """Emit one protocol trace record as ``rank{rank}``.  The
        transport fault layer (differential crash coordinates) hooks
        here; it may raise :class:`repro.sim.FaultInjected`."""
        tf = self.comm.transport_faults
        if tf is not None:
            tf.on_trace(self.rank, kind, detail)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(self.now, self._rank_source, kind, **detail)

    def metric_inc(self, name: str, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, n)

    def metric_set(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.set(name, value)

    def observe_histogram(self, name: str, bounds, value: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name, bounds).observe(value)

    def adversary_stage(self):
        """The Byzantine staging hook (EQUIVOCATE window), or ``None``."""
        faults = self.faults
        return None if faults is None else faults.adversary_stage(self.core_id)

    def quorum_vote(self):
        """The Byzantine vote hook (FORGE/LIE specs), or ``None``."""
        faults = self.faults
        return None if faults is None else faults.quorum_vote(self.core_id)

    def note_recovery(self, site: str, note: str = "") -> None:
        if self.faults is not None:
            self.faults.note_recovery(site, note=note)

    def first_fault_time(self) -> float | None:
        """Time of the first injected fault, or ``None`` (repair
        telemetry baselines)."""
        faults = self.faults
        if faults is not None and faults.injected:
            return faults.injected[0].time
        return None

    # -- memory ------------------------------------------------------------------

    def _local_bytes(self, where: "MemRef | int", nbytes: int) -> bytes:
        """Untimed bytes of an RMA endpoint on this side: a private-memory
        buffer or an offset into the own store."""
        if isinstance(where, MemRef):
            return where.sub(0, nbytes).read()
        return self.read_local(int(where), nbytes)

    def local_copy(self, dst: MemRef, src: MemRef, nbytes: int) -> Generator:
        """Timed private-memory-to-private-memory copy on this core."""
        if src.owner != self.core_id or dst.owner != self.core_id:
            raise ValueError("local_copy operates on this core's memory only")
        if nbytes < 0 or nbytes > src.nbytes or nbytes > dst.nbytes:
            raise ValueError(f"bad local_copy length {nbytes}")
        if nbytes == 0:
            return
        yield from self.mem_read(src.sub(0, nbytes))
        yield from self.mem_write(dst.sub(0, nbytes))
        dst.sub(0, nbytes).write(src.sub(0, nbytes).read())

    # -- the one acknowledged-write loop ------------------------------------------

    def _acked(
        self,
        site: str,
        send: Callable[[], Generator],
        readback: Callable[[], Generator],
        accept: Callable[[Any], object],
        kind: str,
        what: Callable[[], str],
        note: str,
        retry: RetryPolicy,
        **detail: object,
    ) -> Generator:
        """Run ``send()`` then the timed ack leg ``readback()`` until
        ``accept`` judges what it read true (that value is returned),
        re-sending on ``retry``'s schedule (a zero pause inserts no
        event).  A success after re-sending emits ``kind`` and records a
        recovery under ``site``; exhaustion raises
        :class:`repro.sim.TimeoutError` ("``what()`` after N
        attempts"; formatted only then -- acked writes are hot) -- the
        peer is presumed unreachable."""
        delays = retry.delays(self.core_id, site)
        for attempt in range(len(delays) + 1):
            if attempt and delays[attempt - 1] > 0.0:
                delay = delays[attempt - 1]
                self._emit("retry_backoff", site=site, delay=delay)
                self.metric_inc("resilience.backoffs")
                self.observe_histogram(
                    "resilience.backoff_us", _BACKOFF_BOUNDS, delay
                )
                yield from self.compute(delay)
            yield from send()
            acked = accept((yield from readback()))
            if acked:
                if attempt:
                    self._emit(kind, attempts=attempt + 1, **detail)
                    self.note_recovery(site, note=f"{note} x{attempt}")
                    self.metric_inc("resilience.retry_ok")
                return acked
        raise SimTimeoutError(
            f"core {self.core_id}: {what()} after {len(delays) + 1} attempts at "
            f"t={self.now:.4f}{timeline_suffix(self.faults)}",
            process=f"core{self.core_id}",
            sim_time=self.now,
            site=site,
        )

    def _poll_budget_exhausted(
        self, site: str, timeout: float | None
    ) -> SimTimeoutError:
        """The error an expired ``_wait`` budget raises."""
        return SimTimeoutError(
            f"core {self.core_id} exhausted its {timeout}-us poll budget "
            f"waiting on {site!r} at t={self.now:.4f}"
            f"{timeline_suffix(self.faults)}",
            process=f"core{self.core_id}",
            sim_time=self.now,
            site=site,
        )

    # -- one-sided ------------------------------------------------------------------

    def put_acked(
        self,
        dst_rank: int,
        dst_offset: int,
        src: "MemRef | int",
        nbytes: int,
        *,
        retry: RetryPolicy = IMMEDIATE,
    ) -> Generator:
        """A :meth:`put` with an acknowledgment: read the destination
        lines back and re-send the whole transfer until they match.  The
        verification read doubles the MPB traffic of the put -- the
        data-path robustness tax, paid only when a protocol opts in."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if nbytes == 0:
            return
        dst = self.comm.core_of(dst_rank)
        site = f"mpb{dst}@{dst_offset}"
        yield from self._acked(
            site,
            lambda: self.put(dst_rank, dst_offset, src, nbytes),
            lambda: self._readback(dst, dst_offset, nbytes, site),
            lambda raw: raw == self._local_bytes(src, nbytes),
            "put_retry_ok",
            lambda: f"put of {nbytes} B to core {dst}@{dst_offset} un-acked",
            f"{nbytes}B re-sent", retry,
            dst=dst, off=dst_offset,
        )

    def get_acked(
        self,
        src_rank: int,
        src_offset: int,
        dst: "MemRef | int",
        nbytes: int,
        *,
        retry: RetryPolicy = IMMEDIATE,
    ) -> Generator:
        """A :meth:`get` with verification: re-fetch until the backend's
        ``_verify_get`` finds the destination matching the source lines
        (the vulnerable leg of a get is the deposit into the caller's own
        store -- an unacknowledged write like any other)."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if nbytes == 0:
            return
        src = self.comm.core_of(src_rank)
        site = f"mpb{src}@{src_offset}"
        yield from self._acked(
            site,
            lambda: self.get(src_rank, src_offset, dst, nbytes),
            lambda: self._verify_get(src, src_offset, dst, nbytes, site),
            bool,
            "get_retry_ok",
            lambda: f"get of {nbytes} B from core {src}@{src_offset} unverified",
            f"{nbytes}B re-fetched", retry,
            src=src, off=src_offset,
        )

    def put_bytes(
        self, dst_rank: int, dst_offset: int, payload: bytes
    ) -> Generator[object, object, str]:
        """A small register-sourced protocol write (chunk headers,
        membership bitmaps): metadata that is *computed* rather than
        staged, so only the destination write is charged.  It is a
        protocol (``op="data"``) write, subject to fault injection like
        any other payload line.  Returns the landed status."""
        if not payload:
            return "ok"
        dst = self.comm.core_of(dst_rank)
        landed = yield from self._store(
            dst, dst_offset, payload, "data", f"mpb{dst}@{dst_offset}"
        )
        self._emit(
            "put_bytes", dst=dst, off=dst_offset, n=len(payload), landed=landed
        )
        return landed

    def get_bytes(
        self, src_rank: int, src_offset: int, nbytes: int
    ) -> Generator[object, object, bytes]:
        """A small register-destined read of ``src_rank``'s lines (remote
        chunk headers, membership bitmaps on a view change).  Nothing is
        deposited, so the read *cannot be faulted into a silent
        corruption* -- there is no protocol write to intercept."""
        if nbytes <= 0:
            raise ValueError("get_bytes needs nbytes > 0")
        src = self.comm.core_of(src_rank)
        return (
            yield from self._load(src, src_offset, nbytes, f"mpb{src}@{src_offset}")
        )

    # -- flags -------------------------------------------------------------------------

    def flag_set(self, owner_rank: int, flag: Flag, value: FlagValue) -> Generator:
        """Write ``value`` into ``flag`` in ``owner_rank``'s MPB (a 1-line
        put whose source is a register, so no source read)."""
        owner = self.comm.core_of(owner_rank)
        landed = yield from self._store(
            owner, flag.offset, value.encode(), "flag", f"{flag.name}@core{owner}"
        )
        if self.tracer.enabled:
            self._emit(
                "flag_write", flag=flag.name, owner=owner, off=flag.offset,
                tag=value.tag, seq=value.seq, landed=landed,
            )
        if self.metrics is not None:
            self.metrics.inc("flags.writes")
            if landed != "ok":
                self.metrics.inc(f"flags.writes_{landed}")

    def flag_set_acked(
        self,
        owner_rank: int,
        flag: Flag,
        value: FlagValue,
        *,
        retry: RetryPolicy = IMMEDIATE,
    ) -> Generator[object, object, FlagValue]:
        """Acknowledged flag write; returns the verified line.  Any state
        at least as new as ``value`` acks (another writer may
        legitimately have advanced a monotonic flag further)."""
        owner = self.comm.core_of(owner_rank)
        site = f"{flag.name}@core{owner}"

        def accept(raw: bytes) -> "FlagValue | None":
            got = FlagValue.decode(raw)
            return got if got.tag == value.tag and got.seq >= value.seq else None

        return (yield from self._acked(
            site,
            lambda: self.flag_set(owner_rank, flag, value),
            lambda: self._readback(owner, flag.offset, CACHE_LINE, site),
            accept,
            "flag_write_retry_ok",
            lambda: f"flag write {flag.name!r} to core {owner} un-acked",
            "flag re-sent", retry,
            flag=flag.name, owner=owner,
        ))

    def flag_poll(self, flag: Flag) -> Generator[object, object, FlagValue]:
        """One timed poll of this core's own copy of ``flag``."""
        yield from self._poll(self.t_poll, flag.name)
        return self.flag_peek(flag)

    def flag_peek(self, flag: Flag) -> FlagValue:
        """Untimed read of this endpoint's own copy of ``flag``."""
        return FlagValue.decode(self.read_local(flag.offset, CACHE_LINE))

    def wait_flags(
        self,
        flags: Sequence[Flag],
        predicate: Callable[[Sequence[FlagValue]], bool],
        *,
        sweep_flags: int | None = None,
        timeout: float | None = None,
        site: str = "",
    ) -> Generator[object, object, list[FlagValue]]:
        """Block until ``predicate(values)`` holds over the own copies of
        ``flags``; returns the satisfying values.

        ``sweep_flags`` overrides the number of flags the core is
        sweeping (for algorithms that poll a superset of the flags the
        predicate needs).  ``timeout`` bounds the wait; on expiry
        :class:`repro.sim.TimeoutError` carries the waiting core,
        ``site`` (defaults to the flag names) and the time -- the FT
        protocols build their retry and crash-suspicion logic on this.
        """
        if not flags:
            return []
        read, decode = self.read_local, FlagValue.decode
        offsets = [f.offset for f in flags]

        def check() -> "list[FlagValue] | None":
            vals = [decode(read(off, CACHE_LINE)) for off in offsets]
            return vals if predicate(vals) else None

        nscan = sweep_flags if sweep_flags is not None else len(flags)
        yield from self._wait(
            check, offsets, poll_detect(self.t_poll, nscan),
            timeout, site or "+".join(f.name for f in flags),
        )
        # As of now, not of the wake-up: the detection delay has passed.
        return [decode(read(off, CACHE_LINE)) for off in offsets]

    def wait_flag_equals(self, flag: Flag, value: FlagValue) -> Generator:
        """Block until own copy of ``flag`` equals ``value`` exactly (the
        ledger's ``rcce.flag_ops_per_s`` probe round-trips through it)."""
        yield from self.wait_flags([flag], lambda v: v[0] == value)

    # -- sequence-number slot arrays (heartbeats, claims, ring) -----------------------

    def slot_write(
        self, array: FlagSlotArray, owner_rank: int, slot: int, value: int
    ) -> Generator:
        """Timed remote write of one slot (costs one 1-line flag put)."""
        owner = self.comm.core_of(owner_rank)
        landed = yield from self._store(
            owner, array.slot_offset(slot), array.encode(value), "flag",
            f"{array.name}[{slot}]@core{owner}",
        )
        self._emit(
            "slot_write", array=array.name, owner=owner, slot=slot,
            value=value, landed=landed,
        )
        self.metric_inc("flags.slot_writes")

    def slot_write_acked(
        self,
        array: FlagSlotArray,
        owner_rank: int,
        slot: int,
        value: int,
        *,
        retry: RetryPolicy = IMMEDIATE,
    ) -> Generator:
        """Acknowledged slot write: only a readback of exactly ``value``
        acks.  Every slot has one writer, so a readback above what it
        just wrote means the write landed corrupted (an inverted small
        value reads larger), and it is re-sent.  The membership
        heartbeats ride on this -- a silently dropped heartbeat would
        otherwise read as a crash and evict a live core."""
        owner = self.comm.core_of(owner_rank)
        site = f"{array.name}[{slot}]@core{owner}"
        yield from self._acked(
            site,
            lambda: self.slot_write(array, owner_rank, slot, value),
            lambda: self._readback(
                owner, array.slot_offset(slot), array.SLOT_BYTES, site
            ),
            lambda raw: array.decode(raw) == value,
            "slot_write_retry_ok",
            lambda: f"slot write {array.name}[{slot}] to core {owner} un-acked",
            "slot re-sent", retry,
            array=array.name, owner=owner, slot=slot,
        )

    def slot_peek(self, array: "FlagSlotArray | DigestSlotArray", slot: int):
        """Untimed read of the own copy of one slot, decoded by the
        array's codec (an ``int``, or ``(seq, digest)`` for a vote)."""
        return array.decode(
            self.read_local(array.slot_offset(slot), array.SLOT_BYTES)
        )

    vote_peek = slot_peek

    def slot_wait_at_least(
        self,
        array: FlagSlotArray,
        slot: int,
        value: int,
        *,
        timeout: float | None = None,
    ) -> Generator[object, object, int]:
        """Wait until the own copy of ``slot`` is >= ``value``; returns
        it.  Wakes on any write to the slot's cache line (sharing a line
        with other slots only causes spurious re-checks, never missed
        wake-ups)."""
        off = array.slot_offset(slot)
        read = self.read_local

        def check() -> int | None:
            current = array.decode(read(off, array.SLOT_BYTES))
            return current if current >= value else None

        yield from self._wait(
            check, (off,), 1.5 * self.t_poll, timeout, f"{array.name}[{slot}]"
        )
        return array.decode(read(off, array.SLOT_BYTES))

    def slot_wait_any_at_least(
        self,
        array: FlagSlotArray,
        slots: Sequence[int],
        value: int,
        *,
        timeout: float,
        site: str = "",
    ) -> Generator[object, object, int]:
        """Wait until *any* own copy of ``slots`` is >= ``value``; returns
        the first satisfying slot (lowest index).  One watched line per
        *distinct cache line* covering the slots.  Always takes a
        ``timeout`` -- the election protocol that rides on this is all
        about bounded waits."""
        if not slots:
            raise ValueError("wait_any_at_least needs at least one slot")
        offs = {s: array.slot_offset(s) for s in sorted(slots)}
        read = self.read_local

        def check() -> int | None:
            for s, off in offs.items():
                if array.decode(read(off, array.SLOT_BYTES)) >= value:
                    return s
            return None

        return (yield from self._wait(
            check, sorted({off - off % CACHE_LINE for off in offs.values()}),
            1.5 * self.t_poll, timeout, site or f"{array.name}[any]",
        ))

    # -- digest vote slots (RBC) ------------------------------------------------------------

    def vote_write(
        self, array: DigestSlotArray, owner_rank: int, slot: int, seq: int,
        digest: int,
    ) -> Generator:
        """Timed remote write of one vote slot (one 1-line flag put)."""
        owner = self.comm.core_of(owner_rank)
        landed = yield from self._store(
            owner, array.slot_offset(slot), array.encode(seq, digest), "flag",
            f"{array.name}[{slot}]@core{owner}",
        )
        self._emit(
            "vote_write", array=array.name, owner=owner, slot=slot, seq=seq,
            digest=digest, landed=landed,
        )
        self.metric_inc("flags.vote_writes")

    def vote_write_acked(
        self,
        array: DigestSlotArray,
        owner_rank: int,
        slot: int,
        seq: int,
        digest: int,
        *,
        retry: RetryPolicy = IMMEDIATE,
    ) -> Generator:
        """Acknowledged vote write.  Digests are not monotonic, so unlike
        a slot write the ack demands an *exact* digest match at this seq
        -- or a later seq, meaning the tally has already moved on and
        this vote is moot anyway."""
        owner = self.comm.core_of(owner_rank)
        site = f"{array.name}[{slot}]@core{owner}"

        def accept(raw: bytes) -> bool:
            got_seq, got_digest = array.decode(raw)
            return got_seq > seq or (got_seq == seq and got_digest == digest)

        yield from self._acked(
            site,
            lambda: self.vote_write(array, owner_rank, slot, seq, digest),
            lambda: self._readback(
                owner, array.slot_offset(slot), array.SLOT_BYTES, site
            ),
            accept,
            "vote_write_retry_ok",
            lambda: f"vote write {array.name}[{slot}] to core {owner} un-acked",
            "vote re-sent", retry,
            array=array.name, owner=owner, slot=slot,
        )

    def vote_cast(
        self, array: DigestSlotArray, slot: int, seq: int, digests: Sequence[int]
    ) -> Generator:
        """:meth:`vote_write` of ``(seq, digests[m])`` into ``slot`` of
        every member ``m``'s copy, in member order -- as one backend store
        run (``_store_each``), each vote still emitting its
        ``vote_write`` record and ``flags.vote_writes`` metric at the
        instant it lands."""
        if len(digests) != self.size:
            raise ValueError(f"vote_cast needs one digest per member, got {len(digests)}")
        off = array.slot_offset(slot)
        name = array.name
        owners = [self.comm.core_of(member) for member in range(len(digests))]
        stores = [
            (owner, off, array.encode(seq, digest), "flag", f"{name}[{slot}]@core{owner}")
            for owner, digest in zip(owners, digests)
        ]

        tracer, metrics = self.tracer, self.metrics

        def landed(i: int, status: str) -> None:
            if tracer.enabled:
                tracer.emit(
                    self.now, self._core_source, "vote_write", array=name,
                    owner=owners[i], slot=slot, seq=seq, digest=digests[i],
                    landed=status,
                )
            if metrics is not None:
                metrics.inc("flags.vote_writes")

        yield from self._store_each(stores, landed)

    def vote_wait_quorum(
        self,
        array: DigestSlotArray,
        seq: int,
        need: int,
        *,
        timeout: float,
        site: str = "",
    ) -> Generator[object, object, int]:
        """Wait until some digest holds >= ``need`` votes at round ``seq``
        in the *own* tally copy; returns that digest.  An expired budget
        (every digest still short of quorum) is the RBC layer's signal
        that votes are split or voters silent and the round cannot
        complete."""
        base = array.region.offset
        span = array.nslots * array.SLOT_BYTES
        nlines = array.lines_needed(array.nslots)

        def check() -> int | None:
            counts = array.count(self.read_local(base, span), seq)
            best = None
            for digest, votes in sorted(counts.items()):
                if votes >= need and (best is None or votes > counts[best]):
                    best = digest
            return best

        return (yield from self._wait(
            check, [base + i * CACHE_LINE for i in range(nlines)],
            poll_detect(self.t_poll, nlines),
            timeout, site or f"{array.name}.quorum(seq={seq})",
        ))

    # -- two-sided (SCC backend only; CoreComm overrides) -------------------------------

    def send(self, dst_rank: int, src: MemRef, nbytes: int) -> Generator:
        raise NotImplementedError(_SCC_ONLY)

    def recv(self, src_rank: int, dst: MemRef, nbytes: int) -> Generator:
        raise NotImplementedError(_SCC_ONLY)

