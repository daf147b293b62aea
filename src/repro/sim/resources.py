"""Contended resources for hardware modeling.

:class:`Resource` models a server (an MPB access port, a mesh link) that
serves requests strictly FIFO, one at a time.  Model code uses it either
with explicit acquire/release::

    yield port.acquire()
    ... hold ...
    port.release()

or, for the common "occupy for a fixed service time" pattern, with
:meth:`Resource.serve`, which combines queueing and the hold in one
sub-generator::

    yield from port.serve(hold=0.0126)

For tight per-item loops (EXACT-mode cache-line arbitration) there is a
third form: :meth:`Resource.try_begin_cycles` coalesces an *uncontended*
run of serve(service)+gap cycles into a single scheduled wake-up, where
each cycle's gap is a tuple of *legs* that may differ per cycle (the rest
of the line transaction, then an off-chip memory access);
:meth:`Resource.try_begin_run` is its one-leg, all-cycles-equal case.  The
run is optimistic: the moment any other requester calls :meth:`acquire`,
the resource reconstructs the exact per-cycle state the per-item loop
would have produced at that instant (who holds the slot, until when, with
what queue wait) and wakes the runner at the next cycle boundary to fall
back to per-item arbitration.  The reconstruction uses the same iterative
float arithmetic as the per-item timeouts, so traces and latencies are
bit-identical either way -- see docs/PERFORMANCE.md for the determinism
contract.

The resource keeps utilisation statistics so benches can report port
occupancy directly.
"""

from __future__ import annotations

import heapq
from typing import Generator, Sequence

from .errors import SimError
from .kernel import Event, Simulator


class _CoalescedRun:
    """Bookkeeping of one optimistic uncontended run on a Resource.

    A run is ``len(cycles)`` consecutive cycles; each cycle occupies the
    slot for ``service`` and is followed by that cycle's *gap legs* -- a
    tuple of strictly positive durations during which the owner is busy
    elsewhere (the rest of a cache-line transaction, an off-chip memory
    access) and the slot is free.  Legs may differ from cycle to cycle;
    the plain serve(service)+gap loop is the case of one leg per cycle.

    The run owner sleeps on :attr:`event`; it fires with the number of
    completed cycles -- ``len(cycles)`` at the natural end, fewer if an
    intruder forced an abort at a cycle boundary.
    """

    __slots__ = ("resource", "start", "service", "cycles", "event", "closed")

    def __init__(
        self,
        resource: "Resource",
        start: float,
        service: float,
        cycles: Sequence[tuple[float, ...]],
        event: Event,
    ) -> None:
        self.resource = resource
        self.start = start
        self.service = service
        self.cycles = cycles
        self.event = event
        self.closed = False

    # Exact-arithmetic contract: cycle windows are generated with the same
    # sequence of float additions the per-item loop performs
    # (t += service at the grant, t += leg after each resumption), never
    # with a multiplication, so every reconstructed timestamp is bit-equal
    # to the one the per-item loop would have scheduled.

    def _finalize(self, acquisitions: int, busy_cycles: int) -> None:
        """Fold the run's virtual slot usage into the stats and detach
        from the resource (waits were all zero, so only acquisition count
        and busy time accrue)."""
        self.closed = True
        res = self.resource
        res._run = None
        res.total_acquisitions += acquisitions
        res.busy_time += busy_cycles * self.service
        res.coalesced_runs += 1
        res.coalesced_cycles += acquisitions
        if res.wait_hist is not None:
            res.wait_hist.observe_zeros(acquisitions)  # type: ignore[attr-defined]

    def _pre_complete(self, _arg: object) -> None:
        """Fires when the last cycle's service window closes (scheduled at
        begin time).

        The per-item loop frees the slot inside the owner's process
        resumption -- a now-queue callback that runs *after* every heap
        event of the instant.  Mirror that event shape: this heap marker
        (whose seq, assigned at begin time, stands in for the last service
        timer's) only enqueues :meth:`_finish`; the actual detach and the
        walk through the last cycle's legs happen there, in now-queue
        position.
        """
        if self.closed:
            return
        sim = self.resource.sim
        sim._schedule_at(sim.now, self._finish, None)

    def _finish(self, _arg: object) -> None:
        if self.closed:
            # A same-instant intruder (with an older seq) got here first
            # and already detached the run.
            return
        n = len(self.cycles)
        self._finalize(n, n)
        _start_leg((self.resource.sim, self.event, n, self.cycles[-1], 0))

    def _intrude(self) -> None:
        """Another requester arrived mid-run: materialise the exact
        per-cycle state at the current instant and schedule the owner's
        fall-back wake-up.  Called by :meth:`Resource.acquire` *before*
        the intruder's request is processed."""
        res = self.resource
        sim = res.sim
        now = sim.now
        service = self.service
        # Locate the cycle (and the part of it) containing `now` by the
        # exact float walk.  `now` is at most the last service window's
        # end: past that, _pre_complete has already detached the run.
        t = self.start
        done = 0
        for legs in self.cycles:
            done += 1  # this cycle's service completes before the owner yields
            w_end = t + service
            if now < w_end:
                # Inside the service window: the owner virtually holds the
                # slot until w_end; the intruder queues and is granted by
                # a materialised release, exactly as the per-item loop
                # would.  The release is two-hop (heap marker at w_end,
                # real release and the owner's first leg in now-queue
                # position) because that is where the per-item loop's
                # process resumption runs it -- same-instant events of
                # other processes must interleave with it identically.
                self._finalize(done, done - 1)  # this window's busy time
                res._in_use = 1                 # accrues at the release
                res._busy_since = t
                sim._schedule_at(
                    w_end, _hop_release, (res, self.event, done, legs)
                )
                return
            t = w_end
            for k, leg in enumerate(legs):
                t = t + leg
                if now < t:
                    # In a gap leg (a leg boundary counts as the start of
                    # the next leg): slot free, intruder granted
                    # immediately; the owner is woken at this leg's end
                    # and hops through the cycle's remaining legs.
                    self._finalize(done, done)
                    _schedule_leg_end(sim, t, self.event, done, legs, k)
                    return
            if now == t:
                # Exactly at the cycle boundary: the intruder's triggering
                # event outran the owner's (virtual) last-leg timer, which
                # in the per-item world was scheduled at that leg's start
                # -- an event firing at this exact timestamp almost surely
                # carries an older seq (it was scheduled earlier; landing
                # exactly on the boundary from within the leg would need
                # an unrelated float coincidence).  So the intruder wins
                # the instant: slot free, owner's wake-up queued behind
                # the current event.
                self._finalize(done, done)
                sim._schedule_at(now, _succeed_with, (self.event, done))
                return
        raise SimError(  # pragma: no cover - _pre_complete detaches first
            f"{res.name}: coalesced run outlived its last service window"
        )


def _schedule_leg_end(
    sim: Simulator,
    t_end: float,
    event: Event,
    done: int,
    legs: tuple[float, ...],
    k: int,
) -> None:
    """Schedule the end of gap leg ``k`` at ``t_end``: the owner's wake-up
    (carrying ``done``) if it is the cycle's last leg, else a heap marker
    that hops to the next leg."""
    if k + 1 == len(legs):
        sim._schedule_at(t_end, _succeed_with, (event, done))
    else:
        sim._schedule_at(t_end, _hop_leg, (sim, event, done, legs, k + 1))


def _hop_leg(arg: tuple[Simulator, Event, int, tuple[float, ...], int]) -> None:
    """Heap marker at a leg boundary: the per-item loop's timer fires here
    and resumes the owner from the now-queue, where it starts the next
    timer -- so the next leg is scheduled from that position too."""
    sim = arg[0]
    sim._schedule_at(sim.now, _start_leg, arg)


def _start_leg(arg: tuple[Simulator, Event, int, tuple[float, ...], int]) -> None:
    """Start gap leg ``k`` at the current instant (now-queue position)."""
    sim, event, done, legs, k = arg
    _schedule_leg_end(sim, sim.now + legs[k], event, done, legs, k)


def _hop_release(arg: tuple["Resource", Event, int, tuple[float, ...]]) -> None:
    """Heap marker at a materialised service window's end: defer the real
    release to a now-queue callback (the per-item loop releases inside the
    owner's process resumption, which runs in that position)."""
    sim = arg[0].sim
    sim._schedule_at(sim.now, _finish_release, arg)


def _finish_release(arg: tuple["Resource", Event, int, tuple[float, ...]]) -> None:
    """Release the materialised hold (granting the best waiter), then
    start the owner's first gap leg -- in that order, matching the
    per-item loop's release-then-rest-timer sequence."""
    res, event, done, legs = arg
    res.release()
    _start_leg((res.sim, event, done, legs, 0))


def _succeed_with(pair: tuple[Event, int]) -> None:
    ev, value = pair
    ev.succeed(value)


class Resource:
    """A server with a fixed number of identical slots (default 1).

    Grant policy: waiters are served in ascending ``priority`` order,
    ties broken FIFO.  The default priority of 0 for every request gives
    plain FIFO.  Hardware arbiters that structurally favour some
    requesters (e.g. the SCC MPB port favouring mesh-closer cores, the
    source of Figure 4's unfairness) are modeled by passing a priority.
    """

    __slots__ = (
        "sim", "capacity", "name", "_acquire_name", "_run_name",
        "_in_use", "_waiters", "_seq", "_run",
        "total_acquisitions", "total_wait_time", "busy_time", "_busy_since",
        "max_queue", "queue_time", "_q_mark",
        "coalesced_runs", "coalesced_cycles", "wait_hist",
    )

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise SimError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        # Event names, formatted once: acquire() runs per cache line.
        self._acquire_name = f"{name}.acquire"
        self._run_name = f"{name}.run"
        self._in_use = 0
        # Heap of (priority, seq, requested_at, event).
        self._waiters: list[tuple[float, int, float, Event]] = []
        self._seq = 0
        #: Active coalesced run, if any (see try_begin_run).
        self._run: _CoalescedRun | None = None
        # Statistics.  Queue-depth bookkeeping lives entirely on the
        # contended branches, so the uncontended fast path pays nothing;
        # ``wait_hist`` is an optional sink (one `is not None` branch per
        # grant) the metrics layer attaches -- see repro.obs.
        self.total_acquisitions = 0
        self.total_wait_time = 0.0
        self.busy_time = 0.0
        self._busy_since: float | None = None
        self.max_queue = 0
        self.queue_time = 0.0  # time-integral of queue depth
        self._q_mark = 0.0     # last instant the queue depth changed
        self.coalesced_runs = 0
        self.coalesced_cycles = 0
        self.wait_hist: object | None = None

    # -- core protocol ------------------------------------------------------

    def acquire(self, priority: float = 0.0) -> Event:
        """Return an event that fires when a slot is granted to the caller.

        The caller must eventually call :meth:`release`.
        """
        if self._run is not None:
            self._run._intrude()
        self.total_acquisitions += 1
        ev = Event(self.sim, self._acquire_name)
        if self._in_use < self.capacity and not self._waiters:
            self._grant(ev, waited=0.0)
        else:
            now = self.sim.now
            self.queue_time += len(self._waiters) * (now - self._q_mark)
            self._q_mark = now
            self._seq += 1
            heapq.heappush(self._waiters, (priority, self._seq, now, ev))
            if len(self._waiters) > self.max_queue:
                self.max_queue = len(self._waiters)
        return ev

    def release(self) -> None:
        """Release one slot and grant it to the best waiter, if any."""
        if self._in_use <= 0:
            raise SimError(f"{self.name}: release() without matching acquire()")
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self.busy_time += self.sim.now - self._busy_since
            self._busy_since = None
        if self._waiters:
            now = self.sim.now
            self.queue_time += len(self._waiters) * (now - self._q_mark)
            self._q_mark = now
            _, _, requested_at, ev = heapq.heappop(self._waiters)
            self._grant(ev, now - requested_at)

    def _grant(self, ev: Event, waited: float) -> None:
        self._in_use += 1
        if self._busy_since is None:
            self._busy_since = self.sim.now
        self.total_wait_time += waited
        if self.wait_hist is not None:
            self.wait_hist.observe(waited)  # type: ignore[attr-defined]
        ev.succeed(waited)

    # -- conveniences --------------------------------------------------------

    def serve(
        self, hold: float, priority: float = 0.0
    ) -> Generator[Event, object, float]:
        """Queue for a slot, hold it ``hold`` time units, then release.

        Returns the time spent waiting in the queue (0.0 if uncontended).
        """
        waited = yield self.acquire(priority)
        try:
            if hold > 0:
                yield self.sim.timeout(hold)
        finally:
            self.release()
        return float(waited)  # type: ignore[arg-type]

    def try_begin_run(self, n: int, service: float, gap: float) -> Event | None:
        """Begin a coalesced run of ``n`` serve(``service``)+``gap`` cycles:
        the one-leg case of :meth:`try_begin_cycles`."""
        return self.try_begin_cycles(service, ((gap,),) * n)

    def try_begin_cycles(
        self, service: float, cycles: Sequence[tuple[float, ...]]
    ) -> Event | None:
        """Begin a coalesced run of ``len(cycles)`` cycles, each a
        serve(``service``) followed by that cycle's gap legs (see
        :class:`_CoalescedRun`).

        Only possible on an idle single-slot resource (free, no waiters, no
        active run) with strictly positive ``service`` and legs, at least
        one leg per cycle -- the regime where the coalesced schedule
        provably reproduces the per-item loop's arbitration.  Returns an
        event whose value is the number of cycles completed: all of them
        when the run finished untouched, fewer when an intruder aborted it
        at a cycle boundary (the caller then falls back to per-item serving
        for the remainder).  Returns ``None`` when coalescing cannot engage.
        """
        if not cycles or self.capacity != 1 or not self.idle or service <= 0.0:
            return None
        sim = self.sim
        # One exact float walk both validates the legs and finds where the
        # last cycle's service window closes.
        t = last_service_end = sim.now
        for legs in cycles:
            if not legs:
                return None
            t = last_service_end = t + service
            for leg in legs:
                if leg <= 0.0:
                    return None
                t = t + leg
        ev = Event(sim, self._run_name)
        run = _CoalescedRun(self, sim.now, service, cycles, ev)
        self._run = run
        sim._schedule_at(last_service_end, run._pre_complete, None)
        return ev

    # -- introspection --------------------------------------------------------

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    @property
    def idle(self) -> bool:
        """Free, nobody queued and no coalesced run in flight."""
        return not self._in_use and not self._waiters and self._run is None

    def utilisation(self, elapsed: float | None = None) -> float:
        """Fraction of time at least one slot was busy.

        Note: virtual occupancy of an in-flight coalesced run is folded in
        only when the run ends, so sample after the simulation drains.
        """
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        span = elapsed if elapsed is not None else self.sim.now
        return busy / span if span > 0 else 0.0

    def mean_queue_depth(self, elapsed: float | None = None) -> float:
        """Time-averaged number of queued (not yet granted) requests."""
        integral = self.queue_time
        if self._waiters:
            integral += len(self._waiters) * (self.sim.now - self._q_mark)
        span = elapsed if elapsed is not None else self.sim.now
        return integral / span if span > 0 else 0.0

    def stats(self) -> dict[str, float]:
        """Snapshot of the accumulated counters (for repro.obs harvesting)."""
        return {
            "acquisitions": float(self.total_acquisitions),
            "wait_time": self.total_wait_time,
            "busy_time": self.busy_time,
            "utilisation": self.utilisation(),
            "max_queue": float(self.max_queue),
            "mean_queue_depth": self.mean_queue_depth(),
            "coalesced_runs": float(self.coalesced_runs),
            "coalesced_cycles": float(self.coalesced_cycles),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Resource {self.name!r} {self._in_use}/{self.capacity} busy, "
            f"{len(self._waiters)} queued>"
        )
