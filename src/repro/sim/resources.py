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

A coalesced run costs no event per cycle, but only while nobody else
touches the resource.  Its complement for the *contended* per-item loop
is the :class:`LegScript`: the owner hands over a list of legs (hold
resource R for ``service`` then be busy ``rest``; or just be busy
``d``) and sleeps once, while bare kernel callbacks make the very
``acquire``/``release`` and timer calls its generator loop would have
made, in the same queue positions.  The holds are real, so queueing,
priorities and every statistic are the resource's own.

The resource keeps utilisation statistics so benches can report port
occupancy directly.
"""

from __future__ import annotations

import heapq
from typing import Generator, Sequence, Union

from .errors import SimError
from .kernel import Event, Simulator

_heappush = heapq.heappush


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

#: One leg of a :class:`LegScript`: a tuple ``(resource, service, rest,
#: priority, retry_factor)`` is a hold, a bare number a delay.
Leg = Union[float, "tuple[Resource, float, float, float, float]"]


class LegScript(Event):
    """A sequence of holds and delays performed for one sleeping owner.

    ``legs`` is what a per-item generator loop would do one wake-up at a
    time.  A *hold* leg ``(resource, service, rest, priority,
    retry_factor)`` is the loop body ::

        waited = yield resource.acquire(priority)
        yield sim.timeout(service)
        resource.release()
        if waited > 0.0 and retry_factor > 0.0:
            yield sim.timeout(waited * retry_factor)
        yield sim.timeout(rest)

    and a *delay* leg ``d`` is ``yield sim.timeout(d)``.  All durations
    must be strictly positive (a zero one is a timer the loop would not
    have yielded for, i.e. a different event shape).  The script *is*
    the owner's event: the owner yields it right after creating it and is
    resumed with :attr:`marks`, the instant each leg ended.

    Position rules -- why the schedule is the loop's, event for event:

    1. Every scheduling call the loop makes, the script makes, from the
       same place in the ``(time, seq)`` order: timers are heap entries
       pushed where the loop's ``timeout`` would push them, and the code
       the loop runs in a process resumption (``release``, the next
       ``acquire``, the next timer) runs in a *hop*.
    2. A hop is the now-queue entry that ``Event.succeed ->
       Process._resume`` occupies.  It is taken inline iff the now-queue
       is empty **and** no heap entry is due at ``now``: then the entry
       would be the very next callback to run, nothing can happen in
       between, and only the absolute value of later sequence numbers
       shifts, never their order.
    3. A request that has to queue leaves its continuation in the grant
       event's callbacks, where the process's resumption would sit.
    4. ``acquire`` passes the leg's priority; a hold that waited pays its
       NACK timer ``waited * retry_factor`` before the rest.
    5. The last leg's closing timer fires ``self.succeed`` directly, as
       the loop's last ``timeout`` would: the owner wakes in the hop
       after it, not one hop later.

    Throwing into the sleeping owner (:meth:`Process.interrupt`, the
    watchdog) cancels the script at that instant: a held resource is
    released, a queued request withdrawn, and no later callback acts.
    """

    __slots__ = ("legs", "marks", "_next", "_leg", "_grant", "_cancelled")

    def __init__(self, sim: Simulator, legs: Sequence[Leg], name: str = "legs") -> None:
        if not legs:
            raise SimError("a leg script needs at least one leg")
        for leg in legs:
            if type(leg) is tuple:
                ok = leg[1] > 0.0 and leg[2] > 0.0 and leg[4] >= 0.0
            else:
                ok = leg > 0.0
            if not ok:
                raise SimError(f"leg script: non-positive duration in {leg!r}")
        super().__init__(sim, name)
        self.legs = legs
        #: The instant each leg ended (the last one: when the owner wakes).
        self.marks: list[float] = []
        self._next = 0
        self._leg: tuple | None = None   # the hold leg in progress...
        self._grant: Event | None = None  # ...from its acquire to its release
        self._cancelled = False
        self._start_leg(None)

    # Heap callbacks (`_hop`) stand where the loop's timer events fire;
    # the methods they continue into stand where its process resumptions
    # run.  `_start_leg`, `_granted`, `_release` and `_rest` each begin
    # with the cancellation check because any of them may have been
    # parked in the now-queue when the owner was thrown into.

    def _hop(self, fn) -> None:
        sim = self.sim
        heap = sim._heap
        if sim._now_queue or (heap and heap[0][0] == sim.now):
            sim._seq += 1
            sim._now_queue.append((sim._seq, fn, None))
        else:
            fn(None)

    def _start_leg(self, _arg: object) -> None:
        if self._cancelled:
            return
        leg = self.legs[self._next]
        if type(leg) is not tuple:
            self._end_leg(self.sim.now + leg)
            return
        self._leg = leg
        self._grant = grant = leg[0].acquire(leg[3])
        if grant.triggered:
            self._hop(self._granted)
        else:
            grant._callbacks.append(self._granted)

    def _granted(self, _arg: object) -> None:
        if self._cancelled:
            return
        sim = self.sim
        sim._seq += 1
        _heappush(
            sim._heap, (sim.now + self._leg[1], sim._seq, self._hop, self._release)
        )

    def _release(self, _arg: object) -> None:
        if self._cancelled:
            return
        leg = self._leg
        waited = self._grant._value
        self._grant = None
        leg[0].release()
        if waited > 0.0 and leg[4] > 0.0:
            sim = self.sim
            sim._seq += 1
            _heappush(
                sim._heap,
                (sim.now + waited * leg[4], sim._seq, self._hop, self._rest),
            )
        else:
            self._end_leg(self.sim.now + leg[2])

    def _rest(self, _arg: object) -> None:
        """After the NACK timer: the rest of the transaction."""
        if self._cancelled:
            return
        self._end_leg(self.sim.now + self._leg[2])

    def _end_leg(self, t_end: float) -> None:
        """Push the current leg's closing timer: a hop into the next
        leg, or -- last leg -- the owner's own wake-up."""
        sim = self.sim
        marks = self.marks
        marks.append(t_end)
        self._next = i = self._next + 1
        sim._seq += 1
        if i == len(self.legs):
            _heappush(sim._heap, (t_end, sim._seq, self.succeed, marks))
        else:
            _heappush(sim._heap, (t_end, sim._seq, self._hop, self._start_leg))

    def _abandoned(self) -> None:
        if self._cancelled or self.triggered:
            return
        self._cancelled = True
        grant = self._grant
        if grant is not None:
            self._grant = None
            resource = self._leg[0]
            if grant.triggered:
                resource.release()
            else:
                resource.withdraw(grant)


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
            # Inline of _grant(ev, 0.0) + ev.succeed(0.0): nobody can be
            # waiting on an event that was never handed out.
            self._in_use += 1
            if self._busy_since is None:
                self._busy_since = self.sim.now
            if self.wait_hist is not None:
                self.wait_hist.observe(0.0)  # type: ignore[attr-defined]
            ev.triggered = True
            ev._value = 0.0
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

    def withdraw(self, request: Event) -> None:
        """Take a queued, not yet granted :meth:`acquire` request back
        out of the queue (its owner gave up waiting)."""
        waiters = self._waiters
        for i, entry in enumerate(waiters):
            if entry[3] is request:
                break
        else:
            raise SimError(f"{self.name}: withdraw() of a request not queued")
        now = self.sim.now
        self.queue_time += len(waiters) * (now - self._q_mark)
        self._q_mark = now
        del waiters[i]
        heapq.heapify(waiters)

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
