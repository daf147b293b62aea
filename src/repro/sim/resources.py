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
third form, the :class:`LegScript`: the owner hands over a list of legs
(hold resource R for ``service`` then be busy ``rest``; or just be busy
``d``) and sleeps once, while bare kernel callbacks make the very
``acquire``/``release`` and timer calls its generator loop would have
made, in the same queue positions.  The holds are real, so queueing,
priorities and every statistic are the resource's own -- except while
the resource is idle: then the script's opening stretch of holds runs
*virtually*, one scheduled event for the whole stretch, and the moment
another requester calls :meth:`Resource.acquire` the script
reconstructs the exact per-item state at that instant (who holds the
slot, until when) and carries on as real holds.  The reconstruction
uses the same iterative float arithmetic as the per-item timeouts, so
traces and latencies are bit-identical either way -- see
docs/PERFORMANCE.md for the determinism contract.

The resource keeps utilisation statistics so benches can report port
occupancy directly.
"""

from __future__ import annotations

import heapq
from typing import Callable, Generator, Sequence, Union

from .errors import SimError
from .kernel import Event, Simulator

_heappush = heapq.heappush

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

    The virtual stretch.  When the script's first hold finds its
    single-slot resource :attr:`~Resource.idle` and the legs from there
    up to the next *other* hold (another resource, or the other
    direction on this one) contain that hold at least twice, the stretch
    runs virtually: the script becomes the resource's ``_run`` and
    pushes one heap marker, :meth:`_pre_complete`, at the end of the
    stretch's last service window.  An idle slot grants at once, so no
    hold waits and none pays a NACK; every instant the loop would
    schedule follows from the stretch's start by the loop's own float
    walk (``t += service`` at the grant, ``t += leg`` after each
    resumption, never a multiplication).  The stretch ends in
    :meth:`_intrude` -- the first other requester's ``acquire`` calls
    it before its request is processed, and ``_pre_complete`` and a
    throw into the owner call it too -- which folds the virtual holds
    into the resource's statistics and turns the loop's state at that
    instant into the script's own continuations; the rest of the script
    is real holds (there is no second stretch).

    Landings.  A loop whose items have an effect -- a store deposits its
    bytes, wakes the line's watchers, emits its trace record -- performs
    it in the process resumption after the item's last timer, before its
    next item's first scheduling call.  ``landings``, parallel to
    ``legs``, puts it there: ``landings[i]`` (a zero-argument callable,
    or ``None``) runs in the hop that opens leg ``i + 1``, first thing.
    The last leg's landing is the owner's to run when it wakes, which is
    the same position (rule 5).  A script with landings never runs a
    virtual stretch: a stretch skips the hops its landings need.  A
    landing runs in a bare kernel callback, not in the owner's frames, so
    it must not raise.

    Throwing into the sleeping owner (:meth:`Process.interrupt`, the
    watchdog) cancels the script at that instant: a held resource is
    released, a queued request withdrawn, and no later callback acts --
    no later landing runs either.
    """

    __slots__ = (
        "legs", "marks", "_next", "_leg", "_grant", "_cancelled", "_t0",
        "_landings",
    )

    def __init__(
        self,
        sim: Simulator,
        legs: Sequence[Leg],
        name: str = "legs",
        landings: Sequence[Callable[[], object] | None] | None = None,
    ) -> None:
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
        self._t0: float | None = None     # start of the virtual stretch in flight
        self._landings = landings
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
        i = self._next
        landings = self._landings
        if landings is not None and i:
            landing = landings[i - 1]
            if landing is not None:
                landing()
        leg = self.legs[i]
        if type(leg) is not tuple:
            self._end_leg(self.sim.now + leg)
            return
        first = self._leg is None
        self._leg = leg
        if first and landings is None and self._begin_stretch():
            return
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

    # -- the virtual stretch ---------------------------------------------------

    def _begin_stretch(self) -> bool:
        """Run the stretch that opens at the first hold virtually, if it
        qualifies (see the class docstring); False leaves it to
        ``acquire``."""
        hold = self._leg
        res = hold[0]
        # Inline of `not res.idle`: this runs once per script.
        if res.capacity != 1 or res._in_use or res._waiters or res._run is not None:
            return False
        service = hold[1]
        sim = self.sim
        holds = 0
        t = w_end = sim.now
        for leg in self.legs[self._next:]:
            if type(leg) is tuple:
                if leg is not hold:
                    break
                holds += 1
                t = w_end = t + service
                t = t + leg[2]
            else:
                t = t + leg
        if holds < 2:
            return False
        self._t0 = sim.now
        res._run = self
        sim._seq += 1
        _heappush(sim._heap, (w_end, sim._seq, self._pre_complete, None))
        return True

    def _pre_complete(self, _arg: object) -> None:
        """The stretch's last service window closes.  This marker's seq,
        taken when the stretch began, stands in for the loop's last
        service timer; the loop frees the slot in the resumption after
        it, so the stretch ends in a hop."""
        if self._t0 is not None:
            self._hop(self._finish)

    def _finish(self, _arg: object) -> None:
        if self._t0 is not None:  # unless a same-instant intruder came first
            self._intrude()

    def _intrude(self) -> None:
        """End the virtual stretch at the current instant: locate ``now``
        by the exact float walk, append the marks of the legs already
        over and continue in the script's own continuations, exactly
        where the loop stands."""
        hold = self._leg
        res, service = hold[0], hold[1]
        sim = self.sim
        now = sim.now
        legs, marks = self.legs, self.marks
        t = self._t0
        self._t0 = None
        res._run = None
        i = self._next
        done = 0
        # `now` is at most the last service window's end: past that,
        # _pre_complete has already ended the stretch.
        while True:
            leg = legs[i]
            if type(leg) is tuple:
                if done and now == t:
                    # Exactly on the boundary before this hold: the
                    # intruder's triggering event outran the loop's
                    # last-leg timer, which was scheduled at that leg's
                    # start -- an event firing at this exact instant
                    # almost surely carries an older seq (landing on the
                    # boundary from within the leg would need an
                    # unrelated float coincidence).  So the intruder wins
                    # the instant, and the hold starts in a hop behind it.
                    self._fold(done, done)
                    self._next = i
                    sim._schedule_at(now, self._hop, self._start_leg)
                    return
                done += 1
                w_end = t + service
                if now < w_end:
                    # Inside the service window: the script really holds
                    # the slot until w_end (this window's busy time accrues
                    # at the release) and the intruder queues behind it.
                    self._fold(done, done - 1)
                    res._in_use = 1
                    res._busy_since = t
                    self._next = i
                    self._grant = grant = Event(sim, res._acquire_name)
                    grant.triggered = True
                    grant._value = 0.0
                    sim._seq += 1
                    _heappush(sim._heap, (w_end, sim._seq, self._hop, self._release))
                    return
                t = w_end + leg[2]
            else:
                t = t + leg
            if now < t:
                # Inside a rest or delay leg (a leg boundary counts as
                # the start of the next leg): the slot is free, and this
                # leg's closing timer carries the script on.
                self._fold(done, done)
                self._next = i
                self._end_leg(t)
                return
            marks.append(t)
            i += 1

    def _fold(self, acquisitions: int, busy_cycles: int) -> None:
        """Fold the stretch's virtual holds into the resource's
        statistics (every wait was zero, so only acquisitions and busy
        time accrue)."""
        res, service = self._leg[0], self._leg[1]
        res.total_acquisitions += acquisitions
        res.busy_time += busy_cycles * service
        res.coalesced_runs += 1
        res.coalesced_cycles += acquisitions
        if res.wait_hist is not None:
            res.wait_hist.observe_zeros(acquisitions)  # type: ignore[attr-defined]

    def _abandoned(self) -> None:
        if self._cancelled or self.triggered:
            return
        if self._t0 is not None:
            self._intrude()  # the state the loop would be in, then let go
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
        "sim", "capacity", "name", "_acquire_name",
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
        self._in_use = 0
        # Heap of (priority, seq, requested_at, event).
        self._waiters: list[tuple[float, int, float, Event]] = []
        self._seq = 0
        #: The leg script whose virtual stretch is in flight, if any.
        self._run: LegScript | None = None
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

    def try_begin_run(self, n: int, service: float, gap: float) -> LegScript | None:
        """A leg script of ``n`` serve(``service``)+``gap`` holds, begun
        now on this resource, or ``None`` when it is not idle.  Two or
        more holds are one virtual stretch (see :class:`LegScript`)."""
        if not self.idle:
            return None
        return LegScript(self.sim, ((self, service, gap, 0.0, 0.0),) * n)

    # -- introspection --------------------------------------------------------

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    @property
    def idle(self) -> bool:
        """Free, nobody queued and no virtual stretch in flight."""
        return not self._in_use and not self._waiters and self._run is None

    def utilisation(self, elapsed: float | None = None) -> float:
        """Fraction of time at least one slot was busy.

        Note: virtual occupancy of an in-flight leg-script stretch is
        folded in only when the stretch ends, so sample after the
        simulation drains.
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
