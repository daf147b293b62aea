"""Event loop, one-shot events and generator-based processes.

Determinism contract
--------------------
Two runs of the same model with the same inputs produce identical event
orders.  This is guaranteed by (a) a single global sequence number that
breaks timestamp ties in FIFO order and (b) callbacks being invoked in
registration order.  Model code must not consult wall-clock time or
unseeded RNGs.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from .errors import (
    DeadlockError,
    Interrupted,
    ScheduleInPastError,
    SimError,
    WatchdogError,
)

# A model coroutine: yields Events, may `return` a value.
ProcessGen = Generator["Event", Any, Any]


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    makes it *triggered* and schedules its callbacks to run at the current
    simulation time.  Processes wait on events by yielding them.
    """

    __slots__ = ("sim", "_value", "_exc", "triggered", "_callbacks", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.triggered = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._callbacks: list[Callable[["Event"], None]] = []

    @property
    def value(self) -> Any:
        """The value passed to :meth:`succeed`. Only valid once triggered."""
        if not self.triggered:
            raise SimError(f"event {self.name!r} not yet triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def failed(self) -> bool:
        return self.triggered and self._exc is not None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, delivering ``value`` to all waiters."""
        if self.triggered:
            raise SimError(f"event {self.name!r} already triggered")
        self.triggered = True
        self._value = value
        callbacks = self._callbacks
        if callbacks:  # inline of Simulator._dispatch (hot path)
            self._callbacks = []
            sim = self.sim
            seq = sim._seq
            nowq = sim._now_queue
            for fn in callbacks:
                seq += 1
                nowq.append((seq, fn, self))
            sim._seq = seq
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event so that waiters see ``exc`` raised."""
        if self.triggered:
            raise SimError(f"event {self.name!r} already triggered")
        self.triggered = True
        self._exc = exc
        self.sim._dispatch(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event triggers (immediately if it
        already has)."""
        if self.triggered:
            # Late subscription: run in the current dispatch step.
            self.sim._schedule(0.0, fn, self)
        else:
            self._callbacks.append(fn)

    def _abandoned(self) -> None:
        """The process blocked on this event was thrown into and will not
        consume it.  A plain event is unaffected (it may still fire for
        other waiters); an event that exists only for its one waiter --
        a :class:`repro.sim.resources.LegScript` -- cancels itself."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {self.name!r} {state}>"


class Process(Event):
    """A running model generator.

    A ``Process`` is itself an :class:`Event`: it triggers when the
    generator returns, with the generator's return value as the event
    value, so processes can wait for each other by yielding the process.
    """

    __slots__ = ("_gen", "_waiting_on", "last_resume")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "") -> None:
        super().__init__(sim, name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        #: Simulated time this process last executed (for stall diagnosis).
        self.last_resume: float = sim.now
        sim._live_processes.add(self)
        # Start the process at the current simulation time.
        sim._schedule(0.0, self._resume, None)

    @property
    def waiting_on_name(self) -> str:
        """Name of the event this process is currently blocked on."""
        return self._waiting_on.name if self._waiting_on is not None else ""

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupted` into the generator at the current time.

        A process blocked on an event is detached from it; the event itself
        is unaffected and may still fire for other waiters (a leg script,
        which has no other waiter, lets go of its resource -- see
        :meth:`Event._abandoned`).
        """
        if self.triggered:
            return
        self.sim._schedule(0.0, self._throw, Interrupted(cause))

    # -- internal ---------------------------------------------------------

    def _resume(self, triggering: Optional[Event]) -> None:
        if self.triggered:
            return  # e.g. interrupted while a wake-up was already queued
        if triggering is not None and triggering is not self._waiting_on:
            return  # stale wake-up after an interrupt re-targeted us
        self._waiting_on = None
        self.last_resume = self.sim.now
        try:
            if triggering is None:
                target = self._gen.send(None)
            elif triggering._exc is not None:
                target = self._gen.throw(triggering._exc)
            else:
                target = self._gen.send(triggering._value)
        except StopIteration as stop:
            self._finish_ok(stop.value)
            return
        except BaseException as exc:
            self._finish_fail(exc)
            return
        # Inline of _block_on: pending events (the overwhelmingly common
        # case) take the two-line fast path.
        if isinstance(target, Event):
            self._waiting_on = target
            if not target.triggered:
                target._callbacks.append(self._resume)
            else:
                # Already fired (e.g. an uncontended Resource grant):
                # resume via the zero-delay queue, no heap round-trip.
                self.sim._schedule(0.0, self._resume, target)
        else:
            self._finish_fail(
                SimError(f"process {self.name!r} yielded non-event {target!r}")
            )

    def _throw(self, exc: BaseException) -> None:
        if self.triggered:
            return
        if self._waiting_on is not None:
            self._waiting_on._abandoned()
            self._waiting_on = None
        self.last_resume = self.sim.now
        try:
            target = self._gen.throw(exc)
        except StopIteration as stop:
            self._finish_ok(stop.value)
            return
        except BaseException as err:
            self._finish_fail(err)
            return
        self._block_on(target)

    def _block_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            self._finish_fail(
                SimError(f"process {self.name!r} yielded non-event {target!r}")
            )
            return
        self._waiting_on = target
        target.add_callback(self._resume)

    def _finish_ok(self, value: Any) -> None:
        self.sim._live_processes.discard(self)
        self.succeed(value)

    def _finish_fail(self, exc: BaseException) -> None:
        self.sim._live_processes.discard(self)
        if not self._callbacks:
            # Nobody is waiting on this process: surface the error instead
            # of swallowing it silently.
            self.sim._crashed.append((self, exc))
        self.fail(exc)


class Simulator:
    """The discrete-event loop.

    Typical use::

        sim = Simulator()

        def prog():
            yield sim.timeout(1.5)
            return "done"

        proc = sim.process(prog())
        sim.run()
        assert sim.now == 1.5 and proc.value == "done"
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[..., None], Any]] = []
        #: Zero-delay fast path: callbacks scheduled for the *current*
        #: timestamp, in FIFO (= global sequence) order.  Every entry here
        #: would otherwise be a heap push/pop pair at time ``now``; the
        #: deque keeps the exact (time, seq) execution order -- see run().
        self._now_queue: deque[tuple[int, Callable[..., None], Any]] = deque()
        self._seq = 0
        self._live_processes: set[Process] = set()
        self._crashed: list[tuple[Process, BaseException]] = []
        #: Optional zero-arg callable returning extra diagnostic text that
        #: is appended to detector errors (deadlock / watchdog).  Set by
        #: layers above the kernel -- e.g. the fault injector attaches its
        #: fault timeline here -- without the kernel importing them.
        self.diagnostic_context: Optional[Callable[[], str]] = None

    # -- scheduling -------------------------------------------------------

    def _schedule(self, delay: float, fn: Callable[..., None], arg: Any) -> None:
        if delay < 0:
            raise ScheduleInPastError(f"negative delay {delay!r}")
        self._seq += 1
        if delay == 0.0:
            # Fires at the current time: FIFO order == seq order, and the
            # run loop interleaves it correctly with same-time heap entries.
            self._now_queue.append((self._seq, fn, arg))
        else:
            heapq.heappush(self._heap, (self.now + delay, self._seq, fn, arg))

    def _schedule_at(self, t: float, fn: Callable[..., None], arg: Any) -> None:
        """Schedule ``fn(arg)`` at the *absolute* simulated time ``t``.

        Unlike ``_schedule(t - now, ...)`` this avoids the float round trip
        through a relative delay, so a caller that reconstructs timestamps
        (e.g. a coalesced Resource run) hits bit-equal heap times.
        """
        if t < self.now:
            raise ScheduleInPastError(f"time {t!r} is before now={self.now!r}")
        self._seq += 1
        if t == self.now:
            self._now_queue.append((self._seq, fn, arg))
        else:
            heapq.heappush(self._heap, (t, self._seq, fn, arg))

    def _dispatch(self, event: Event) -> None:
        callbacks = event._callbacks
        if not callbacks:
            return
        event._callbacks = []
        nowq = self._now_queue
        seq = self._seq
        for fn in callbacks:
            seq += 1
            nowq.append((seq, fn, event))
        self._seq = seq

    # -- public factory methods -------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a pending one-shot event."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Event:
        """An event that fires ``delay`` time units from now."""
        # A constant fallback name: formatting a per-timeout string would
        # dominate the cost of creating the event itself.
        ev = Event(self, name or "timeout")
        if delay < 0:
            raise ScheduleInPastError(f"negative timeout {delay!r}")
        self._seq += 1
        if delay == 0.0:
            self._now_queue.append((self._seq, ev.succeed, value))
        else:
            heapq.heappush(
                self._heap, (self.now + delay, self._seq, ev.succeed, value)
            )
        return ev

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a generator as a process at the current time."""
        return Process(self, gen, name)

    # -- running ----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue drains (or simulated ``until`` passes).

        Raises :class:`DeadlockError` if processes remain alive with no
        scheduled events, and re-raises the first unobserved process crash.
        Returns the final simulation time (``until`` itself when given and
        the event queue drains before the deadline).
        """
        heap = self._heap
        nowq = self._now_queue
        crashed = self._crashed
        heappop = heapq.heappop
        while heap or nowq:
            # Exact (time, seq) order: the now-queue holds current-time
            # entries sorted by seq; a heap entry at the same time runs
            # first iff its seq is smaller.
            if nowq:
                if heap:
                    top = heap[0]
                    if top[0] == self.now and top[1] < nowq[0][0]:
                        heappop(heap)
                        top[2](top[3])
                        if crashed:
                            proc, exc = crashed.pop(0)
                            raise SimError(f"process {proc.name!r} crashed") from exc
                        continue
                _, fn, arg = nowq.popleft()
                fn(arg)
            else:
                t = heap[0][0]
                if until is not None and t > until:
                    self.now = until
                    return until
                _, _, fn, arg = heappop(heap)
                self.now = t
                fn(arg)
            if crashed:
                proc, exc = crashed.pop(0)
                raise SimError(f"process {proc.name!r} crashed") from exc
        if until is not None:
            # The queue drained before the deadline: the clock still
            # advances to the requested time (nothing can happen between).
            if until > self.now:
                self.now = until
            return self.now
        if self._live_processes:
            stuck = tuple(
                sorted(
                    (p.name, p.waiting_on_name, p.last_resume)
                    for p in self._live_processes
                )
            )
            detail = ", ".join(
                f"{name} (waiting on {ev or '<nothing>'!r} since t={since:.4f})"
                for name, ev, since in stuck
            )
            raise DeadlockError(
                f"no events left at t={self.now:.4f} but "
                f"{len(self._live_processes)} process(es) still blocked: "
                f"{detail}{self._diagnostic_suffix()}",
                stuck=stuck,
                sim_time=self.now,
            )
        return self.now

    def _diagnostic_suffix(self) -> str:
        """Extra context (e.g. the fault timeline) for detector errors."""
        if self.diagnostic_context is None:
            return ""
        try:
            text = self.diagnostic_context()
        except Exception:  # diagnosis must never mask the real error
            return ""
        return f"\n{text}" if text else ""

    def start_watchdog(self, interval: float, name: str = "watchdog") -> Process:
        """Start a watchdog process that converts silent stalls into
        :class:`WatchdogError`\\ s.

        Every ``interval`` simulated time units the watchdog inspects all
        other live processes; any process that has not advanced for at
        least a full interval gets a :class:`WatchdogError` thrown into it
        (naming the event it was blocked on and for how long), turning an
        eventual :class:`DeadlockError` with no context into a precise,
        per-process diagnosis.  ``interval`` must therefore exceed the
        longest legitimate blocking wait of the model.

        The watchdog exits once no other live processes remain, so a run
        that completes normally still drains its event queue.
        """
        if interval <= 0:
            raise SimError(f"watchdog interval must be > 0, got {interval!r}")
        holder: list[Process] = []

        def loop() -> ProcessGen:
            while True:
                yield self.timeout(interval, name=f"{name}.tick")
                me = holder[0]
                others = [p for p in self._live_processes if p is not me]
                if not others:
                    return
                for p in others:
                    idle = self.now - p.last_resume
                    if idle >= interval and p._waiting_on is not None:
                        self._schedule(
                            0.0,
                            p._throw,
                            WatchdogError(
                                f"process {p.name!r} stalled for {idle:.4f} "
                                f"time units waiting on "
                                f"{p.waiting_on_name!r} at t={self.now:.4f}"
                                f"{self._diagnostic_suffix()}",
                                process=p.name,
                                sim_time=self.now,
                                site=p.waiting_on_name,
                                idle_for=idle,
                            ),
                        )

        proc = self.process(loop(), name=name)
        holder.append(proc)
        return proc

    def step(self) -> bool:
        """Execute a single scheduled callback. Returns False when empty."""
        nowq = self._now_queue
        if nowq:
            heap = self._heap
            if not heap or heap[0][0] != self.now or heap[0][1] > nowq[0][0]:
                _, fn, arg = nowq.popleft()
                fn(arg)
                return True
        elif not self._heap:
            return False
        t, _, fn, arg = heapq.heappop(self._heap)
        self.now = t
        fn(arg)
        return True

    @property
    def queued_events(self) -> int:
        return len(self._heap) + len(self._now_queue)

    @property
    def events_scheduled(self) -> int:
        """Total callbacks scheduled so far (the global sequence counter).

        Read-only view for the metrics layer: the run loop pays nothing
        for it, and it doubles as an exact proxy for engine work done.
        """
        return self._seq

    def stats(self) -> dict[str, float]:
        """Engine counters for :mod:`repro.obs` harvesting (no hot-path cost)."""
        return {
            "now": self.now,
            "events_scheduled": float(self._seq),
            "events_queued": float(self.queued_events),
            "live_processes": float(len(self._live_processes)),
        }


def all_of(sim: Simulator, events: Iterable[Event], name: str = "all_of") -> Event:
    """An event that fires once every event in ``events`` has fired.

    Its value is the list of the constituent values, in input order.
    """
    events = list(events)
    done = sim.event(name)
    remaining = len(events)
    if remaining == 0:
        done.succeed([])
        return done
    results: list[Any] = [None] * remaining

    def make_cb(i: int) -> Callable[[Event], None]:
        def cb(ev: Event) -> None:
            nonlocal remaining
            if done.triggered:
                return
            if ev.failed:
                done.fail(ev._exc)  # type: ignore[arg-type]
                return
            results[i] = ev._value
            remaining -= 1
            if remaining == 0:
                done.succeed(results)

        return cb

    for i, ev in enumerate(events):
        ev.add_callback(make_cb(i))
    return done


def any_of(sim: Simulator, events: Iterable[Event], name: str = "any_of") -> Event:
    """An event that fires when the first of ``events`` fires.

    Its value is ``(index, value)`` of the winning event.
    """
    events = list(events)
    if not events:
        raise SimError("any_of requires at least one event")
    done = sim.event(name)

    def make_cb(i: int) -> Callable[[Event], None]:
        def cb(ev: Event) -> None:
            if done.triggered:
                return
            if ev.failed:
                done.fail(ev._exc)  # type: ignore[arg-type]
                return
            done.succeed((i, ev._value))

        return cb

    for i, ev in enumerate(events):
        ev.add_callback(make_cb(i))
    return done
