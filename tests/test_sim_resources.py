"""Unit tests for FIFO/priority resources."""

import pytest

from repro.sim import (
    Interrupted, LegScript, Resource, Simulator, SimError, WatchdogError,
)


def test_uncontended_acquire_is_immediate():
    sim = Simulator()
    res = Resource(sim, name="r")

    def prog():
        waited = yield res.acquire()
        res.release()
        return waited

    p = sim.process(prog())
    sim.run()
    assert p.value == 0.0
    assert sim.now == 0.0


def test_fifo_ordering_under_contention():
    sim = Simulator()
    res = Resource(sim)
    grants = []

    def prog(tag):
        yield res.acquire()
        grants.append((tag, sim.now))
        yield sim.timeout(1.0)
        res.release()

    for i in range(4):
        sim.process(prog(i))
    sim.run()
    assert [g[0] for g in grants] == [0, 1, 2, 3]
    assert [g[1] for g in grants] == [0.0, 1.0, 2.0, 3.0]


def test_priority_overrides_fifo():
    sim = Simulator()
    res = Resource(sim)
    grants = []

    def holder():
        yield res.acquire()
        yield sim.timeout(1.0)
        res.release()

    def prog(tag, prio):
        # Arrive while the holder owns the slot.
        yield sim.timeout(0.5)
        yield res.acquire(priority=prio)
        grants.append(tag)
        yield sim.timeout(0.1)
        res.release()

    sim.process(holder())
    sim.process(prog("far", 9.0))
    sim.process(prog("near", 1.0))
    sim.process(prog("mid", 5.0))
    sim.run()
    assert grants == ["near", "mid", "far"]


def test_equal_priority_ties_break_fifo():
    sim = Simulator()
    res = Resource(sim)
    grants = []

    def holder():
        yield res.acquire()
        yield sim.timeout(1.0)
        res.release()

    def prog(tag):
        yield sim.timeout(0.5)
        yield res.acquire(priority=3.0)
        grants.append(tag)
        res.release()

    sim.process(holder())
    for i in range(3):
        sim.process(prog(i))
    sim.run()
    assert grants == [0, 1, 2]


def test_capacity_allows_parallel_holders():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    active = []
    peak = []

    def prog():
        yield res.acquire()
        active.append(1)
        peak.append(len(active))
        yield sim.timeout(1.0)
        active.pop()
        res.release()

    for _ in range(4):
        sim.process(prog())
    sim.run()
    assert max(peak) == 2
    assert sim.now == 2.0


def test_serve_reports_wait_time():
    sim = Simulator()
    res = Resource(sim)
    waits = []

    def prog():
        waited = yield from res.serve(hold=1.0)
        waits.append(waited)

    sim.process(prog())
    sim.process(prog())
    sim.run()
    assert waits == [0.0, 1.0]
    assert sim.now == 2.0


def test_release_without_acquire_raises():
    sim = Simulator()
    res = Resource(sim, name="r")
    with pytest.raises(SimError):
        res.release()


def test_capacity_must_be_positive():
    sim = Simulator()
    with pytest.raises(SimError):
        Resource(sim, capacity=0)


def test_utilisation_statistics():
    sim = Simulator()
    res = Resource(sim)

    def prog():
        yield from res.serve(hold=2.0)
        yield sim.timeout(2.0)  # idle period
        yield from res.serve(hold=2.0)

    sim.process(prog())
    sim.run()
    assert sim.now == 6.0
    assert res.utilisation() == pytest.approx(4.0 / 6.0)
    assert res.total_acquisitions == 2


def test_queue_length_and_in_use():
    sim = Simulator()
    res = Resource(sim)
    seen = []

    def holder():
        yield res.acquire()
        yield sim.timeout(1.0)
        seen.append((res.in_use, res.queue_length))
        res.release()

    def waiter():
        yield sim.timeout(0.5)
        yield res.acquire()
        res.release()

    sim.process(holder())
    sim.process(waiter())
    sim.run()
    assert seen == [(1, 1)]


def test_serve_releases_even_if_interrupted_mid_hold():
    sim = Simulator()
    res = Resource(sim)

    def victim():
        yield from res.serve(hold=100.0)

    proc = sim.process(victim())

    def killer():
        yield sim.timeout(1.0)
        proc.interrupt()

    def after():
        yield sim.timeout(2.0)
        waited = yield res.acquire()
        res.release()
        return waited

    sim.process(killer())
    a = sim.process(after())
    with pytest.raises(SimError):
        sim.run()  # the interrupt surfaces as a crash of the victim
    sim.run()
    assert a.value == 0.0  # slot was released by serve()'s finally


# -- virtual stretches --------------------------------------------------------


def _hold(res, service, rest, priority=0.0, retry=0.0):
    return (res, service, rest, priority, retry)


def _scripted_or_loop(scripted, sim, legs):
    """The owner of ``legs``: one leg script, or the loop it stands in for."""
    if scripted:
        marks = yield LegScript(sim, legs)
        assert marks[-1] == sim.now and len(marks) == len(legs)
        return marks
    marks = []
    for leg in legs:
        yield from _leg_loop(sim, [leg])
        marks.append(sim.now)
    return marks


def test_coalesced_cycles_end_where_the_per_item_loop_ends():
    """An uncontended script of three holds with delays between them is
    one virtual stretch: the loop's marks, end and statistics, three
    acquisitions folded in at once."""
    def world(scripted):
        sim = Simulator()
        res = Resource(sim)
        hold = _hold(res, 0.016, 0.1)
        owner = sim.process(
            _scripted_or_loop(scripted, sim, [hold, 0.4, hold, 0.005, hold])
        )
        end = sim.run()
        return (
            (owner.value, end, res.total_acquisitions, res.total_wait_time),
            (res.coalesced_runs, res.coalesced_cycles),
        )

    (script, runs), (loop, no_runs) = world(True), world(False)
    assert script == loop
    assert (runs, no_runs) == ((1, 3), (0, 0))


def test_try_begin_run_is_the_one_leg_case():
    """``try_begin_run(n, service, gap)`` is the script of ``n`` equal
    holds: one virtual stretch of ``n`` cycles."""
    def end(begin):
        sim = Simulator()
        res = Resource(sim)

        def prog():
            marks = yield begin(res)
            assert len(marks) == 5

        sim.process(prog())
        return sim.run(), res.coalesced_runs, res.coalesced_cycles

    assert end(lambda r: r.try_begin_run(5, 0.0126, 0.1)) == end(
        lambda r: LegScript(r.sim, [_hold(r, 0.0126, 0.1)] * 5)
    ) == (pytest.approx(5 * 0.1126), 1, 5)


@pytest.mark.parametrize("service,cycles", [
    (0.01, []),                  # no cycles
    (0.01, [(0.1,), ()]),        # a cycle without a gap
    (0.01, [(0.1, 0.0)]),        # an empty leg: the loop would not yield
    (0.0, [(0.1,)]),             # no service window
])
def test_coalesced_run_refused(service, cycles):
    """Cycles the loop would not run event for event make no script --
    rejected before the resource is touched or anything is scheduled."""
    sim = Simulator()
    res = Resource(sim)
    legs = []
    for gaps in cycles:
        legs += [_hold(res, service, gaps[0] if gaps else 0.0), *gaps[1:]]
    with pytest.raises(SimError):
        LegScript(sim, legs)
    assert res.idle and sim.queued_events == 0


def test_coalesced_run_needs_an_idle_resource():
    sim = Simulator()
    res = Resource(sim)
    assert res.try_begin_run(2, 0.01, 0.1) is not None
    assert not res.idle
    assert res.try_begin_run(2, 0.01, 0.1) is None


@pytest.mark.parametrize("shape", ["one-hold", "alternation", "busy", "two-slots"])
def test_script_without_a_stretch_runs_all_real(shape):
    """No virtual stretch where it would not begin at an idle single
    slot with the same hold twice in a row: a lone hold, holds that
    alternate with another resource's (the MPB-to-MPB line loop), a
    resource already held, a resource of two slots.  The script is the
    loop, hold for hold."""
    def world(scripted):
        sim = Simulator()
        res = Resource(sim, capacity=2 if shape == "two-slots" else 1)
        other = Resource(sim)
        hold = _hold(res, 0.5, 0.25)
        legs = {
            "one-hold": [0.3, hold, 0.7],
            "alternation": [hold, _hold(other, 0.5, 0.25)] * 3,
        }.get(shape, [hold] * 3)
        if shape == "busy":
            sim.process(res.serve(0.2))
        owner = sim.process(_scripted_or_loop(scripted, sim, legs))
        sim.run()
        return owner.value, res.stats(), other.stats()

    script, loop = world(True), world(False)
    assert script == loop
    assert script[1]["coalesced_runs"] == 0


#: Cycle k of the owner's script [hold(1, 1/2), 1/4] * 3 starts at
#: 7k/4: a service window of 1, the rest of 1/2, a delay of 1/4 -- every
#: instant an exact binary fraction, so the intruder's request lands on
#: the very float the loop schedules.
_STRETCH_INTRUSIONS = {
    "service-window": 2.0,
    "rest-leg": 3.0,
    "delay-leg": 3.375,
    "service-rest-boundary": 2.75,
    "rest-delay-boundary": 3.25,
    "cycle-boundary": 1.75,
}


@pytest.mark.parametrize("where", list(_STRETCH_INTRUSIONS))
def test_intrusion_into_a_virtual_stretch_is_the_loop(where):
    """Another requester's acquire lands anywhere in the owner's second
    cycle: the stretch ends there, the rest of the script is real holds
    (no second stretch), and every end time, mark and statistic is the
    loop's."""
    at = _STRETCH_INTRUSIONS[where]

    def world(scripted):
        sim = Simulator()
        res = Resource(sim)
        legs = [_hold(res, 1.0, 0.5), 0.25] * 3

        def intruder():
            yield sim.timeout(at)
            waited = yield from res.serve(0.125)
            return sim.now, waited

        owner = sim.process(_scripted_or_loop(scripted, sim, legs))
        other = sim.process(intruder())
        sim.run()
        stats = res.stats()
        runs = stats.pop("coalesced_runs"), stats.pop("coalesced_cycles")
        if where == "service-rest-boundary":
            # The documented residual: a request on a virtual window's
            # end is granted at once, where the loop queues it for zero
            # time.
            stats.pop("max_queue")
        return (owner.value, other.value, stats, res.queue_time), runs

    (script, runs), (loop, no_runs) = world(True), world(False)
    assert script == loop
    assert runs == (1, 1 if where == "cycle-boundary" else 2)
    assert no_runs == (0, 0)


def test_stretch_ends_before_younger_timers_of_its_last_window_end():
    """The marker that ends a stretch takes its sequence number when the
    stretch begins: a second owner whose timer, younger than that, fires
    on the very instant the first stretch's last window closes finds the
    resource idle again and runs a stretch of its own."""
    sim = Simulator()
    res = Resource(sim)
    legs = [_hold(res, 1.0, 0.5)] * 2

    def second():
        yield sim.timeout(0.5)
        yield sim.timeout(2.0)  # 2.5: the first stretch's last window end
        yield LegScript(sim, legs)

    sim.process(_scripted_or_loop(True, sim, legs))
    sim.process(second())
    sim.run()
    assert (res.coalesced_runs, res.coalesced_cycles) == (2, 4)
    assert res.total_wait_time == 0.0


# -- leg scripts ----------------------------------------------------------------


def _leg_loop(sim, legs):
    """The generator loop a leg script stands in for."""
    for leg in legs:
        if type(leg) is not tuple:
            yield sim.timeout(leg)
            continue
        res, service, rest, priority, retry = leg
        waited = yield from res.serve(service, priority)
        if waited > 0.0 and retry > 0.0:
            yield sim.timeout(waited * retry)
        yield sim.timeout(rest)


def test_leg_script_is_the_loop():
    """Three owners with different priorities and retry factors on one
    resource, as scripts and as loops: same end times, same marks, same
    resource statistics.  The first owner's stretch is virtual for the
    instant before the others' requests end it."""
    def world(scripted):
        sim = Simulator()
        res = Resource(sim)
        ends = {}

        def owner(tag, priority, retry):
            legs = [0.3, *[(res, 0.5, 0.25, priority, retry)] * 4, 0.7]
            if scripted:
                marks = yield LegScript(sim, legs)
                assert marks[-1] == sim.now and len(marks) == len(legs)
            else:
                yield from _leg_loop(sim, legs)
            ends[tag] = sim.now

        for tag, (priority, retry) in enumerate([(2.0, 0.5), (0.0, 0.0), (1.0, 0.25)]):
            sim.process(owner(tag, priority, retry))
        sim.run()
        stats = res.stats()
        runs = stats.pop("coalesced_runs"), stats.pop("coalesced_cycles")
        return (ends, stats, res.queue_time), runs

    (script, runs), (loop, no_runs) = world(True), world(False)
    assert script == loop
    assert (runs, no_runs) == ((1, 1), (0, 0))


@pytest.mark.parametrize("legs", [
    [],
    [0.0],
    [-1.0],
    [("res", 0.0, 0.1, 0.0, 0.0)],   # no service window
    [("res", 0.1, 0.0, 0.0, 0.0)],   # no rest: the loop would not yield
    [("res", 0.1, 0.1, 0.0, -1.0)],
])
def test_leg_script_rejects_durations_the_loop_would_not_yield_for(legs):
    sim = Simulator()
    with pytest.raises(SimError):
        LegScript(sim, legs)
    assert sim.queued_events == 0


def _interrupt_at(sim, victim, t):
    def prog():
        yield sim.timeout(t)
        victim.interrupt("test")
    sim.process(prog())


def _swallow(gen):
    """Run ``gen``; an Interrupted ends the process quietly."""
    try:
        yield from gen
    except Interrupted:
        return "interrupted"


def test_interrupted_script_releases_mid_service():
    """The owner is thrown into inside its 10-unit service window: the
    waiter behind it is granted at the interrupt time, not at the
    window's end."""
    sim = Simulator()
    res = Resource(sim)
    granted = []

    def owner():
        yield LegScript(sim, [(res, 10.0, 1.0, 0.0, 0.0)] * 3)

    def waiter():
        yield sim.timeout(1.0)
        waited = yield res.acquire()
        granted.append((sim.now, waited))
        res.release()

    victim = sim.process(_swallow(owner()))
    sim.process(waiter())
    _interrupt_at(sim, victim, 4.0)
    sim.run()
    assert victim.value == "interrupted"
    assert granted == [(4.0, 3.0)]
    assert res.in_use == 0
    assert res.total_acquisitions == 2  # the script's later legs never ran
    assert res.busy_time == 4.0


def test_interrupted_script_leaves_the_queue():
    """The owner is thrown into while its request is queued: the queue
    skips it -- the next waiter gets the slot and nothing is leaked."""
    sim = Simulator()
    res = Resource(sim)
    granted = []

    def holder():
        yield from res.serve(10.0)

    def owner():
        yield sim.timeout(1.0)
        yield LegScript(sim, [(res, 5.0, 1.0, 0.0, 0.0)])

    def waiter():
        yield sim.timeout(2.0)
        waited = yield res.acquire()
        granted.append((sim.now, waited))
        res.release()

    sim.process(holder())
    victim = sim.process(_swallow(owner()))
    sim.process(waiter())
    _interrupt_at(sim, victim, 4.0)
    sim.run()
    assert victim.value == "interrupted"
    assert granted == [(10.0, 8.0)]
    assert res.in_use == 0 and res.queue_length == 0
    # Queue depth: 1 over [1, 2), 2 over [2, 4), 1 over [4, 10).
    assert res.queue_time == 1.0 + 2 * 2.0 + 6.0
    assert res.max_queue == 2


def test_interrupt_between_grant_and_service_releases():
    """Thrown into at the very instant of the grant, before the granted
    continuation ran: the slot the script was just given is handed back."""
    sim = Simulator()
    res = Resource(sim)

    def holder():
        yield from res.serve(2.0)

    def owner():
        yield LegScript(sim, [(res, 5.0, 1.0, 0.0, 0.0)])

    sim.process(holder())
    victim = sim.process(_swallow(owner()))  # queues behind the holder
    # The holder's release at t=2.0 grants the script.  The interrupter's
    # timer is older than the holder's, so its resumption runs first and
    # the throw lands right behind the release: after the grant, before
    # the script's granted continuation.
    _interrupt_at(sim, victim, 2.0)
    sim.run()
    assert victim.value == "interrupted"
    assert res.in_use == 0 and res.total_acquisitions == 2
    assert (sim.now, res.busy_time) == (2.0, 2.0)


def test_watchdog_killed_owner_lets_go_of_the_port():
    """A script stalled in a service window longer than the watchdog
    interval: the owner gets a WatchdogError, the port is free from that
    instant and the remaining legs never run."""
    sim = Simulator()
    res = Resource(sim, name="port")
    errors = []

    def owner():
        try:
            yield LegScript(sim, [(res, 100.0, 1.0, 0.0, 0.0)] * 3)
        except WatchdogError as err:
            errors.append((sim.now, err.site))

    sim.process(owner(), name="owner")
    sim.start_watchdog(10.0)
    sim.run()
    assert errors == [(10.0, "legs")]
    assert res.in_use == 0
    assert res.total_acquisitions == 1
    assert res.busy_time == 10.0


def test_withdraw_of_an_unknown_request_is_an_error():
    sim = Simulator()
    res = Resource(sim)
    granted = res.acquire()
    with pytest.raises(SimError, match="not queued"):
        res.withdraw(granted)
