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


# -- coalesced runs -----------------------------------------------------------


def _per_item(sim, res, service, cycles):
    """The loop a coalesced run stands in for."""
    for legs in cycles:
        yield from res.serve(service)
        for leg in legs:
            yield sim.timeout(leg)


def test_coalesced_cycles_end_where_the_per_item_loop_ends():
    cycles = [(0.1, 0.4), (0.1, 0.005), (0.1,)]

    def coalesced(sim, res):
        done = yield res.try_begin_cycles(0.016, cycles)
        assert done == len(cycles)

    ends = []
    for body in (coalesced, lambda sim, res: _per_item(sim, res, 0.016, cycles)):
        sim = Simulator()
        res = Resource(sim)
        sim.process(body(sim, res))
        ends.append((sim.run(), res.total_acquisitions, res.total_wait_time))
    assert ends[0] == ends[1]


def test_try_begin_run_is_the_one_leg_case():
    def end(begin):
        sim = Simulator()
        res = Resource(sim)

        def prog():
            assert (yield begin(res)) == 5

        sim.process(prog())
        return sim.run(), res.coalesced_runs, res.coalesced_cycles

    assert end(lambda r: r.try_begin_run(5, 0.0126, 0.1)) == end(
        lambda r: r.try_begin_cycles(0.0126, [(0.1,)] * 5)
    ) == (pytest.approx(5 * 0.1126), 1, 5)


@pytest.mark.parametrize("service,cycles", [
    (0.01, []),                  # no cycles
    (0.01, [(0.1,), ()]),        # a cycle without a gap
    (0.01, [(0.1, 0.0)]),        # an empty leg: the loop would not yield
    (0.0, [(0.1,)]),             # no service window
])
def test_coalesced_run_refused(service, cycles):
    res = Resource(Simulator())
    assert res.try_begin_cycles(service, cycles) is None
    assert res.idle


def test_coalesced_run_needs_an_idle_resource():
    sim = Simulator()
    res = Resource(sim)
    assert res.try_begin_run(2, 0.01, 0.1) is not None
    assert not res.idle
    assert res.try_begin_run(2, 0.01, 0.1) is None


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
    resource statistics."""
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
        return ends, res.stats(), res.queue_time

    assert world(True) == world(False)


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
