"""The direct virtual-time scheduler against the Task/Future one it replaced.

``repro.transport.asyncio_backend`` steps the rank generators itself;
``tests/reference_asyncio_network.py`` keeps the parent's scheduler
(real ``asyncio`` Tasks and Futures) verbatim as the oracle.  Both run
the same bodies on the same stores, models, injector and ``Endpoint``,
and everything observable must be ``==``: the *full timed record list*
(``time, source, kind, detail``), the per-rank return values, ``net.now``,
the injector's ``injected`` / ``recoveries``, and when a run fails the
``DeadlockError`` / ``TimeoutError`` message and ``stuck`` tuple.  Every
remote operation draws its latency from a seeded per-link stream in heap
order, so one re-ordered step shifts every later draw and record.

The ordering contract this pins:

1. all ranks start runnable, in rank order;
2. released ranks resume FIFO, in release order;
3. the clock advances only at quiescence, to the earliest live
   ``(deadline, seq)`` entry, releasing exactly one rank; stale entries
   are discarded without moving the clock;
4. a landed store write releases the store owner's waiter at that
   instant, behind the ranks already released;
5. a rank whose own block is released by its own quiescence check
   continues before any other rank released in that step (on the oracle:
   ``await`` on an already-done future does not yield) -- visible only
   at a wedge, where every blocked rank is released in blocking order
   with the same error;
6. ``seq`` is drawn at block time for every timed block, zero-delay
   checkpoints included.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.rcce.flags import FlagValue
from repro.sim.errors import DeadlockError
from repro.transport.api import CrashOnEvent
from repro.transport.asyncio_backend import AsyncioNetwork
from repro.transport.models import LinkDrop, NoDelay, Partition, UniformDelay
from repro.transport.scenarios import SCENARIOS, Scenario, run_asyncio
from repro.transport.world import bcast_body, mode_config, seeded_payload

from ..reference_asyncio_network import AsyncioNetwork as OracleNetwork

pytestmark = pytest.mark.differential

SCHEDULERS = (OracleNetwork, AsyncioNetwork)
MODES = ("baseline", "ft", "service", "byz")
MODELS = ("none", "uniform", "linkdrop", "partition")
RANKS = (2, 3, 5, 8)
VARIANTS = ("clean", "plan", "crash")
CHUNK_BYTES = 96 * 32


def build_model(name: str, nranks: int):
    if name == "uniform":
        return UniformDelay(0.05, 5.0)
    if name == "linkdrop":
        return LinkDrop(0.05, 0.05, 2.0)
    if name == "partition":
        half = nranks // 2
        return Partition([range(half), range(half, nranks)], 400.0)
    return NoDelay()


def build_plan(variant: str, nranks: int, kind: FaultKind) -> FaultPlan | None:
    if variant != "plan":
        return None
    sustained = (
        dict(duration=900.0, period=300.0, duty=0.15)
        if kind is FaultKind.FLAPPING_LINK else
        dict(duration=150.0) if kind is FaultKind.LINK_STALL else {}
    )
    spec = FaultSpec(kind, core=nranks - 1, nth=1, **sustained)
    return FaultPlan((spec,), label="equivalence", num_cores=nranks)


def timed(records) -> list:
    return [(r.time, r.source, r.kind, r.detail) for r in records]


def observe(net, body) -> tuple:
    """Everything a run of ``body`` on ``net`` lets an observer see."""
    results = net.run(body, return_exceptions=True)
    values = tuple(
        (type(r).__name__, str(r), getattr(r, "stuck", None))
        if isinstance(r, BaseException) else r
        for r in results
    )
    faults = net.faults and (list(net.faults.injected), list(net.faults.recoveries))
    return timed(net.tracer.records), values, net.now, faults


def observe_bcast(
    scheduler, nranks, mode, model, variant, chunks, seed,
    kind=FaultKind.DROP_FLAG_WRITE,
) -> tuple:
    net = scheduler(
        nranks, model=build_model(model, nranks), seed=seed,
        plan=build_plan(variant, nranks, kind), time_limit=1_000_000.0,
    )
    if variant == "crash":
        net.transport_faults = CrashOnEvent(nranks - 1, "oc.chunk.begin", nth=1)
    payload = seeded_payload(seed, chunks * CHUNK_BYTES)
    return observe(net, bcast_body(net, mode_config(mode), payload))


def assert_same(case, observe_on) -> tuple:
    oracle, direct = (observe_on(s) for s in SCHEDULERS)
    for what, a, b in zip(("records", "values", "now", "faults"), oracle, direct):
        assert a == b, f"{case}: {what} differ between the schedulers"
    return direct


@pytest.mark.parametrize(
    "nranks,mode,model", list(itertools.product(RANKS, MODES, MODELS))
)
def test_broadcasts_are_scheduled_identically(nranks, mode, model):
    endings = set()
    for variant, chunks in itertools.product(VARIANTS, (1, 2, 3)):
        _, values, _, _ = assert_same(
            (nranks, mode, model, variant, chunks),
            lambda s: observe_bcast(s, nranks, mode, model, variant, chunks, 3),
        )
        endings |= {v[0] if isinstance(v, tuple) else v for v in values}
    # The matrix must reach the wedge and the poll budget through real
    # protocols, not only through the hand-written bodies below.
    if (mode, model) == ("baseline", "partition"):
        assert "DeadlockError" in endings
    if (mode, model) == ("ft", "partition"):
        assert "TimeoutError" in endings


def run_scenario_on_both(monkeypatch, scenario, seed) -> None:
    """A shared scenario through the public runner, once per scheduler."""
    import repro.transport.world as world

    runs = []
    for scheduler in SCHEDULERS:
        monkeypatch.setattr(world, "AsyncioNetwork", scheduler)
        res = run_asyncio(scenario, seed)
        runs.append((
            timed(res.records), res.outcomes,
            res.faults and (list(res.faults.injected), list(res.faults.recoveries)),
        ))
    assert runs[0] == runs[1]
    assert len(runs[0][0]) > 100


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_shared_scenarios_are_scheduled_identically(name, monkeypatch):
    """The pinned differential scenarios: adaptive pacing, the flapping
    link, the Byzantine quorum."""
    run_scenario_on_both(monkeypatch, name, 5)


def test_48_rank_service_is_scheduled_identically(monkeypatch):
    scenario = Scenario("equivalence_48", 48, (6, 4), chunks=3)
    run_scenario_on_both(monkeypatch, scenario, 1)


@settings(
    max_examples=150, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    nranks=st.integers(2, 8),
    mode=st.sampled_from(MODES),
    model=st.sampled_from(MODELS),
    variant=st.sampled_from(VARIANTS),
    chunks=st.integers(1, 3),
    seed=st.integers(0, 2**20),
    kind=st.sampled_from((
        FaultKind.DROP_FLAG_WRITE, FaultKind.CORRUPT_FLAG_WRITE,
        FaultKind.DROP_DATA_WRITE, FaultKind.LINK_STALL,
        FaultKind.FLAPPING_LINK,
    )),
)
def test_sweep(nranks, mode, model, variant, chunks, seed, kind):
    assert_same(
        (nranks, mode, model, variant, chunks, seed, kind.value),
        lambda s: observe_bcast(
            s, nranks, mode, model, variant, chunks, seed, kind
        ),
    )


# -- wedges and the ordering rules, one hand-written body each ----------------


def never(net):
    """A wait on a flag nobody writes (optionally bounded)."""
    flag = net.flag("never")

    def wait(cc, timeout=None):
        yield from cc.wait_flags(
            [flag], lambda v: v[0] == FlagValue(1, 1), timeout=timeout
        )

    return wait


def unwinding(net, part):
    """``part(cc)``, with the order in which the wedge reaches the ranks
    made visible as trace records."""

    def body(cc):
        try:
            yield from part(cc)
        except DeadlockError:
            net.emit(f"rank{cc.rank}", "test.unwound")
            raise
        return cc.rank

    return body


def wedge_case(build, *, nranks=4, **net_kwargs) -> tuple:
    def observe_on(scheduler):
        net = scheduler(nranks, **net_kwargs)
        return observe(net, build(net))

    return assert_same(build.__name__, observe_on)


def test_wedge_with_the_heap_dry():
    """Found by a rank *finishing* (rank 0, last to run): the blocked
    ranks unwind in blocking order, 3 before 1."""

    def heap_dry(net):
        wait = never(net)

        def part(cc):
            yield from cc.compute(1.0 + cc.rank)
            if cc.rank % 2:
                yield from wait(cc)

        return unwinding(net, part)

    records, values, now, _ = wedge_case(heap_dry)
    assert now == 4.0 and values[0] == 0 and values[2] == 2
    assert "no pending event" in values[1][1]
    assert [r[1] for r in records if r[2] == "test.unwound"] == ["rank3", "rank1"]


def test_wedge_with_the_next_event_beyond_the_time_limit():
    def capped(net):
        wait = never(net)

        def part(cc):
            if cc.rank == 0:
                yield from cc.compute(500.0)
            else:
                yield from wait(cc, timeout=20.0 if cc.rank == 1 else None)

        return unwinding(net, part)

    _, values, now, _ = wedge_case(capped, time_limit=100.0)
    assert now == 20.0
    assert values[1][0] == "TimeoutError"
    assert "beyond time_limit=100" in values[0][1]
    assert values[0][2] == (("rank0", "compute", 20.0), ("rank2", "never", 20.0),
                            ("rank3", "never", 20.0))


def test_wedge_found_by_a_ranks_own_block_resumes_it_first():
    """Rule 5, and blocking order (2, 0, 1) rather than rank order."""

    def own_block(net):
        wait = never(net)

        def part(cc):
            yield from cc.compute({2: 1.0, 0: 2.0, 1: 3.0, 3: 4.0}[cc.rank])
            yield from wait(cc)

        return unwinding(net, part)

    records, values, _, _ = wedge_case(own_block)
    assert [r[1] for r in records if r[2] == "test.unwound"] == [
        "rank3", "rank2", "rank0", "rank1",
    ]
    assert [name for name, _, _ in values[0][2]] == [
        "rank2", "rank0", "rank1", "rank3",
    ]


def test_blocking_again_after_a_wedge():
    def already_wedged(net):
        wait = never(net)

        def body(cc):
            try:
                yield from wait(cc)
            except DeadlockError:
                net.emit(f"rank{cc.rank}", "test.unwound")
            yield from cc.compute(1.0)

        return body

    _, values, _, _ = wedge_case(already_wedged)
    assert all("already wedged" in v[1] for v in values)


def test_a_stale_deadline_does_not_move_the_clock():
    """Rule 3: rank 0's bounded wait is satisfied at t=10; its t=100
    heap entry must be dropped without the clock visiting it."""

    def stale(net):
        flag = net.flag("go")

        def body(cc):
            if cc.rank == 0:
                yield from cc.wait_flags(
                    [flag], lambda v: v[0] == FlagValue(1, 1), timeout=100.0
                )
            elif cc.rank == 1:
                yield from cc.compute(10.0)
                yield from cc.flag_set(0, flag, FlagValue(1, 1))
            net.emit(f"rank{cc.rank}", "test.done")
            return cc.now

        return body

    _, values, now, _ = wedge_case(stale)
    assert now == 10.0 and values[0] == 10.0


def test_a_landed_write_releases_the_waiter_behind_released_ranks():
    """Rules 2, 4 and 6 with every delay zero: the only thing ordering
    the records is the ready queue and ``seq``."""

    def fan_in(net):
        flags = [net.flag(f"f{r}") for r in range(net.size)]
        one = FlagValue(1, 1)

        def body(cc):
            if cc.rank == 0:
                for r in range(1, cc.size):
                    yield from cc.flag_set(r, flags[r], one)
                    net.emit("rank0", "test.sent", to=r)
            else:
                yield from cc.wait_flags([flags[cc.rank]], lambda v: v[0] == one)
                net.emit(f"rank{cc.rank}", "test.got")
                yield from cc.compute(0.0)
                net.emit(f"rank{cc.rank}", "test.after")
            return cc.rank

        return body

    records, _, now, _ = wedge_case(fan_in, nranks=5)
    assert now == 0.0
    assert len([r for r in records if r[2].startswith("test.")]) == 12
