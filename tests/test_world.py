"""The one world runner: how a run ends, on both backends.

``repro.transport.world.run_world`` is the only place that turns "what
happened to the per-rank bodies" into ``"" / deadlock / timeout /
crashed``; these tests pin that vocabulary on 4-rank toy bodies, then
guard the structure: the four harness modules build no world and
unwrap no kernel error themselves.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from repro.rcce.flags import FlagValue
from repro.scc import SccConfig
from repro.sim import DeadlockError, FaultInjected, SimError, WatchdogError
from repro.sim.errors import ScheduleInPastError
from repro.sim.errors import TimeoutError as SimTimeoutError
from repro.transport.models import NoDelay
from repro.transport.world import (
    WorldRun, asyncio_world, run_world, scc_world,
)

BACKENDS = ("scc", "asyncio")


def make_world(backend: str):
    if backend == "scc":
        return scc_world(
            SccConfig(mesh_cols=2, mesh_rows=1), watchdog_us=10_000.0
        )
    return asyncio_world(4)


def waiter(world, *, timeout=None):
    """A body part that blocks on a flag nobody ever sets."""
    flag = world.flag("never")

    def wait(cc):
        yield from cc.wait_flags(
            [flag], lambda v: v[0] == FlagValue(1, 1), timeout=timeout
        )

    return wait


@pytest.mark.parametrize("backend", BACKENDS)
class TestHowARunEnds:
    def test_every_rank_returns(self, backend):
        world = make_world(backend)

        def body(cc):
            yield from cc.compute(1.0 + cc.rank)
            return cc.rank * 10

        run = run_world(world, body)
        assert isinstance(run, WorldRun)
        assert (run.status, run.detail, run.error) == ("", "", None)
        assert run.values == (0, 10, 20, 30)  # rank order
        assert run.latency == pytest.approx(4.0)
        assert run.world is world and run.faults is None
        assert run.check() is run

    def test_a_wedge_is_a_deadlock(self, backend):
        world = make_world(backend)
        wait = waiter(world)

        def body(cc):
            if cc.rank == 2:
                yield from wait(cc)
            return "done"

        run = run_world(world, body)
        assert run.status == "deadlock" and run.values == ()
        assert isinstance(run.error, (DeadlockError, WatchdogError))
        assert run.detail == str(run.error)
        with pytest.raises((DeadlockError, WatchdogError)):
            run.check()

    def test_an_exhausted_poll_budget_is_a_timeout(self, backend):
        world = make_world(backend)
        wait = waiter(world, timeout=50.0)

        def body(cc):
            if cc.rank == 1:
                yield from wait(cc)
            return "done"

        run = run_world(world, body)
        assert run.status == "timeout" and run.values == ()
        assert isinstance(run.error, SimTimeoutError)
        assert "poll budget" in run.detail

    def test_an_escaped_crash(self, backend):
        """SCC: the kernel stops at the first escaped exception, so the
        whole run is ``crashed``.  asyncio: every rank runs to its own
        end, and the crash is just that rank's value."""

        def body(cc):
            yield from cc.compute(1.0)
            if cc.rank == 2:
                raise FaultInjected("core 2 is gone", site="core2")
            return "done"

        run = run_world(make_world(backend), body)
        if backend == "scc":
            assert run.status == "crashed" and run.values == ()
            assert isinstance(run.error, FaultInjected)
            assert run.latency == 0.0
        else:
            assert run.status == "" and run.error is None
            assert run.values == ("done", "done", "crashed", "done")

    def test_a_foreign_exception_propagates(self, backend):
        def body(cc):
            yield from cc.compute(1.0)
            if cc.rank == 3:
                raise ValueError("harness bug")
            return "done"

        with pytest.raises((ValueError, SimError)) as ei:
            run_world(make_world(backend), body)
        # The SCC kernel wraps it (``SimError(...) from exc``); either
        # way it is never classified as an outcome.
        cause = ei.value if backend == "asyncio" else ei.value.__cause__
        assert isinstance(cause, ValueError)


    @pytest.mark.parametrize("duration", [-1.0, -1e-9])
    def test_a_negative_duration_is_rejected(self, backend, duration):
        def body(cc):
            yield from cc.compute(duration)
            return "done"

        with pytest.raises(SimError) as ei:
            run_world(make_world(backend), body)
        cause = ei.value if backend == "asyncio" else ei.value.__cause__
        assert isinstance(cause, ScheduleInPastError)


def test_asyncio_rejects_a_nan_duration_naming_rank_and_site():
    def body(cc):
        yield from cc.compute(float("nan") if cc.rank == 2 else 1.0)

    with pytest.raises(ScheduleInPastError, match="rank 2 at 'compute'.*nan"):
        run_world(asyncio_world(4), body)


def test_a_model_delay_of_nan_raises_instead_of_misordering_the_heap():
    class Broken(NoDelay):
        def delay(self, src, dst, *, op, nbytes):
            return float("nan") if (src, dst) == (1, 0) else 1.0

    world = asyncio_world(3, model=Broken())
    flag = world.flag("f")

    def body(cc):
        yield from cc.flag_set((cc.rank + 2) % 3, flag, FlagValue(1, 1))
        return "sent"

    results = world.run(body, return_exceptions=True)
    assert results[0] == results[2] == "sent"
    assert isinstance(results[1], ScheduleInPastError)
    assert "rank 1" in str(results[1]) and "nan" in str(results[1])


def test_asyncio_world_runs_inside_a_running_event_loop():
    """Virtual time needs no selector, so no loop of ours can collide
    with the caller's (a notebook, an async test runner)."""
    import asyncio

    from repro.transport.scenarios import run_asyncio

    async def main():
        return run_asyncio("ft_broadcast", 1).digest

    assert asyncio.run(main()) == run_asyncio("ft_broadcast", 1).digest


@pytest.mark.parametrize(
    "fields, named",
    [
        (dict(nranks=0, mesh=(2, 2), chunks=1), "nranks"),
        (dict(nranks=8, mesh=(2, 2), chunks=0), "chunks"),
        (dict(nranks=8, mesh=(2, 2), chunks=1,
              crash=(9, "oc.chunk.begin", 1)), "crash rank 9"),
        (dict(nranks=8, mesh=(2, 2), chunks=1,
              crash=(-1, "oc.chunk.begin", 1)), "crash rank -1"),
        (dict(nranks=8, mesh=(2, 2), chunks=1,
              crash=(0, "oc.chunk.begn", 1)), "'oc.chunk.begn' is not"),
        (dict(nranks=8, mesh=(2, 2), chunks=1,
              crash=(0, "put", 1)), "'put' is not"),
    ],
    ids=["no-ranks", "no-chunks", "crash-rank-past-end", "negative-crash-rank",
         "crash-kind-typo", "crash-kind-wire-record"],
)
def test_scenario_rejects_what_it_would_mis_simulate(fields, named):
    """Each would otherwise run: the crash never fires (rank 9 of 8, or
    a kind no rank traces), zero chunks broadcast zero bytes, and every
    rank reports ``ok``."""
    from repro.transport.scenarios import Scenario

    with pytest.raises(ValueError, match=named):
        Scenario("z", **fields)


@pytest.mark.parametrize("runner", ["run_scc", "run_asyncio"])
def test_unknown_scenario_name_lists_the_known_ones(runner):
    from repro.transport import scenarios

    with pytest.raises(ValueError, match="unknown scenario 'nope'.*ft_broadcast"):
        getattr(scenarios, runner)("nope", 1)


def test_asyncio_body_yielding_outside_a_primitive_is_an_error():
    """Not a silently lost rank: nothing would ever resume it."""

    def body(cc):
        yield from cc.compute(1.0)
        if cc.rank == 1:
            yield "not a primitive"

    with pytest.raises(TypeError, match="rank 1 yielded outside"):
        run_world(asyncio_world(2), body)


def test_asyncio_deadlock_beats_timeout():
    """Both endings in one run: the wedge (termination oracle) wins,
    whichever rank hit which."""
    world = asyncio_world(4)
    forever, bounded = waiter(world), waiter(world, timeout=50.0)

    def body(cc):
        if cc.rank == 1:
            yield from bounded(cc)
        if cc.rank == 3:
            yield from forever(cc)
        return "done"

    run = run_world(world, body)
    assert run.status == "deadlock"
    assert isinstance(run.error, DeadlockError)
    assert run.latency == 50.0  # an asyncio run reports its clock at the wedge


# -- structure guards ----------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The harnesses that used to each wire chip + Comm + watchdog + crash
#: hook and unwrap ``SimError.__cause__`` themselves.
CONSUMERS = (
    "bench/faultcampaign.py", "bench/churn.py", "chaos/runner.py",
    "transport/scenarios.py",
)
FORBIDDEN_CALLS = {
    "run_spmd", "SccChip", "AsyncioNetwork", "FaultInjector",
    "start_watchdog",
}


@pytest.mark.parametrize("path", CONSUMERS)
def test_harness_builds_no_world_of_its_own(path):
    tree = ast.parse((SRC / path).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else \
                getattr(fn, "id", None)
            assert name not in FORBIDDEN_CALLS, (
                f"{path}:{node.lineno} calls {name}(): build worlds with "
                f"repro.transport.world.scc_world / asyncio_world and run "
                f"them with run_world"
            )
        if isinstance(node, ast.Attribute):
            assert node.attr != "__cause__", (
                f"{path}:{node.lineno} unwraps __cause__: how a run ends "
                f"is decided once, in repro.transport.world.run_world"
            )


def test_seeded_payload_is_drawn_in_one_place():
    for path in ("bench/faultcampaign.py", "chaos/runner.py",
                 "bench/harness.py"):
        assert "default_rng(" not in (SRC / path).read_text(), path


def test_bench_does_not_import_asyncio():
    """Nor does anything else: the asyncio backend is its own
    virtual-time loop, so even *running* a service scenario on it never
    loads the standard library's event-loop machinery."""
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.bench\n"
         "from repro.transport.scenarios import run_asyncio\n"
         "assert run_asyncio('ft_broadcast', 1).outcomes == ('ok',) * 8\n"
         "print('asyncio' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(SRC.parent), "PATH": ""},
    )
    assert out.stdout.strip() == "False"
