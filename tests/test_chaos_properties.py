"""Property tests for the chaos schedule generator (satellite: the
zero-invalid-draw guarantee).

The generator rejection-samples against :meth:`ChaosSchedule.validate`,
which routes through the :class:`repro.faults.FaultPlan` rules
(site-overlap rejection, adversary-core ranges, equivocation windows)
plus the transport-level layering.  These tests pin the contract across
200 seeds and both backends:

- every generated schedule re-validates (``FaultPlan`` construction
  included) -- no draw that merely slipped through;
- generation is deterministic: the same seed yields the same stream;
- schedules survive a JSON round trip unchanged (the repro-bundle
  substrate);
- structural bounds hold: event counts, mode/backend membership,
  intensity windows far under the watchdog, at most one crash.
"""

import pytest

from repro.chaos import BACKENDS, ChaosSchedule, ScheduleGenerator
from repro.chaos.generate import (
    _BURST_RANGE, _CHURN_GAP_RANGE, _FLAP_DURATION_RANGE, _FLAP_DUTY_RANGE,
    _FLAP_PERIOD_RANGE, _PAUSE_RANGE, _STALL_RANGE, _STORM_DURATION_RANGE,
    _STORM_STALL_RANGE, _SUSPICION_BOUND,
)
from repro.faults import FaultKind

N_SEEDS = 200
#: Small meshes keep the profiling runs (memoised per coordinate) cheap.
MESHES = ((2, 2), (3, 2))


def _generate(seed: int, backend: str, n: int = 2) -> list[ChaosSchedule]:
    return ScheduleGenerator(
        seed=seed, backends=(backend,), meshes=MESHES,
    ).generate(n)


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_generated_schedule_validates(backend):
    for seed in range(N_SEEDS):
        for schedule in _generate(seed, backend):
            plan = schedule.validate()  # raises on any rule breach
            assert plan.specs == schedule.specs
            assert schedule.backend == backend
            assert schedule.mode in ("service", "byz", "ft")


@pytest.mark.parametrize("backend", BACKENDS)
def test_generation_is_deterministic(backend):
    for seed in (0, 7, 199):
        assert _generate(seed, backend, n=6) == _generate(backend=backend,
                                                          seed=seed, n=6)


@pytest.mark.parametrize("backend", BACKENDS)
def test_json_round_trip_identity(backend):
    for seed in range(0, N_SEEDS, 5):
        for schedule in _generate(seed, backend):
            assert ChaosSchedule.from_json(schedule.to_json()) == schedule


def test_structural_bounds_hold():
    for seed in range(N_SEEDS):
        gen = ScheduleGenerator(seed=seed, meshes=MESHES)
        for schedule in gen.generate(2):
            assert 1 <= schedule.chunks <= gen.max_chunks
            # Injector specs and the crash share the event budget; a
            # lossy network model is one extra composite event on top.
            n_injector = len(schedule.specs) + (schedule.crash is not None)
            assert n_injector <= gen.max_events
            assert schedule.n_events <= gen.max_events + 1
            assert schedule.mesh in MESHES
            # At most one crash event of any flavour (a REPEATED_CRASH
            # is one churn *event*, though it kills two cores).
            n_crash = (schedule.crash is not None) + sum(
                s.kind.crash for s in schedule.specs
            )
            assert n_crash <= 1
            for spec in schedule.specs:
                if spec.kind.adversarial:
                    assert schedule.mode == "byz"
                elif schedule.mode == "byz":
                    # Benign companions of adversaries stay under the
                    # vote rounds: no bursts/pauses silencing a voter.
                    assert spec.kind in (FaultKind.DROP_FLAG_WRITE,
                                         FaultKind.CORRUPT_FLAG_WRITE,
                                         FaultKind.LINK_STALL)
                if spec.kind is FaultKind.LINK_STALL:
                    assert _STALL_RANGE[0] <= spec.duration <= _STALL_RANGE[1]
                if spec.kind is FaultKind.LINK_DOWN:
                    assert _BURST_RANGE[0] <= spec.duration <= _BURST_RANGE[1]
                if spec.kind is FaultKind.CORE_PAUSE:
                    assert schedule.backend == "scc"
                    assert _PAUSE_RANGE[0] <= spec.duration <= _PAUSE_RANGE[1]
                # Sustained regimes: SCC-only, service mode only, and
                # every intensity stays inside the stock-suspicion
                # envelope the generator docstring promises.
                if spec.kind is FaultKind.FLAPPING_LINK:
                    assert schedule.backend == "scc"
                    assert schedule.mode == "service"
                    assert spec.duration <= _FLAP_DURATION_RANGE[1]
                    assert spec.duration <= 0.5 * _SUSPICION_BOUND
                    assert _FLAP_PERIOD_RANGE[0] <= spec.period \
                        <= _FLAP_PERIOD_RANGE[1]
                    assert spec.period <= spec.duration
                    assert _FLAP_DUTY_RANGE[0] <= spec.duty \
                        <= _FLAP_DUTY_RANGE[1]
                if spec.kind is FaultKind.REPEATED_CRASH:
                    assert schedule.backend == "scc"
                    assert schedule.mode == "service"
                    # Churn only where two evictions leave quorum slack.
                    assert 2 * schedule.mesh[0] * schedule.mesh[1] >= 8
                    assert spec.cycles == 2
                    assert _CHURN_GAP_RANGE[0] <= spec.period \
                        <= _CHURN_GAP_RANGE[1]
                    assert spec.period >= _SUSPICION_BOUND
                if spec.kind is FaultKind.CONGESTION_STORM:
                    assert schedule.backend == "scc"
                    assert schedule.mode == "service"
                    assert _STORM_DURATION_RANGE[0] <= spec.duration \
                        <= _STORM_DURATION_RANGE[1]
                    assert spec.duration <= _SUSPICION_BOUND
                    assert _STORM_STALL_RANGE[0] <= spec.period \
                        <= _STORM_STALL_RANGE[1]
            if schedule.model is not None:
                assert schedule.backend == "asyncio"
                if schedule.model.faulty:
                    assert schedule.mode == "service"
                if schedule.mode == "byz":
                    assert schedule.model.name == "none"
