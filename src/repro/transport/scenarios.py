"""Shared differential scenarios: one protocol program, two backends.

Each scenario is a seeded, deterministic run of the fault-tolerant
broadcast service -- the *same* generator program
(:func:`repro.transport.world.bcast_body`) run on an SCC world and on
an asyncio world.  The differential harness replays a scenario
with the same seed on both backends and asserts that the canonical
decision traces (:mod:`repro.transport.decisions`) are identical while
latencies diverge freely.

Scenario determinism rests on margins, not luck: the delay models used
here draw latencies of at most a few microseconds per operation, two
orders of magnitude under the smallest protocol budget (the 300-us
doneFlag timeout), so no timeout can fire on one backend and not the
other.  Fault coordinates are occurrence-based (the injector's nth
matching write into one destination store, or a
:class:`~repro.transport.api.CrashOnEvent` trace coordinate), which are
functions of per-rank program order, not of global timing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property

from ..core.ocbcast import DEFAULT_CHUNK_LINES, OcBcastConfig
from ..faults.injector import FaultInjector
from ..faults.plan import FaultKind, FaultPlan, FaultSpec
from ..member.heartbeat import MembershipConfig
from ..resilience import DetectorConfig, RetryPolicy
from ..scc.config import CACHE_LINE, SccConfig
from ..sim.trace import TraceRecord
from .api import CrashOnEvent
from .decisions import decision_digest
from .models import DelayModel, UniformDelay
from .world import asyncio_world, bcast_body, mode_config, run_world, scc_world

CHUNK_BYTES = DEFAULT_CHUNK_LINES * CACHE_LINE


@dataclass(frozen=True)
class Scenario:
    """One differential scenario (backend-agnostic description)."""

    name: str
    nranks: int
    mesh: tuple[int, int]  # (cols, rows); cores = 2 * cols * rows
    chunks: int
    byz: bool = False
    #: Injector plan riding the transport's write hooks (both backends).
    plan_specs: tuple[FaultSpec, ...] = ()
    #: (rank, trace kind, nth) for a CrashOnEvent, or None.
    crash: tuple[int, str, int] | None = None
    #: Run the service with the adaptive resilience configuration:
    #: seeded-backoff :class:`repro.resilience.RetryPolicy` pacing on the
    #: heartbeat / view / FT write paths and phi-accrual suspicion.  The
    #: policy's virtual-time pauses are a pure function of (rank, site,
    #: seed), so the schedule is identical on both backends; phi history
    #: differs freely (``resilience.*`` kinds are not decision records).
    adaptive: bool = False

    def __post_init__(self) -> None:
        # Unchecked, each of these would run and mis-simulate: a crash on
        # a rank that does not exist, or at a kind no rank emits, never
        # fires, zero chunks broadcast zero bytes, and either reports
        # every rank "ok".
        if self.nranks < 1:
            raise ValueError(
                f"scenario {self.name!r}: nranks must be >= 1, got {self.nranks}"
            )
        if self.chunks < 1:
            raise ValueError(
                f"scenario {self.name!r}: chunks must be >= 1, got {self.chunks}"
            )
        if self.crash is not None and not 0 <= self.crash[0] < self.nranks:
            raise ValueError(
                f"scenario {self.name!r}: crash rank {self.crash[0]} outside "
                f"0..{self.nranks - 1}"
            )
        self.crash_hook()  # the coordinate's own checks

    @property
    def nbytes(self) -> int:
        return self.chunks * CHUNK_BYTES

    def plan(self) -> FaultPlan | None:
        if not self.plan_specs:
            return None
        return FaultPlan(self.plan_specs, label=self.name, num_cores=self.nranks)

    def crash_hook(self) -> CrashOnEvent | None:
        if self.crash is None:
            return None
        rank, kind, nth = self.crash
        return CrashOnEvent(rank, kind, nth=nth)


SCENARIOS: dict[str, Scenario] = {
    # Plain FT broadcast, fault-free: the decision baseline.
    "ft_broadcast": Scenario(
        name="ft_broadcast", nranks=8, mesh=(2, 2), chunks=2
    ),
    # The source crashes at its first chunk staging; survivors time out,
    # report, elect rank 1, find no chunk holders and abort.
    "root_crash_election": Scenario(
        name="root_crash_election", nranks=8, mesh=(2, 2), chunks=1,
        crash=(0, "oc.chunk.begin", 1),
    ),
    # Byzantine quorum: core 5 lies in its first vote round; 11 honest
    # echoes still clear the quorum of 8, everyone commits.
    "byz_quorum": Scenario(
        name="byz_quorum", nranks=12, mesh=(3, 2), chunks=1, byz=True,
        plan_specs=(FaultSpec(FaultKind.LIE_IN_QUORUM, core=5, nth=1),),
    ),
    # A dropped doneFlag-path write into rank 3's store, masked by the
    # acked re-send: decisions must equal the fault-free run.
    "drop_flag": Scenario(
        name="drop_flag", nranks=8, mesh=(2, 2), chunks=1,
        plan_specs=(FaultSpec(FaultKind.DROP_FLAG_WRITE, core=3, nth=1),),
    ),
    # A sustained regime under the adaptive configuration: rank 3's MPB
    # port flaps on a 300-us duty cycle from its first access.  Down
    # phases (45 us) swallow protocol writes silently; the seeded backoff
    # schedule straddles them on both backends, so every acked write
    # lands well inside its protocol deadline and the decision stream
    # equals the fault-free run's.  The flap anchor is nth=1 -- the only
    # ``mpb_access`` occurrence number portable across backends (the SCC
    # mesh counts line batches, asyncio counts operations).  Three chunks
    # (vs ft_broadcast's two) so the pinned digest is its own stream, not
    # an alias of the fault-free baseline's.
    "flapping_link": Scenario(
        name="flapping_link", nranks=8, mesh=(2, 2), chunks=3,
        adaptive=True,
        plan_specs=(FaultSpec(
            FaultKind.FLAPPING_LINK, core=3, nth=1,
            duration=900.0, period=300.0, duty=0.15,
        ),),
    ),
}

#: The scenarios whose decision digests are pinned as goldens and swept
#: across seeds by the equivalence suite (drop_flag is exercised by the
#: fault-parity tests instead).
DIFFERENTIAL_NAMES = (
    "ft_broadcast", "root_crash_election", "byz_quorum", "flapping_link",
)

#: The adaptive scenarios' retry pacing: total worst-case pause ~1.9 ms,
#: far under the 6 ms heartbeat deadline, with single pauses capped well
#: under the 2.5 ms commit-notify wait.  Seeded independently of the
#: payload seed so sweeping scenario seeds never reshuffles the pacing.
_ADAPTIVE_POLICY = RetryPolicy.backoff(
    max_retries=6, base=40.0, factor=2.0, cap=600.0, jitter=0.1, seed=20,
)


def _configs(sc: Scenario) -> tuple[OcBcastConfig, MembershipConfig | None]:
    """The scenario's service configuration, identical on both backends."""
    oc_config = mode_config("byz" if sc.byz else "service")
    if not sc.adaptive:
        return oc_config, None
    return replace(oc_config, ft_retry=_ADAPTIVE_POLICY), MembershipConfig(
        hb_retry=_ADAPTIVE_POLICY,
        view_retry=_ADAPTIVE_POLICY,
        detector=DetectorConfig(
            threshold=8.0, window=32, min_std=50.0,
            min_samples=4, floor=4_000.0,
        ),
    )


def payload_for(scenario: Scenario, seed: int) -> bytes:
    """The seeded broadcast payload (identical on both backends)."""
    return random.Random(seed * 9176 + 11).randbytes(scenario.nbytes)


@dataclass
class RunResult:
    """One backend execution of one scenario."""

    backend: str
    records: list[TraceRecord]
    outcomes: tuple
    faults: FaultInjector | None

    # Walks and canonicalises the whole record list, and a service op
    # reads it more than once; the records are final once the run is.
    @cached_property
    def digest(self) -> str:
        return decision_digest(self.records)


def _run(world, backend: str, sc: Scenario, seed: int) -> RunResult:
    """The shared half: one program, whichever world it was handed.  A
    run that does not finish is a failure here, so its error raises."""
    oc_config, member_config = _configs(sc)
    body = bcast_body(
        world, oc_config, payload_for(sc, seed), member_config=member_config
    )
    run = run_world(world, body).check()
    outcomes = tuple("ok" if isinstance(v, tuple) else v for v in run.values)
    return RunResult(backend, run.records, outcomes, run.faults)


def _scenario(scenario: Scenario | str) -> Scenario:
    """A scenario, or the named one of :data:`SCENARIOS`."""
    if isinstance(scenario, Scenario):
        return scenario
    try:
        return SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}: expected one of {', '.join(SCENARIOS)}"
        ) from None


def run_scc(
    scenario: Scenario | str, seed: int, *, with_plan: bool = True
) -> RunResult:
    """Run the scenario on the SCC chip-model backend."""
    sc = _scenario(scenario)
    cols, rows = sc.mesh
    config = SccConfig(mesh_cols=cols, mesh_rows=rows)
    if config.num_cores != sc.nranks:
        raise ValueError(f"mesh {sc.mesh} gives {config.num_cores} cores, "
                         f"scenario wants {sc.nranks}")
    world = scc_world(
        config, plan=sc.plan() if with_plan else None, trace=True,
        crash_hook=sc.crash_hook(), watchdog_us=100_000.0,
    )
    return _run(world, "scc", sc, seed)


def run_asyncio(
    scenario: Scenario | str,
    seed: int,
    *,
    model: DelayModel | None = None,
    with_plan: bool = True,
) -> RunResult:
    """Run the scenario on the asyncio event-loop backend.  The default
    model draws per-operation latencies uniformly from [0.05, 5] us --
    nothing like the SCC's calibrated timings, which is the point."""
    sc = _scenario(scenario)
    world = asyncio_world(
        sc.nranks, plan=sc.plan() if with_plan else None,
        model=model if model is not None else UniformDelay(0.05, 5.0),
        seed=seed, crash_hook=sc.crash_hook(),
    )
    return _run(world, "asyncio", sc, seed)


