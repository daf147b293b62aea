"""Execute one chaos schedule and classify the outcome.

:func:`execute` is the one way a schedule runs: a fresh world for its
backend (:mod:`repro.transport.world`, armed with the injector plan,
crash hook, network model and chip config), the protocol mode run to
its end and judged once as a :class:`~repro.transport.world.Verdict`.
A fault-campaign trial runs through it as its schedule
(:meth:`repro.bench.FaultCampaign.trial_schedule`), just without the
invariant checker, which is why its repro bundle replays that trial.

:func:`run_schedule` is the chaos harness on top: it attaches the online
invariant checker (:class:`repro.obs.InvariantChecker`,
``lossless=False`` -- faults are armed on purpose), traces, and words
the verdict as a :class:`ChaosOutcome` carrying a fine-grained status
(:func:`chaos_status`: delivered / recovered / aborted / detected /
deadlock / timeout / corrupt / disagreement / partial / crashed) and
the three-way chaos classification the soak loop aggregates:

``tolerated``
    Every live, honest member delivered the source payload -- faults
    (if any) were masked or repaired.
``refused``
    The protocol *detected* trouble and uniformly declined: a uniform
    abort under the completion protocol, a uniform Byzantine refusal, an
    exhausted FT retry budget surfaced as
    :class:`repro.sim.errors.TimeoutError`.  Nothing wrong was
    delivered; liveness was traded away explicitly.
``violation``
    A safety or termination promise broke: an I1--I7 invariant
    violation, or :attr:`Verdict.violation` -- wrong bytes, honest
    disagreement, a deliverer/refuser split, a deadlock (the termination
    oracle), or the whole run dying.

Classification and the decision digest are deterministic functions of
the schedule, which is what the repro bundles pin and replay.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache

from ..core.ocbcast import DEFAULT_CHUNK_LINES
from ..faults.plan import ADVERSARY_KINDS
from ..obs.invariants import InvariantChecker
from ..transport.decisions import decision_digest
from ..transport.world import (
    Verdict, WorldRun, asyncio_world, bcast_body, mode_config, run_world,
    scc_world, seeded_payload, world_tracer,
)
from .schedule import ChaosSchedule

#: The three-way chaos classifications, in reporting order.
CLASSIFICATIONS = ("tolerated", "refused", "violation")


@dataclass(frozen=True)
class ChaosOutcome:
    """The classified result of one chaos schedule."""

    schedule: ChaosSchedule
    classification: str
    status: str
    detail: str = ""
    #: Canonical decision digest (sha256 over time-free decision streams).
    digest: str = ""
    n_injected: int = 0
    n_recovered: int = 0
    latency: float = 0.0
    #: Names of violated invariants, when the checker fired.
    invariants: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.classification != "violation"

    def describe(self) -> str:
        inv = f" [{','.join(self.invariants)}]" if self.invariants else ""
        body = f" -- {self.detail}" if self.detail else ""
        return (
            f"{self.classification}/{self.status}{inv}: "
            f"{self.schedule.describe()}{body}"
        )


def execute(
    schedule: ChaosSchedule, *, trace: bool, metrics=None,
    checker: InvariantChecker | None = None,
) -> tuple[WorldRun, Verdict]:
    """Run a schedule's protocol mode (root 0) on a fresh world and judge
    it; ``trace`` and ``metrics`` only act on the SCC backend."""
    plan = schedule.validate()
    if schedule.backend == "scc":
        world = scc_world(
            schedule.scc_config(), plan=plan, trace=trace, metrics=metrics,
            crash_hook=schedule.crash_hook(),
            watchdog_us=schedule.watchdog_us,
        )
    else:
        model = schedule.model.build() if schedule.model is not None else None
        world = asyncio_world(
            schedule.nranks, plan=plan, model=model, seed=schedule.seed,
            crash_hook=schedule.crash_hook(),
        )
    if checker is not None:
        world_tracer(world).add_listener(checker.feed)
    payload = seeded_payload(schedule.seed, schedule.nbytes)
    oc_config = mode_config(schedule.mode, ft_ack_data=schedule.ft_ack_data)
    run = run_world(world, bcast_body(world, oc_config, payload))
    adversary = frozenset(
        s.core for s in schedule.specs if s.kind in ADVERSARY_KINDS
    ) if schedule.mode == "byz" else None
    return run, Verdict.of(
        run.status, run.values, src_crc=zlib.crc32(payload),
        n_injected=run.faults.n_injected, adversary=adversary,
    )


def chaos_status(v: Verdict) -> tuple[str, str]:
    """The chaos ``(status, detail)`` of a verdict (a run ending's detail
    is its error, which the caller holds)."""
    if v.ending:
        return v.ending, ""
    if v.n_other:
        return "crashed", f"{v.n_other} rank(s) returned unexpectedly"
    if len(v.crcs) > 1 and v.adversary is not None:
        return "disagreement", (
            f"honest members delivered {len(v.crcs)} distinct payloads"
        )
    if len(v.crcs) > 1 or not v.validity:
        return "corrupt", f"{v.n_wrong} member(s) hold wrong bytes"
    if not v.agreement:
        return "partial", (
            f"non-uniform outcome: {v.n_delivered} delivered, "
            f"{v.n_refused} refused"
        )
    if v.n_delivered:
        survivors = v.survivors(v.n_evicted + v.n_self_evicted)
        if survivors or v.n_injected:
            return "recovered", survivors or "faults masked, all delivered"
        return "delivered", ""
    if v.n_refused:
        kind = "aborted" if v.n_aborted >= v.n_detected else "detected"
        return kind, f"uniform refusal by {v.n_refused} live member(s)"
    return "crashed", "no live member decided"


def chaos_classification(v: Verdict, invariants: tuple[str, ...]) -> str:
    """``violation``, else ``tolerated`` (delivered) or ``refused``."""
    if invariants or v.violation:
        return "violation"
    return "tolerated" if v.n_delivered else "refused"


def run_schedule(schedule: ChaosSchedule) -> ChaosOutcome:
    """Run one (validated) chaos schedule to completion and classify."""
    checker = InvariantChecker(lossless=False)
    run, verdict = execute(schedule, trace=True, checker=checker)
    status, detail = chaos_status(verdict)
    invariants = tuple(sorted({v.invariant for v in checker.violations}))
    return ChaosOutcome(
        schedule=schedule,
        classification=chaos_classification(verdict, invariants),
        status=status,
        detail=detail or run.detail,
        digest=decision_digest(run.records),
        n_injected=verdict.n_injected,
        n_recovered=run.faults.n_recovered,
        latency=run.latency,
        invariants=invariants,
    )


@lru_cache(maxsize=None)
def profile_counts(
    backend: str,
    mesh: tuple[int, int],
    chunks: int,
    mode: str,
) -> dict:
    """Candidate fault-site counts for one (backend, geometry, mode)
    coordinate, from a fault-free run with an empty-plan injector
    attached (the injector counts matching sites even with no specs).
    Memoised: the generator calls this once per coordinate, then draws
    thousands of schedules against it."""
    base = ChaosSchedule(
        backend=backend, mesh=mesh, cache_lines=chunks * DEFAULT_CHUNK_LINES,
        mode=mode, seed=0,
    )
    run, _ = execute(base, trace=False)
    return dict(run.check().faults.profile())
