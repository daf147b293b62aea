"""Execute one chaos schedule and classify the outcome.

:func:`run_schedule` builds a fresh world for the schedule's backend
(:mod:`repro.transport.world`: SCC chip model or asyncio event loop,
armed with the injector plan, crash hook and network model), attaches
the online invariant checker (:class:`repro.obs.InvariantChecker`,
``lossless=False`` -- faults are armed on purpose) and runs the
schedule's protocol mode to its end.
The result is a :class:`ChaosOutcome` carrying a fine-grained status
(the campaign vocabulary: delivered / recovered / aborted / detected /
deadlock / timeout / corrupt / disagreement / partial / crashed) and the
three-way chaos classification the soak loop aggregates:

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
    violation, wrong bytes, honest disagreement, a deliverer/refuser
    split, a deadlock (the termination oracle), or the whole run dying.

Classification and the decision digest are deterministic functions of
the schedule, which is what the repro bundles pin and replay.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache

from ..faults.plan import ADVERSARY_KINDS, FaultPlan
from ..obs.invariants import InvariantChecker
from ..scc.config import SccConfig
from ..transport.decisions import decision_digest
from ..transport.world import (
    WorldRun, asyncio_world, bcast_body, mode_config, run_world, scc_world,
    seeded_payload, world_tracer,
)
from .schedule import ChaosSchedule

#: The three-way chaos classifications, in reporting order.
CLASSIFICATIONS = ("tolerated", "refused", "violation")

#: Statuses mapped to each classification (exception and invariant paths
#: add "deadlock"/"crashed"/"invariant" on top of the value-based ones).
TOLERATED_STATUSES = frozenset({"delivered", "recovered"})
REFUSED_STATUSES = frozenset({"aborted", "detected", "timeout"})


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


def chaos_payload(schedule: ChaosSchedule) -> bytes:
    """The schedule's seeded broadcast payload (identical on both
    backends, and to :meth:`FaultCampaign._payload` for equal seeds)."""
    return seeded_payload(schedule.seed, schedule.nbytes)


def _world(schedule: ChaosSchedule, plan: FaultPlan, *, trace: bool):
    """The schedule's fresh world under ``plan``.  ``trace`` only
    matters on the SCC backend; an asyncio world always traces."""
    if schedule.backend == "scc":
        cols, rows = schedule.mesh
        return scc_world(
            SccConfig(mesh_cols=cols, mesh_rows=rows),
            plan=plan, trace=trace, crash_hook=schedule.crash_hook(),
            watchdog_us=schedule.watchdog_us,
        )
    model = schedule.model.build() if schedule.model is not None else None
    return asyncio_world(
        schedule.nranks, plan=plan, model=model, seed=schedule.seed,
        crash_hook=schedule.crash_hook(),
    )


def _run(schedule: ChaosSchedule, world, payload: bytes) -> WorldRun:
    """Run the schedule's protocol mode (root 0) on ``world``."""
    oc_config = mode_config(schedule.mode, ft_ack_data=schedule.ft_ack_data)
    return run_world(world, bcast_body(world, oc_config, payload))


def _classify_values(
    schedule: ChaosSchedule, values: tuple, payload: bytes, injected: int
) -> tuple[str, str]:
    """Map per-rank return values to (status, detail).  Byzantine
    adversary ranks are excluded -- their claims are worthless by
    definition; crashed and evicted ranks are non-decisive (dead, or
    removed from the agreement set)."""
    adversary = (
        {s.core for s in schedule.specs if s.kind in ADVERSARY_KINDS}
        if schedule.mode == "byz" else set()
    )
    vals = [v for r, v in enumerate(values) if r not in adversary]
    src_crc = zlib.crc32(payload)
    ok_crcs = {v[1] for v in vals if isinstance(v, tuple)}
    n_ok = sum(1 for v in vals if isinstance(v, tuple))
    n_abort = sum(1 for v in vals if v == "aborted")
    n_det = sum(1 for v in vals if v == "detected")
    n_crash = sum(1 for v in vals if v == "crashed")
    n_evict = sum(1 for v in vals if v in ("evicted", "self_evicted"))
    n_other = len(vals) - n_ok - n_abort - n_det - n_crash - n_evict

    if n_other:
        return "crashed", f"{n_other} rank(s) returned unexpectedly"
    if len(ok_crcs) > 1:
        if schedule.mode == "byz":
            return (
                "disagreement",
                f"honest members delivered {len(ok_crcs)} distinct payloads",
            )
        n_bad = sum(
            1 for v in vals if isinstance(v, tuple) and v[1] != src_crc
        )
        return "corrupt", f"{n_bad} member(s) hold wrong bytes"
    if n_ok and ok_crcs != {src_crc} and not (
        # Bracha validity only binds for an honest source: with the
        # source compromised, uniform agreement on the attacker's
        # variant is exactly what the RBC layer promises.
        schedule.mode == "byz" and 0 in adversary
    ):
        return "corrupt", f"{n_ok} member(s) hold wrong bytes"
    if n_ok and (n_abort or n_det):
        return (
            "partial",
            f"non-uniform outcome: {n_ok} delivered, "
            f"{n_abort + n_det} refused",
        )
    if n_ok:
        survivors = []
        if n_crash:
            survivors.append(f"{n_crash} crashed")
        if n_evict:
            survivors.append(f"{n_evict} evicted")
        if injected or survivors:
            detail = ", ".join(survivors)
            return "recovered", (detail + ", survivors delivered") if detail \
                else "faults masked, all delivered"
        return "delivered", ""
    if n_abort or n_det:
        kind = "aborted" if n_abort >= n_det else "detected"
        return kind, (
            f"uniform refusal by {n_abort + n_det} live member(s)"
        )
    return "crashed", "no live member decided"


def _classify(status: str, invariants: tuple[str, ...]) -> str:
    if invariants:
        return "violation"
    if status in TOLERATED_STATUSES:
        return "tolerated"
    if status in REFUSED_STATUSES:
        return "refused"
    return "violation"


def run_schedule(schedule: ChaosSchedule) -> ChaosOutcome:
    """Run one (validated) chaos schedule to completion and classify."""
    world = _world(schedule, schedule.validate(), trace=True)
    checker = InvariantChecker(lossless=False)
    world_tracer(world).add_listener(checker.feed)
    payload = chaos_payload(schedule)
    run = _run(schedule, world, payload)
    injected = run.faults.n_injected
    status, detail = run.status, run.detail
    if not status:
        status, detail = _classify_values(
            schedule, run.values, payload, injected
        )
    invariants = tuple(
        sorted({v.invariant for v in checker.violations})
    )
    return ChaosOutcome(
        schedule=schedule,
        classification=_classify(status, invariants),
        status=status,
        detail=detail,
        digest=decision_digest(run.records),
        n_injected=injected,
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
        backend=backend, mesh=mesh, chunks=chunks, mode=mode, seed=0
    )
    world = _world(base, FaultPlan(), trace=False)
    run = _run(base, world, chaos_payload(base)).check()
    return dict(run.faults.profile())
