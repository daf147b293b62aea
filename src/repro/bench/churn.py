"""Churn campaigns: sustained fault regimes over consecutive broadcasts.

The classic :class:`~repro.bench.FaultCampaign` injects *point* faults:
one dropped write, one crash, one stall per trial, each chosen by
occurrence count.  This module measures the other regime the resilience
layer exists for -- a fault process that stays active across **many
consecutive broadcasts**: a continuously flapping link partitioning one
member on a duty cycle, with a mid-stream core crash layered on top.

Each trial runs the same seeded fault plan against two service
configurations:

- **adaptive** -- phi-accrual suspicion
  (:class:`repro.resilience.DetectorConfig`), exponential-backoff retry
  pacing on heartbeats, view installs and FT data/flag paths
  (:class:`repro.resilience.RetryPolicy`), and a per-message retry
  budget that converts pathological overload into a deterministic
  :class:`repro.resilience.OverloadError` refusal;
- **fixed** -- the legacy compiled-in constants: shared ``hb_timeout``
  deadline, immediate re-sends, no refusal budget.

The point of the comparison: under a flapping link, an *immediate*
retry burst lands entirely inside one down phase (the heartbeat never
arrives -- the member looks dead), while a *paced* schedule straddles
the next up phase (the heartbeat arrives late -- and the adaptive
window, having observed such delays, tolerates it).  The fixed
configuration therefore **falsely evicts a live member or stalls**,
where the adaptive one recovers or refuses cleanly.

A trial terminates cleanly iff it is classified ``survived`` or
``refused``.  ``false_evict`` is the campaign-level I8 check: a rank
the plan never crashed was evicted from the group.
"""

from __future__ import annotations

import random
import zlib
from collections import Counter
from dataclasses import dataclass, replace
from typing import ClassVar, Generator

import numpy as np

from ..core import OcBcastConfig
from ..faults import FaultKind, FaultPlan, FaultSpec
from ..member.heartbeat import MembershipConfig
from ..member.service import OcBcastService
from ..obs import InvariantChecker
from ..rcce import Comm
from ..resilience import DetectorConfig, OverloadError, RetryPolicy
from ..scc import SccConfig
from ..scc.config import CACHE_LINE
from ..sim import FaultInjected
from ..transport.world import (
    Verdict, WorldRun, mode_config, run_world, scc_world,
)

#: Trial classifications, in reporting order.  ``survived`` and
#: ``refused`` are the clean terminations; ``false_evict`` terminated
#: but evicted a live member (the I8 violation); ``stalled`` covers
#: deadlock, watchdog and exhausted-attempt timeouts alike.
CHURN_OUTCOMES = ("survived", "refused", "false_evict", "stalled", "corrupt")


def churn_outcome(v: Verdict) -> tuple[str, str]:
    """``(outcome, detail)`` of a churn trial, whose ranks are worded in
    :func:`~repro.transport.world.bcast_body`'s vocabulary: a budget
    refusal is ``detected``, and an evicted rank the plan crashes is
    ``crashed``, so every ``evicted`` rank is a live one."""
    if v.ending:
        return "stalled", ""
    if v.n_wrong:
        return "corrupt", "a live member holds wrong bytes"
    if v.n_evicted:
        return "false_evict", f"{v.n_evicted} live rank(s) evicted"
    if v.n_detected:
        return "refused", f"{v.n_detected} rank(s) refused on budget"
    return "survived", ""


@dataclass(frozen=True)
class ChurnTrial:
    """One seeded trial of one configuration (adaptive or fixed)."""

    outcome: str
    #: Broadcasts fully committed by every live member.
    completed: int
    n_injected: int
    n_false_evicted: int
    n_refused: int
    #: Online I8 (``no-false-eviction``) violations caught by the
    #: streaming :class:`repro.obs.InvariantChecker` (adaptive leg only,
    #: with ``check_i8``).
    n_i8_violations: int = 0
    detail: str = ""

    @property
    def terminated(self) -> bool:
        return self.outcome in ("survived", "refused")


@dataclass(frozen=True)
class ChurnResult:
    """Aggregate outcome of a churn campaign."""

    #: Outcome counts per configuration: ``adaptive``, and ``fixed``
    #: when the campaign compared the fixed-deadline one.
    counts: dict[str, Counter]
    trials: tuple[tuple[ChurnTrial, "ChurnTrial | None"], ...]
    seed: int
    broadcasts: int

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def termination_rate(self) -> float:
        """Fraction of adaptive trials that terminated cleanly."""
        if not self.n_trials:
            return 0.0
        good = sum(1 for a, _ in self.trials if a.terminated)
        return good / self.n_trials

    @property
    def n_false_evictions(self) -> int:
        """Total live members falsely evicted across adaptive trials."""
        return sum(a.n_false_evicted for a, _ in self.trials)

    @property
    def n_i8_violations(self) -> int:
        """Online I8 violations across adaptive trials."""
        return sum(a.n_i8_violations for a, _ in self.trials)

    @property
    def fixed_failure_trials(self) -> int:
        """Fixed-deadline trials that false-evicted or stalled -- the
        regimes the adaptive configuration is built to survive."""
        return sum(
            1 for _, f in self.trials
            if f is not None and f.outcome in ("false_evict", "stalled")
        )


@dataclass(frozen=True)
class ChurnCampaign:
    """A seeded campaign of sustained-regime trials over the broadcast
    service.

    Every trial arms one FLAPPING_LINK regime on a random non-root
    member from that member's first MPB access (continuously active for
    the whole run) and crashes one *other* random non-root member
    mid-stream, then drives ``broadcasts`` consecutive service
    broadcasts through it.
    """

    trials: int = 100
    seed: int = 1
    broadcasts: int = 10
    config: SccConfig | None = None
    #: Also run every plan against the fixed-deadline configuration.
    compare_fixed: bool = True
    #: Flap regime: cycle length, down fraction.
    flap_period: float = 2_000.0
    flap_duty: float = 0.4
    #: One mid-stream CORE_CRASH per trial (off = flapping only).
    crash: bool = True
    #: Attach the streaming :class:`repro.obs.InvariantChecker` to every
    #: adaptive-leg trial and count I8 (``no-false-eviction``) violations
    #: online.  The fixed leg is exempt by design -- false-evicting under
    #: flap is exactly the failure it demonstrates.
    check_i8: bool = True

    #: Every broadcast is one chunk from rank 0.
    nbytes: ClassVar[int] = 96 * CACHE_LINE
    root: ClassVar[int] = 0
    #: Kernel watchdog period (us); must exceed every legitimate idle
    #: wait of the *fixed* configuration too.
    watchdog_interval: ClassVar[float] = 120_000.0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.broadcasts < 1:
            raise ValueError("need at least one broadcast per trial")
        if self.flap_period <= 0.0:
            raise ValueError("flap_period must be > 0")
        if not 0.0 < self.flap_duty < 1.0:
            raise ValueError("flap_duty must be strictly inside (0, 1)")

    # -- the two configurations under test ----------------------------------

    def _backoff(self) -> RetryPolicy:
        """The paced schedule: sized so its cumulative pause straddles a
        flap down phase (``duty * period``) with room to spare."""
        down = self.flap_duty * self.flap_period
        return RetryPolicy.backoff(
            max_retries=5,
            base=max(150.0, down * 0.4),
            factor=2.0,
            cap=self.flap_period,
            jitter=0.1,
            seed=self.seed,
        )

    def _notify_wait(self) -> float:
        """The adaptive leg's notify/commit wait (us).  The commit
        notification relays hop by hop down the tree on *paced* acked
        writes, so the wait must cover the worst-case backoff schedule
        of every hop above this node (tree depth is 2 for 48 cores at
        k=7) -- the same coherence rule the membership config enforces
        for heartbeats.  A wait shorter than the legal pacing turns a
        flap-delayed commit into a phantom recovery round that desyncs
        the member from an already-committed coordinator."""
        return 2.0 * self._backoff().max_total_pause() + 2_000.0

    def adaptive_member_config(self) -> MembershipConfig:
        """Phi-accrual suspicion + paced retries + refusal budget."""
        pol = self._backoff()
        # Never suspect below the worst *legal* response lag: an orphan
        # of a crashed parent sits out the notify wait, then its paced
        # heartbeat may straddle one flap down phase.
        floor = self._notify_wait() + pol.max_total_pause() + self.flap_period
        hb_timeout = floor + 2_000.0
        return MembershipConfig(
            hb_timeout=hb_timeout,
            view_timeout=2.0 * hb_timeout,
            detector=DetectorConfig(
                threshold=8.0,
                window=32,
                min_std=max(25.0, self.flap_duty * self.flap_period),
                min_samples=4,
                floor=floor,
            ),
            hb_retry=pol,
            view_retry=pol,
            retry_budget=4,
        )

    def fixed_member_config(self) -> MembershipConfig:
        """The legacy compiled-in constants (no detector, immediate
        re-sends, no refusal budget)."""
        return MembershipConfig()

    def _oc_config(self, adaptive: bool) -> OcBcastConfig:
        base = mode_config("service")
        if adaptive:
            base = replace(
                base,
                ft_retry=self._backoff(),
                ft_notify_timeout=self._notify_wait(),
            )
        return base

    # -- trial plans ---------------------------------------------------------

    def _payloads(self) -> list[bytes]:
        rng = np.random.default_rng(self.seed)
        return [
            rng.integers(0, 256, size=self.nbytes, dtype=np.uint8).tobytes()
            for _ in range(self.broadcasts)
        ]

    def profile_sites(self) -> dict[str, int]:
        """Candidate-site counts from one fault-free adaptive run."""
        run = self._drive(self._world(plan=FaultPlan()), adaptive=True)
        return run.check().faults.profile()

    def trial_plans(self) -> list[FaultPlan]:
        """Per-trial plans -- a pure function of the seed and the
        fault-free profile, shared verbatim by both configurations."""
        profile = self.profile_sites()
        rng = random.Random(self.seed)
        size = (self.config or SccConfig()).num_cores
        non_root = [r for r in range(size) if r != self.root]
        plans: list[FaultPlan] = []
        for i in range(self.trials):
            victim = rng.choice(non_root)
            specs = [FaultSpec(
                FaultKind.FLAPPING_LINK,
                core=victim,
                nth=1,  # continuously active from the victim's first access
                duration=100.0 * self.watchdog_interval,
                period=self.flap_period,
                duty=self.flap_duty,
            )]
            if self.crash:
                pool = [r for r in non_root if r != victim]
                crash_core = rng.choice(pool)
                n = max(1, profile.get(f"core_op@core{crash_core}", 1))
                specs.append(FaultSpec(
                    FaultKind.CORE_CRASH,
                    core=crash_core,
                    nth=rng.randint(max(1, n // 3), max(1, 2 * n // 3)),
                ))
            plans.append(FaultPlan(
                tuple(specs), label=f"churn{i}:core{victim}"
            ))
        return plans

    # -- execution -----------------------------------------------------------

    def latency_once(self, *, adaptive: bool) -> float:
        """Fault-free makespan (simulated us) of the whole
        ``broadcasts``-broadcast stream under one configuration -- the
        resilience-tax probe: both legs replay the same seeded
        payloads, so the ratio isolates the detector + policy
        bookkeeping.  Deterministic."""
        return self._drive(self._world(), adaptive=adaptive).check().latency

    def _world(self, **arming) -> Comm:
        """A fresh watchdog-guarded chip (``arming``: the ``plan`` /
        ``trace`` / ``metrics`` of :func:`repro.transport.world.scc_world`)."""
        return scc_world(
            self.config, watchdog_us=self.watchdog_interval, **arming
        )

    def _drive(self, comm: Comm, *, adaptive: bool) -> WorldRun:
        """Run ``broadcasts`` consecutive service broadcasts; each rank
        returns ``(ending, completed)``, its ending worded as
        :func:`~repro.transport.world.bcast_body` words one broadcast:
        ``"crashed"``, ``"detected"`` (refused on budget), ``"evicted"``,
        or ``("ok", crc)`` -- the last payload's crc once every broadcast
        was delivered or aborted, else the crc of the wrong bytes held."""
        svc = OcBcastService(
            comm,
            root=self.root,
            oc_config=self._oc_config(adaptive),
            member_config=(
                self.adaptive_member_config() if adaptive
                else self.fixed_member_config()
            ),
        )
        payloads = self._payloads()
        delivered = ("ok", zlib.crc32(payloads[-1]))
        nbytes, root, broadcasts = self.nbytes, self.root, self.broadcasts

        def body(cc) -> Generator:
            buf = cc.alloc(nbytes)
            done = 0
            for b in range(broadcasts):
                if cc.rank == root:
                    buf.write(payloads[b])
                try:
                    status = yield from svc.bcast(cc, buf, nbytes)
                except FaultInjected:
                    return ("crashed", done)
                except OverloadError:
                    return ("detected", done)
                if status == "evicted":
                    return ("evicted", done)
                if status == "aborted":
                    continue
                held = buf.read()
                if held != payloads[b]:
                    return (("ok", zlib.crc32(held)), done)
                done += 1
            return (delivered, done)

        return run_world(comm, body)

    def run_one(self, plan: FaultPlan, *, adaptive: bool) -> ChurnTrial:
        """Run one trial plan against one configuration and classify."""
        check_i8 = adaptive and self.check_i8
        comm = self._world(plan=plan, trace=check_i8)
        checker = None
        if check_i8:
            # Faults are armed on purpose: only the membership promise
            # (I8) and the protocol invariants are on trial, not I1.
            checker = InvariantChecker(lossless=False).attach(comm.chip)
        run = self._drive(comm, adaptive=adaptive)
        # A crash victim evicted before it died is not a false eviction.
        crashed = {s.core for s in plan.specs if s.kind.crash}
        endings = [
            "crashed" if ending == "evicted" and r in crashed else ending
            for r, (ending, _) in enumerate(run.values)
        ]
        delivered = ("ok", zlib.crc32(self._payloads()[-1]))
        v = Verdict.of(
            run.status, tuple(endings), src_crc=delivered[1],
            n_injected=run.faults.n_injected,
        )
        outcome, detail = churn_outcome(v)
        if run.status:
            detail = f"{type(run.error).__name__}: {run.error}"
        return ChurnTrial(
            outcome=outcome,
            completed=min((
                done for r, (ending, done) in enumerate(run.values)
                if ending == delivered and r not in crashed
            ), default=0),
            n_injected=v.n_injected,
            n_false_evicted=v.n_evicted,
            n_refused=v.n_detected,
            n_i8_violations=0 if checker is None else sum(
                1 for x in checker.violations
                if x.invariant == "no-false-eviction"
            ),
            detail=detail,
        )

    def run(self) -> ChurnResult:
        """Run every trial: the adaptive leg always, the fixed-deadline
        leg when ``compare_fixed``."""
        trials = tuple(
            (
                self.run_one(plan, adaptive=True),
                self.run_one(plan, adaptive=False) if self.compare_fixed
                else None,
            )
            for plan in self.trial_plans()
        )
        counts = {"adaptive": Counter(a.outcome for a, _ in trials)}
        if self.compare_fixed:
            counts["fixed"] = Counter(f.outcome for _, f in trials)
        return ChurnResult(
            counts=counts,
            trials=trials,
            seed=self.seed,
            broadcasts=self.broadcasts,
        )
