"""Fault-injection campaigns: N seeded trials of a collective under fault.

A :class:`FaultCampaign` measures what the fault-tolerant OC-Bcast mode
buys.  It first *profiles* a fault-free run (an attached
:class:`~repro.faults.FaultInjector` counts candidate fault sites of each
class even with an empty plan), then draws per-trial fault coordinates
from a seeded :class:`random.Random` -- every trial is an exact,
replayable :class:`~repro.faults.FaultPlan`, so a campaign is reproduced
bit-for-bit by its seed.  Each trial leg *is* a chaos schedule
(:meth:`FaultCampaign.trial_schedule`) run on a fresh chip with the
kernel watchdog armed, and its verdict is worded as:

- ``delivered`` -- every core got the payload, no fault fired;
- ``recovered`` -- a fault fired and every *live* core still got the
  payload (crashed cores excepted when the plan crashes one);
- ``deadlock``  -- the run hung until the watchdog (or the kernel's
  deadlock detector) killed it;
- ``timeout``   -- an FT retry budget was exhausted
  (:class:`repro.sim.TimeoutError` escaped);
- ``corrupt``   -- the run finished but some core holds wrong bytes;
- ``crashed``   -- a fault crashed a core and the rest did not finish
  cleanly either.

By default the message is one chunk (96 cache lines): with OC-Bcast's
monotonic sequence flags, a dropped flag write *mid-stream* is masked by
the following chunk's write, so single-chunk messages are the adversarial
case where **every** flag write is fatal to the baseline.  The campaign
also reports the robustness tax: fault-free FT latency versus fault-free
baseline latency on the same chip configuration.
"""

from __future__ import annotations

import random
import zlib
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from ..chaos.runner import execute
from ..chaos.schedule import ChaosSchedule
from ..core import OcBcastConfig, PropagationTree
from ..faults import (
    ADVERSARY_KINDS, CRASH_SITES, FaultKind, FaultPlan, FaultSpec,
)
from ..faults.plan import CATEGORY_OF
from ..obs import MetricsRegistry
from ..scc import SccConfig
from ..scc.analytic import AnalyticEngine, AnalyticUnsupported
from ..scc.config import CACHE_LINE, DEFAULT_CONFIG
from ..sim import WatchdogError
from ..sim.trace import TraceRecord
from ..transport.world import (
    Verdict, WorldRun, bcast_body, mode_config, run_world, scc_world,
    seeded_payload,
)

#: Trial classifications, in reporting order.  ``aborted`` is a
#: service-only outcome: the source died with no surviving payload
#: holder and every live member uniformly aborted -- agreement held,
#: nothing was delivered.
OUTCOMES = (
    "delivered", "recovered", "aborted", "deadlock", "timeout", "corrupt",
    "crashed",
)

#: Byzantine-leg classifications, in reporting order.  ``agreed`` --
#: every honest member delivered identical bytes; ``detected`` -- every
#: honest member uniformly refused (no echo/ready quorum formed);
#: ``disagreement`` -- two honest members delivered *different* bytes,
#: the one outcome the RBC layer exists to rule out; ``partial`` --
#: deliverers and refusers coexist among honest members.
BYZ_OUTCOMES = (
    "agreed", "detected", "disagreement", "partial", "deadlock", "timeout",
    "crashed",
)

#: Fault kinds the analytic reference can vouch for under adaptive
#: fidelity.  Occurrence-counted write faults and stalls perturb a run
#: the engine's fault-free formulas still bracket (the faulty trials
#: replay through the kernel regardless; the reference only serves
#: *fault-free* trials).  Time-window faults (LINK_DOWN bursts,
#: CORE_PAUSE) and the Byzantine adversary kinds have no closed-form
#: counterpart at all -- a campaign mixing them degrades to all-kernel
#: execution, with the reason recorded in ``CampaignResult.fidelity``.
ANALYTIC_REFERENCE_KINDS = frozenset({
    FaultKind.DROP_FLAG_WRITE,
    FaultKind.CORRUPT_FLAG_WRITE,
    FaultKind.DROP_DATA_WRITE,
    FaultKind.CORRUPT_DATA_WRITE,
    FaultKind.LINK_STALL,
    FaultKind.CORE_CRASH,
})

#: The envelope (``FaultSpec`` knobs, us) of every fault kind that
#: carries one; LINK_DOWN's burst window is the campaign's
#: ``link_down_duration``.
FAULT_ENVELOPES: dict[FaultKind, dict] = {
    FaultKind.LINK_STALL: {"duration": 500.0},
    FaultKind.CORE_PAUSE: {"duration": 1_000.0},
    # Total flap window, down/up cycle period and the fraction of each
    # cycle spent down: a victim's MPB port flaps for several heartbeat
    # rounds -- long enough to false-evict a fixed-deadline membership
    # config, short enough that a phi-accrual detector keeps the member
    # (docs/FAULTS.md section 10).
    FaultKind.FLAPPING_LINK: {
        "duration": 8_000.0, "period": 1_000.0, "duty": 0.4,
    },
    # Quiet gap between successive crashes, and how many cores the churn
    # process takes down in total.
    FaultKind.REPEATED_CRASH: {"period": 2_000.0, "cycles": 2},
    # Storm window, and the extra per-access stall (``period``) every
    # MPB transaction pays while it lasts.
    FaultKind.CONGESTION_STORM: {"duration": 2_000.0, "period": 40.0},
}

_ROOT = 0  # the source of every campaign broadcast, as of every schedule

#: Trace kinds that make up a fault timeline.
TIMELINE_KINDS = (
    "fault.injected",
    "fault.recovered",
    "flag_write_retry_ok",
    "put_retry_ok",
    "oc.ft.renotify",
    "oc.ft.child_dead",
)


@dataclass(frozen=True)
class TrialRun:
    """One execution (service, FT or baseline) of one trial's fault plan."""

    outcome: str
    latency: float  # makespan in us; 0.0 when the run did not finish
    n_injected: int
    n_recovered: int
    detail: str = ""
    #: Live cores evicted from the group (service runs only).
    n_evicted: int = 0
    #: Time-to-detect / time-to-repair / time-to-elect (us) harvested
    #: from the service run's ``member.ttd_us`` / ``member.ttr_us`` /
    #: ``member.tte_us`` histograms.
    ttd: float | None = None
    ttr: float | None = None
    tte: float | None = None
    #: Silent-partition outcomes (service runs only): members that left
    #: the group on their own account, and heartbeat reports that never
    #: acked -- both previously invisible outside the trace.
    n_self_evict: int = 0
    n_report_failed: int = 0
    #: What :meth:`CampaignResult.lost` reads; runs compare without it.
    verdict: Verdict | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class TrialResult:
    """One seeded trial: the plan plus its per-mode runs."""

    index: int
    plan: FaultPlan
    ft: TrialRun | None = None
    baseline: TrialRun | None = None
    service: TrialRun | None = None
    #: Byzantine-service run (campaigns with ``byz=True`` run only this).
    byz: TrialRun | None = None


@dataclass(frozen=True)
class CampaignResult:
    """Aggregate outcome of a fault campaign."""

    trials: tuple[TrialResult, ...]
    ft_counts: Counter
    baseline_counts: Counter | None
    #: Fault-free latencies (us) of both modes -- the robustness tax.
    base_latency: float
    ft_latency: float
    profile: dict[str, int]
    nbytes: int
    seed: int
    #: Fault timeline of the first FT trial that saw an injection.
    timeline: tuple[TraceRecord, ...] = ()
    #: Service-mode outcome counts / fault-free latency (``service=True``).
    service_counts: Counter | None = None
    service_latency: float = 0.0
    #: Byzantine-mode outcome counts / fault-free latency (``byz=True``).
    byz_counts: Counter | None = None
    byz_latency: float = 0.0
    #: Adaptive-fidelity bookkeeping (``fidelity="adaptive"`` campaigns):
    #: how many trials were served from the memoised fault-free reference
    #: runs vs replayed through the event kernel, the analytic engine's
    #: latency predictions and their relative error vs the kernel, and --
    #: when the scheduler had to degrade to all-kernel execution -- why.
    fidelity: dict | None = None

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    def lost(self) -> list[tuple[int, str, TrialRun]]:
        """``(trial index, leg, run)`` of every hardened leg (not the
        baseline, which is the measurement) whose verdict is a violation."""
        return [
            (t.index, leg, run)
            for t in self.trials
            for leg in ("ft", "service", "byz")
            if (run := getattr(t, leg)) is not None and run.verdict.violation
        ]

    @property
    def rbc_tax_pct(self) -> float:
        """Fault-free Byzantine-mode latency overhead over the crash-only
        service -- what the echo/ready digest rounds cost when nobody is
        lying."""
        if self.service_latency <= 0.0 or self.byz_latency <= 0.0:
            return 0.0
        return (self.byz_latency / self.service_latency - 1.0) * 100.0

    @property
    def byz_agreement_rate(self) -> float:
        """Fraction of Byzantine trials where honest members agreed --
        all delivered identical bytes or all refused.  ``disagreement``
        and ``partial`` break it."""
        if self.byz_counts is None or not self.n_trials:
            return 0.0
        good = self.byz_counts["agreed"] + self.byz_counts["detected"]
        return good / self.n_trials

    @property
    def ft_overhead_pct(self) -> float:
        """Fault-free FT latency overhead over the baseline, in percent."""
        if self.base_latency <= 0.0:
            return 0.0
        return (self.ft_latency / self.base_latency - 1.0) * 100.0

    @property
    def ft_survival_rate(self) -> float:
        """Fraction of trials the FT mode finished with correct payloads."""
        good = self.ft_counts["delivered"] + self.ft_counts["recovered"]
        return good / self.n_trials if self.n_trials else 0.0

    @property
    def service_overhead_pct(self) -> float:
        """Fault-free service-mode latency overhead over the baseline."""
        if self.base_latency <= 0.0 or self.service_latency <= 0.0:
            return 0.0
        return (self.service_latency / self.base_latency - 1.0) * 100.0

    @property
    def service_survival_rate(self) -> float:
        """Fraction of trials the service committed with correct payloads
        on every live member."""
        if self.service_counts is None or not self.n_trials:
            return 0.0
        good = (self.service_counts["delivered"]
                + self.service_counts["recovered"])
        return good / self.n_trials

    @property
    def service_agreement_rate(self) -> float:
        """Fraction of trials where every live member decided alike --
        all delivered identical bytes or all aborted (uniform
        agreement, the completion-protocol guarantee)."""
        if self.service_counts is None or not self.n_trials:
            return 0.0
        good = (self.service_counts["delivered"]
                + self.service_counts["recovered"]
                + self.service_counts["aborted"])
        return good / self.n_trials

    def _service_times(self, attr: str) -> list[float]:
        return [
            getattr(t.service, attr)
            for t in self.trials
            if t.service is not None and getattr(t.service, attr) is not None
        ]

    def ttd_summary(self) -> dict[str, float]:
        """count/mean/min/max of the service runs' time-to-detect (us)."""
        return _describe(self._service_times("ttd"))

    def ttr_summary(self) -> dict[str, float]:
        """count/mean/min/max of the service runs' time-to-repair (us)."""
        return _describe(self._service_times("ttr"))

    def tte_summary(self) -> dict[str, float]:
        """count/mean/min/max of the service runs' time-to-elect (us)."""
        return _describe(self._service_times("tte"))

    def byz_ttd_summary(self) -> dict[str, float]:
        """count/mean/min/max of the Byzantine runs' time-to-detect (us)."""
        return _describe([
            t.byz.ttd for t in self.trials
            if t.byz is not None and t.byz.ttd is not None
        ])

    def summary(self) -> str:
        from .reporting import format_table

        if self.byz_counts is not None:
            rows = [[o, self.byz_counts.get(o, 0)] for o in BYZ_OUTCOMES]
            lines = [
                format_table(
                    ["outcome", "byz service"], rows,
                    title=f"Byzantine campaign: {self.n_trials} trials, "
                          f"seed={self.seed}, "
                          f"{self.nbytes // CACHE_LINE} CL",
                ),
                "",
                f"fault-free latency: crash-only service "
                f"{self.service_latency:.2f} us, byz service "
                f"{self.byz_latency:.2f} us "
                f"({self.rbc_tax_pct:+.2f}% rbc tax)",
                f"byz agreement rate: "
                f"{100.0 * self.byz_agreement_rate:.1f}% "
                f"(disagreements: {self.byz_counts.get('disagreement', 0)})",
            ]
            lines += _time_line("time-to-detect: ", self.byz_ttd_summary())
            return "\n".join(lines)

        headers = ["outcome", "FT"]
        if self.baseline_counts is not None:
            headers.append("baseline")
        if self.service_counts is not None:
            headers.append("service")
        rows = []
        for outcome in OUTCOMES:
            row = [outcome, self.ft_counts.get(outcome, 0)]
            if self.baseline_counts is not None:
                row.append(self.baseline_counts.get(outcome, 0))
            if self.service_counts is not None:
                row.append(self.service_counts.get(outcome, 0))
            rows.append(row)
        lines = [
            format_table(
                headers, rows,
                title=f"Fault campaign: {self.n_trials} trials, seed={self.seed}, "
                      f"{self.nbytes // CACHE_LINE} CL",
            ),
            "",
            f"fault-free latency: baseline {self.base_latency:.2f} us, "
            f"FT {self.ft_latency:.2f} us "
            f"({self.ft_overhead_pct:+.2f}% robustness tax)",
            f"FT survival rate: {100.0 * self.ft_survival_rate:.1f}%",
        ]
        if self.fidelity is not None:
            fast = self.fidelity.get("n_analytic", 0)
            replayed = self.fidelity.get("n_replayed", 0)
            line = (
                f"adaptive fidelity: {fast} fault-free trial(s) served "
                f"analytically, {replayed} replayed through the kernel"
            )
            if self.fidelity.get("degraded"):
                line += f" (degraded: {self.fidelity.get('reason', '?')})"
            lines.append(line)
        if self.service_counts is not None:
            lines.append(
                f"service fault-free latency: {self.service_latency:.2f} us "
                f"({self.service_overhead_pct:+.2f}% service tax)"
            )
            lines.append(
                "service survival rate: "
                f"{100.0 * self.service_survival_rate:.1f}%"
            )
            lines += _time_line("time-to-detect: ", self.ttd_summary())
            lines += _time_line("time-to-repair: ", self.ttr_summary())
            lines += _time_line("time-to-elect:  ", self.tte_summary())
            n_self_evict = sum(
                t.service.n_self_evict for t in self.trials
                if t.service is not None
            )
            n_report_failed = sum(
                t.service.n_report_failed for t in self.trials
                if t.service is not None
            )
            if n_self_evict or n_report_failed:
                lines.append(
                    f"silent partitions: {n_self_evict} self-evictions, "
                    f"{n_report_failed} unacked heartbeat reports"
                )
        return "\n".join(lines)


def _describe(xs: list[float]) -> dict[str, float]:
    if not xs:
        return {"count": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}
    return {
        "count": float(len(xs)),
        "mean": sum(xs) / len(xs),
        "min": min(xs),
        "max": max(xs),
    }


def _time_line(label: str, stats: dict[str, float]) -> list[str]:
    """The summary line of one time-to-X statistic (none without samples)."""
    if not stats["count"]:
        return []
    return [
        f"{label} n={stats['count']:.0f} mean={stats['mean']:.0f} us "
        f"[{stats['min']:.0f}, {stats['max']:.0f}]"
    ]


def _mean(metrics: MetricsRegistry, name: str) -> float | None:
    h = metrics.histograms.get(name)
    return h.mean if h is not None and h.count else None


def _count(metrics: MetricsRegistry, name: str) -> int:
    c = metrics.counters.get(name)
    return int(c.value) if c is not None else 0


def campaign_outcome(v: Verdict) -> tuple[str, str]:
    """``(outcome, detail)`` of an FT / baseline / service run: unlike
    chaos, deliverers beside aborters are ``corrupt``."""
    if v.ending:
        return v.ending, ""
    if v.n_wrong:
        return "corrupt", f"{v.n_wrong} core(s) hold wrong bytes"
    if v.n_aborted:
        if v.n_ok:  # broken uniform agreement: as bad as wrong bytes
            return "corrupt", (
                f"non-uniform outcome: {v.n_ok} delivered, "
                f"{v.n_aborted} aborted"
            )
        return "aborted", f"uniform abort by {v.n_aborted} live member(s)"
    if not v.n_injected:
        return "delivered", ""
    return "recovered", v.survivors(v.n_evicted)


def byz_outcome(v: Verdict) -> tuple[str, str]:
    """``(outcome, detail)`` of a Byzantine run: a uniform crc is
    ``agreed`` whoever the source is (the detail says whose it was)."""
    if v.ending:
        return v.ending, ""
    if len(v.crcs) > 1:
        return "disagreement", (
            f"honest members delivered {len(v.crcs)} distinct payloads"
        )
    if v.n_delivered == v.n_honest:
        return "agreed", (
            "source value" if v.n_ok and not v.n_wrong else "attacker variant"
        )
    if not v.n_delivered and v.n_detected == v.n_honest:
        return "detected", f"uniform refusal by {v.n_detected} honest member(s)"
    return "partial", (
        f"{v.n_delivered} delivered, {v.n_detected} refused, "
        f"{v.n_honest - v.n_delivered - v.n_detected} other"
    )


@dataclass(frozen=True)
class FaultCampaign:
    """A seeded campaign of fault-injection trials over OC-Bcast.

    ``kinds`` cycles round-robin over the trials, so a 100-trial campaign
    over two kinds runs 50 of each; per-trial coordinates (which nth
    matching operation, which core, stall/pause length) come from one
    :class:`random.Random` seeded with ``seed``.
    """

    trials: int = 100
    seed: int = 1
    kinds: tuple[FaultKind, ...] = (FaultKind.DROP_FLAG_WRITE,)
    nbytes: int = 96 * CACHE_LINE
    config: SccConfig | None = None
    compare_baseline: bool = True
    #: Kernel watchdog period (us); must exceed every legitimate idle wait.
    watchdog_interval: float = 50_000.0
    #: Also run every trial against the crash-surviving broadcast
    #: service (:class:`repro.member.OcBcastService`).
    service: bool = False
    #: Faults per trial plan (multi-fault campaigns cycle ``kinds``
    #: *within* each trial, so one plan can crash a core and corrupt a
    #: data line in the same run).
    faults_per_trial: int = 1
    #: Where CORE_CRASH strikes: ``"leaf"`` (the FT layer can route
    #: around it), ``"interior"`` (orphans a subtree -- only the service
    #: survives), ``"root"`` (kills the source/coordinator itself --
    #: takes the service's election and completion protocol to survive),
    #: or ``"any"``.
    crash_site: str = "leaf"
    #: Draw crash occurrences from the middle third of the profiled
    #: range, so multi-chunk broadcasts lose the core *mid-stream*.
    mid_stream: bool = False
    #: LINK_DOWN burst window (us of silently dropped protocol writes).
    link_down_duration: float = 400.0
    #: Byzantine campaign: every trial runs the RBC-hardened service
    #: (``OcBcastConfig(byz=True)``) against ``adversaries`` compromised
    #: cores (the crash-oriented FT/baseline/service legs are skipped --
    #: adversary fault sites only exist in byz mode).  The first
    #: adversary kind drawn as EQUIVOCATE is forced onto the root: only
    #: the source can serve two payload variants.
    byz: bool = False
    #: Compromised cores per Byzantine trial.
    adversaries: int = 1
    #: Probability that a trial draws a fault plan at all.  1.0 (the
    #: default) reproduces the classic campaign exactly -- no extra RNG
    #: draw happens, so existing seeds map to identical plans.  Below
    #: 1.0, the complement of trials runs fault-free: the regime where
    #: adaptive fidelity pays (real systems are fault-free almost
    #: always; campaigns sized for rare-event statistics spend almost
    #: all their time re-simulating the same fault-free run).
    fault_rate: float = 1.0
    #: ``"exact"`` runs every trial through the event kernel.
    #: ``"adaptive"`` serves fault-free trials from the campaign's
    #: memoised fault-free reference runs -- sound because the simulator
    #: is deterministic, so a fault-free trial IS the reference run --
    #: with the analytic engine cross-checking the reference latencies
    #: (a prediction off by more than the contention mode's tolerance,
    #: see :meth:`_check_fidelity`, means the config is outside the
    #: engine's validated envelope, and the whole campaign degrades to
    #: all-kernel execution).  Classifications are byte-identical to
    #: ``"exact"`` either way; see docs/PERFORMANCE.md.
    fidelity: str = "exact"

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not self.kinds:
            raise ValueError("need at least one fault kind")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError("fault_rate must be within [0, 1]")
        if self.fidelity not in ("exact", "adaptive"):
            raise ValueError(
                f"fidelity must be 'exact' or 'adaptive', got {self.fidelity!r}"
            )
        if self.nbytes <= 0 or self.nbytes % CACHE_LINE:  # schedules count CL
            raise ValueError(f"nbytes must be a positive multiple of {CACHE_LINE}")
        if self.faults_per_trial < 1:
            raise ValueError("faults_per_trial must be >= 1")
        if self.crash_site not in CRASH_SITES:
            raise ValueError(
                f"crash_site must be one of {'/'.join(CRASH_SITES)}, "
                f"got {self.crash_site!r}"
            )
        if self.link_down_duration <= 0:
            raise ValueError("link_down_duration must be > 0")
        if self.byz:
            size = (self.config or SccConfig()).num_cores
            if not 1 <= self.adversaries < size:
                raise ValueError(
                    f"a Byzantine campaign needs 1 <= adversaries < "
                    f"{size} cores, got {self.adversaries}"
                )
        elif stray := [k.value for k in self.kinds if k in ADVERSARY_KINDS]:
            raise ValueError(
                f"{stray[0]} needs byz=True: only the Byzantine-tolerant "
                f"service consults adversary hooks, so it would never fire"
            )

    # -- building blocks -----------------------------------------------------

    @property
    def _legs(self) -> tuple[str, ...]:
        """The protocol modes every trial runs, first the one whose
        injections make the campaign's fault timeline."""
        if self.byz:
            return ("byz",)
        return (
            ("ft",)
            + (("baseline",) if self.compare_baseline else ())
            + (("service",) if self.service else ())
        )

    def _oc_config(self, mode: str) -> OcBcastConfig:
        # Acked data puts only pay off when data writes can be faulted.
        return mode_config(
            mode, ft_ack_data=FaultKind.DROP_DATA_WRITE in self.kinds
        )

    @cached_property
    def _source(self) -> tuple[bytes, int]:
        """The payload and its CRC-32: pure in ``(seed, nbytes)``, so
        drawn once per campaign rather than once per run."""
        payload = seeded_payload(self.seed, self.nbytes)
        return payload, zlib.crc32(payload)

    def trial_schedule(self, plan: FaultPlan, leg: str) -> ChaosSchedule:
        """One trial leg as the chaos schedule it runs as -- the run
        :meth:`run_one` executes and the bundle of a lost trial pins."""
        cfg = self.config or DEFAULT_CONFIG
        chip = vars(cfg).items() - vars(DEFAULT_CONFIG).items()
        return ChaosSchedule(
            backend="scc",
            mesh=(cfg.mesh_cols, cfg.mesh_rows),
            cache_lines=self.nbytes // CACHE_LINE,
            mode=leg,
            seed=self.seed,
            specs=plan.specs,
            label=plan.label,
            watchdog_us=self.watchdog_interval,
            ft_ack_data=self._oc_config("ft").ft_ack_data,
            config={
                k: v for k, v in chip if k not in ("mesh_cols", "mesh_rows")
            },
        )

    def _fault_free(self, mode: str, plan: FaultPlan | None = None) -> WorldRun:
        """A reference run that must deliver: no watchdog and, unless a
        (site-counting, empty) ``plan`` is given, no injector either --
        an attached injector switches transfer coalescing off."""
        comm = scc_world(self.config, plan=plan)
        body = bcast_body(comm, self._oc_config(mode), self._source[0])
        run = run_world(comm, body).check()
        if set(run.values) != {("ok", self._source[1])}:
            raise AssertionError(f"fault-free {mode} run did not deliver")
        return run

    def run_one(
        self,
        plan: FaultPlan,
        *,
        ft: bool,
        service: bool = False,
        byz: bool = False,
        trace: bool = False,
    ) -> tuple[TrialRun, tuple[TraceRecord, ...]]:
        """Run the trial's schedule under ``plan`` and word its verdict.

        ``service=True`` runs the crash-surviving service instead of a
        bare OC-Bcast (``ft`` is then ignored) and harvests its
        TTD/TTR/TTE histograms; ``byz=True`` the RBC-hardened service,
        judged over honest members (:data:`BYZ_OUTCOMES`).  Returns the
        run plus (when ``trace``) the fault-relevant trace records.
        """
        mode = "byz" if byz else "service" if service else \
            "ft" if ft else "baseline"
        return self._run_leg(mode, plan, trace=trace)

    def _run_leg(
        self, mode: str, plan: FaultPlan, *, trace: bool = False
    ) -> tuple[TrialRun, tuple[TraceRecord, ...]]:
        """:meth:`run_one` by leg name (one of :attr:`_legs`' modes)."""
        byz = mode == "byz"
        metrics = MetricsRegistry() if mode in ("service", "byz") else None
        run, verdict = execute(
            self.trial_schedule(plan, mode), trace=trace, metrics=metrics
        )
        outcome, detail = (byz_outcome if byz else campaign_outcome)(verdict)
        if run.status:
            detail = run.detail
            if isinstance(run.error, WatchdogError):
                detail = f"watchdog: {detail}"
        harvest = {}
        if byz and not run.status:
            harvest["ttd"] = _mean(metrics, "rbc.ttd_us")
        elif metrics is not None:
            harvest = dict(
                ttd=_mean(metrics, "member.ttd_us"),
                ttr=_mean(metrics, "member.ttr_us"),
                tte=_mean(metrics, "member.tte_us"),
                n_self_evict=_count(metrics, "svc.self_evict"),
                n_report_failed=_count(metrics, "svc.report_failed"),
            )
        return (
            TrialRun(
                outcome=outcome,
                latency=run.latency,
                n_injected=verdict.n_injected,
                n_recovered=run.faults.n_recovered,
                detail=detail,
                n_evicted=0 if byz else verdict.n_evicted,
                verdict=verdict,
                **harvest,
            ),
            tuple(r for r in run.records if r.kind in TIMELINE_KINDS),
        )

    def _draw_nth(self, rng: random.Random, n: int) -> int:
        """An occurrence number inside the profiled range (middle third
        when ``mid_stream`` targets a fault partway through the run)."""
        n = max(1, n)
        if self.mid_stream and n >= 3:
            return rng.randint(max(1, n // 3), max(1, 2 * n // 3))
        return rng.randint(1, n)

    def trial_plans(self) -> list[FaultPlan]:
        """The campaign's per-trial fault plans -- a pure function of the
        seed and the profiled fault-free run, so two calls agree exactly.

        With ``faults_per_trial > 1`` the kinds cycle *within* each trial,
        so one plan combines e.g. a mid-stream interior crash with a
        corrupted data line.  Specs are drawn rejection-style so no two
        claim the same ``(category, core, nth)`` site (which
        :class:`~repro.faults.FaultPlan` rejects).
        """
        profile = self.profile_sites()
        if self.byz:
            return self._byz_trial_plans(profile)
        rng = random.Random(self.seed)
        size = (self.config or SccConfig()).num_cores
        tree = PropagationTree(size, self._oc_config("baseline").k, _ROOT)
        leaves = [
            r for r in range(size)
            if r != _ROOT and not tree.children_of(r)
        ]
        interior = [
            r for r in range(size)
            if r != _ROOT and tree.children_of(r)
        ]
        crash_pool = {
            "leaf": leaves,
            "interior": interior or leaves,
            "any": leaves + interior,
            "root": [_ROOT],
        }[self.crash_site]
        non_root = [r for r in range(size) if r != _ROOT]

        # kind -> victim pool.  No pool: nth counts the category's
        # occurrences chip-wide; with one, a victim core is drawn first
        # and nth counts its own.  The crash pool follows ``crash_site``:
        # a crashed leaf is routable by the FT layer alone, a crashed
        # interior node orphans its subtree and takes the service to
        # survive.  Adversary kinds have no row: a non-byz campaign
        # rejects them (``__post_init__``).
        pools: dict[FaultKind, list[int] | None] = {
            FaultKind.DROP_FLAG_WRITE: None,
            FaultKind.CORRUPT_FLAG_WRITE: None,
            FaultKind.DROP_DATA_WRITE: None,
            FaultKind.CORRUPT_DATA_WRITE: None,
            FaultKind.LINK_STALL: None,
            FaultKind.CONGESTION_STORM: None,
            FaultKind.LINK_DOWN: non_root,
            FaultKind.FLAPPING_LINK: non_root,
            FaultKind.CORE_PAUSE: non_root,
            FaultKind.CORE_CRASH: crash_pool,
            FaultKind.REPEATED_CRASH: crash_pool,
        }
        envelopes = {
            **FAULT_ENVELOPES,
            FaultKind.LINK_DOWN: {"duration": self.link_down_duration},
        }

        def draw(kind: FaultKind) -> FaultSpec:
            pool = pools[kind]
            core = None if pool is None else rng.choice(pool)
            site = CATEGORY_OF[kind] + ("" if core is None else f"@core{core}")
            nth = self._draw_nth(rng, profile.get(site, 0))
            return FaultSpec(kind, nth=nth, core=core, **envelopes.get(kind, {}))

        plans: list[FaultPlan] = []
        for i in range(self.trials):
            # One Bernoulli draw per trial -- but only when the rate is
            # below 1.0, so default campaigns consume the seed stream
            # exactly as they always have.
            if self.fault_rate < 1.0 and rng.random() >= self.fault_rate:
                plans.append(FaultPlan((), label=f"trial{i}:fault-free"))
                continue
            specs: list[FaultSpec] = []
            claimed: set[tuple[str, int | None, int]] = set()
            for j in range(self.faults_per_trial):
                kind = self.kinds[(i * self.faults_per_trial + j) % len(self.kinds)]
                for _ in range(32):
                    spec = draw(kind)
                    site = (spec.category, spec.core, spec.nth)
                    if site not in claimed:
                        break
                else:  # pragma: no cover - 32 collisions needs a tiny profile
                    continue
                claimed.add(site)
                specs.append(spec)
            label = "+".join(s.kind.value for s in specs)
            plans.append(FaultPlan(tuple(specs), label=f"trial{i}:{label}"))
        return plans

    def _byz_trial_plans(self, profile: dict[str, int]) -> list[FaultPlan]:
        """Per-trial adversary sets: ``adversaries`` compromised cores
        drawn from the seeded RNG.  The kind cycle uses whatever
        adversary kinds ``kinds`` carries (all three when it carries
        none); EQUIVOCATE is forced onto the root -- only the source can
        serve two variants -- and at most one spec targets each core, so
        the adversary count is exact."""
        rng = random.Random(self.seed)
        size = (self.config or SccConfig()).num_cores
        kinds = tuple(k for k in self.kinds if k in ADVERSARY_KINDS) or (
            FaultKind.EQUIVOCATE,
            FaultKind.LIE_IN_QUORUM,
            FaultKind.FORGE_FLAG_VALUE,
        )
        non_root = [r for r in range(size) if r != _ROOT]
        n_stage = max(1, profile.get(f"adv_stage@core{_ROOT}", 1))
        plans: list[FaultPlan] = []
        for i in range(self.trials):
            if self.fault_rate < 1.0 and rng.random() >= self.fault_rate:
                plans.append(FaultPlan(
                    (), num_cores=size, label=f"trial{i}:fault-free"
                ))
                continue
            specs: list[FaultSpec] = []
            used: set[int] = set()
            for j in range(self.adversaries):
                kind = kinds[(i * self.adversaries + j) % len(kinds)]
                if kind is FaultKind.EQUIVOCATE:
                    if _ROOT in used:
                        kind = FaultKind.LIE_IN_QUORUM  # one source only
                    else:
                        specs.append(FaultSpec(
                            kind, core=_ROOT,
                            nth=rng.randint(1, n_stage), duration=1,
                        ))
                        used.add(_ROOT)
                        continue
                pool = [r for r in non_root if r not in used]
                if not pool:  # pragma: no cover - adversaries < size
                    break
                core = rng.choice(pool)
                used.add(core)
                n_vote = max(1, profile.get(f"quorum_vote@core{core}", 1))
                specs.append(
                    FaultSpec(kind, core=core, nth=rng.randint(1, n_vote))
                )
            label = "+".join(s.kind.value for s in specs)
            plans.append(FaultPlan(
                tuple(specs), num_cores=size, label=f"trial{i}:{label}"
            ))
        return plans

    def profile_sites(self) -> dict[str, int]:
        """Count candidate fault sites with a fault-free run: the
        baseline broadcast, or -- for a ``byz`` campaign -- the
        Byzantine service, whose ``adv_stage`` / ``quorum_vote`` sites
        only exist when the RBC layer is active."""
        mode = "byz" if self.byz else "baseline"
        return self._fault_free(mode, FaultPlan()).faults.profile()

    # -- the campaign --------------------------------------------------------

    def service_latency_once(self) -> float:
        """Fault-free service-mode makespan (the service tax numerator)."""
        return self._fault_free("service").latency

    def byz_latency_once(self) -> float:
        """Fault-free Byzantine-mode makespan (the rbc tax numerator)."""
        return self._fault_free("byz").latency

    def run(self) -> CampaignResult:
        """Profile, then run every trial (FT first, then baseline and the
        service when enabled; ``byz=True`` campaigns run only the
        Byzantine-service leg).  Equivalent to ``run_trials(jobs=1)``."""
        return self.run_trials(jobs=1)

    def run_trials(self, *, jobs: int = 1) -> CampaignResult:
        """The one campaign scheduler: serial, parallel and adaptive
        fidelity share it (``jobs`` fans fault-bearing trials across
        worker processes; results are equal for any ``jobs``).

        With ``fidelity="adaptive"``, fault-free trials never reach the
        event kernel: a fault-free trial is a deterministic replica of
        the campaign's fault-free reference run, so its
        :class:`TrialRun` is served from the memoised reference --
        byte-identical to what the kernel would have produced -- after
        the analytic engine has cross-checked the reference latencies
        (an out-of-tolerance prediction degrades the whole campaign
        back to all-kernel execution).
        """
        profile = self.profile_sites()
        legs = self._legs
        # The fault-free makespans behind the robustness / service / rbc
        # taxes; a Byzantine campaign compares against the crash-only
        # service, so it measures that one too.
        latency = {
            mode: self._fault_free(mode).latency
            for mode in dict.fromkeys(
                ("baseline", *legs, *(("service",) if self.byz else ()))
            )
        }
        plans = self.trial_plans()
        fidelity_info = self._check_fidelity(
            plans, latency["baseline"], latency.get("ft", 0.0)
        )
        reference = None
        if fidelity_info is not None and not fidelity_info["degraded"] \
                and fidelity_info["n_analytic"]:
            ref = {leg: self._run_leg(leg, FaultPlan())[0] for leg in legs}

            def reference(i: int, plan: FaultPlan) -> TrialResult:
                return TrialResult(index=i, plan=plan, **ref)

        counts: dict[str, Counter] = {leg: Counter() for leg in legs}
        timeline: tuple[TraceRecord, ...] = ()
        trials: list[TrialResult] = []
        for trial, records in self._dispatch(plans, reference, jobs):
            for leg in legs:
                counts[leg][getattr(trial, leg).outcome] += 1
            if not timeline and getattr(trial, legs[0]).n_injected:
                timeline = records
            trials.append(trial)
        return CampaignResult(
            trials=tuple(trials),
            ft_counts=counts.get("ft", Counter()),
            baseline_counts=counts.get("baseline"),
            base_latency=latency["baseline"],
            ft_latency=latency.get("ft", 0.0),
            profile=profile,
            nbytes=self.nbytes,
            seed=self.seed,
            timeline=timeline,
            service_counts=counts.get("service"),
            service_latency=latency.get("service", 0.0),
            byz_counts=counts.get("byz"),
            byz_latency=latency.get("byz", 0.0),
            fidelity=fidelity_info,
        )

    def _check_fidelity(
        self,
        plans: Sequence[FaultPlan],
        base_latency: float,
        ft_latency: float,
    ) -> dict | None:
        """Arm the adaptive fast path -- or explain why it degraded.

        The guard: :class:`~repro.scc.analytic.AnalyticEngine` predicts
        the fault-free baseline and FT latencies; both must agree with
        the kernel-measured references within 2% against
        EXACT/IDEAL/ANALYTIC kernels (the engine's validated envelope)
        or 10% against BATCH -- itself an approximation, whose
        whole-transfer port holds sit up to ~7% above the uncontended
        model around the one-chunk knee.
        An out-of-tolerance prediction (or a config the engine refuses
        to model) means this campaign sits outside the engine's
        validated envelope, so every trial keeps its kernel run.
        """
        if self.fidelity != "adaptive":
            return None
        if self.byz:
            return {
                "mode": "adaptive", "n_analytic": 0, "n_replayed": self.trials,
                "degraded": True,
                "reason": "Byzantine echo/ready rounds are not analytically "
                          "modelled; every trial runs on the event kernel",
            }
        from ..scc.config import ContentionMode

        cfg = self.config or SccConfig()
        tolerance = (
            0.10 if cfg.contention_mode is ContentionMode.BATCH else 0.02
        )
        n_free = sum(1 for p in plans if not p.specs)
        info: dict = {
            "mode": "adaptive",
            "n_analytic": n_free,
            "n_replayed": len(plans) - n_free,
            "tolerance": tolerance,
            "degraded": False,
        }
        unmodelled = sorted(
            {k.value for k in self.kinds if k not in ANALYTIC_REFERENCE_KINDS}
        )
        if unmodelled:
            # Chaos/composite campaigns: time-window and adversary kinds
            # are outside the analytic reference's vocabulary, so the
            # cross-check cannot vouch for this campaign's envelope.
            info["degraded"] = True
            info["reason"] = (
                f"fault kind(s) {', '.join(unmodelled)} have no analytic "
                f"counterpart (time-window/adversary faults); every trial "
                f"runs on the event kernel"
            )
            info["n_analytic"] = 0
            info["n_replayed"] = len(plans)
            return info
        try:
            pred_base = AnalyticEngine(cfg).evaluate(
                self.nbytes
            ).latencies[0]
            pred_ft = AnalyticEngine(
                cfg, ft=True,
                ft_ack_data=self._oc_config("ft").ft_ack_data,
            ).evaluate(self.nbytes).latencies[0]
            info["predicted_base"] = pred_base
            info["predicted_ft"] = pred_ft
            info["rel_err_base"] = abs(pred_base - base_latency) / base_latency
            info["rel_err_ft"] = abs(pred_ft - ft_latency) / ft_latency
            worst = max(info["rel_err_base"], info["rel_err_ft"])
            if worst > tolerance:
                info["degraded"] = True
                info["reason"] = (
                    f"analytic prediction off by {worst:.2%} "
                    f"(> {tolerance:.2%}): config outside the "
                    f"engine's validated envelope"
                )
        except AnalyticUnsupported as exc:
            info["degraded"] = True
            info["reason"] = str(exc)
        if info["degraded"]:
            info["n_analytic"] = 0
            info["n_replayed"] = len(plans)
        return info

    def _dispatch(
        self,
        plans: Sequence[FaultPlan],
        reference,
        jobs: int,
    ) -> list[tuple[TrialResult, tuple[TraceRecord, ...]]]:
        """Execute the trial list: fault-free trials come from
        ``reference`` when the adaptive fast path armed it, everything
        else goes through :func:`_trial_worker` -- in-process for ``jobs <= 1``
        (tracing lazily, exactly as the classic serial loop did) or
        fanned across a process pool, merged back in trial order."""
        pending = [
            i for i, plan in enumerate(plans)
            if reference is None or plan.specs
        ]
        ran: dict[int, tuple[TrialResult, tuple[TraceRecord, ...]]] = {}
        if jobs <= 1:
            # Trace until the first injection is found -- the timeline
            # only ever comes from the first injected trial.
            found = False
            for i in pending:
                out = _trial_worker((self, i, plans[i], not found))
                if getattr(out[0], self._legs[0]).n_injected:
                    found = True
                ran[i] = out
        else:
            from .parallel import parallel_map

            outs = parallel_map(
                _trial_worker, [(self, i, plans[i], True) for i in pending],
                jobs=jobs,
            )
            ran = dict(zip(pending, outs))
        return [
            ran[i] if i in ran else (reference(i, plan), ())
            for i, plan in enumerate(plans)
        ]


def _trial_worker(
    arg: "tuple[FaultCampaign, int, FaultPlan, bool]",
) -> tuple[TrialResult, tuple[TraceRecord, ...]]:
    """One seeded trial: every leg of the campaign under one plan, the
    first leg traced.  Module-level (picklable) so the same function
    serves the in-process loop and the process pool."""
    campaign, index, plan, trace = arg
    first, *rest = campaign._legs
    run, records = campaign._run_leg(first, plan, trace=trace)
    runs = {first: run}
    for leg in rest:
        runs[leg], _ = campaign._run_leg(leg, plan)
    return TrialResult(index=index, plan=plan, **runs), records


def parse_kinds(names: Sequence[str]) -> tuple[FaultKind, ...]:
    """Map CLI names (``drop_flag``, ``corrupt_flag``, ``drop_data``,
    ``corrupt_data``, ``stall``, ``link_down``, ``pause``, ``crash``,
    the sustained regimes ``flap``/``flapping_link``,
    ``churn``/``repeated_crash``, ``storm``/``congestion_storm``, and
    the adversary kinds ``equivocate``, ``forge_flag``, ``lie_quorum``)
    to :class:`FaultKind`."""
    alias = {
        "drop_flag": FaultKind.DROP_FLAG_WRITE,
        "corrupt_flag": FaultKind.CORRUPT_FLAG_WRITE,
        "drop_data": FaultKind.DROP_DATA_WRITE,
        "corrupt_data": FaultKind.CORRUPT_DATA_WRITE,
        "stall": FaultKind.LINK_STALL,
        "link_down": FaultKind.LINK_DOWN,
        "pause": FaultKind.CORE_PAUSE,
        "crash": FaultKind.CORE_CRASH,
        "flap": FaultKind.FLAPPING_LINK,
        "flapping_link": FaultKind.FLAPPING_LINK,
        "churn": FaultKind.REPEATED_CRASH,
        "repeated_crash": FaultKind.REPEATED_CRASH,
        "storm": FaultKind.CONGESTION_STORM,
        "congestion_storm": FaultKind.CONGESTION_STORM,
        "equivocate": FaultKind.EQUIVOCATE,
        "forge_flag": FaultKind.FORGE_FLAG_VALUE,
        "lie_quorum": FaultKind.LIE_IN_QUORUM,
    }
    kinds = []
    for name in names:
        try:
            kinds.append(alias[name])
        except KeyError:
            raise ValueError(
                f"unknown fault kind {name!r}; choose from {sorted(alias)}"
            ) from None
    return tuple(kinds)
