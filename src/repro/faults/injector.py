"""The fault injector: deterministic hooks into the chip models.

A :class:`FaultInjector` is attached to a chip at construction time
(``SccChip(config, faults=FaultInjector(plan))``) and consulted from the
narrow waist of each hardware model:

- :meth:`filter_mpb_write` -- from :meth:`repro.scc.mpb.Mpb.write_bytes`,
  for every *protocol* write (flag or data; raw initialisation writes are
  never faulted).  May drop or corrupt the write.
- :meth:`link_stall` -- from :meth:`repro.scc.mesh.Mesh.fault_stall`, on
  every MPB transaction; returns extra mesh delay.
- :meth:`core_op` -- from the timed primitives of
  :class:`repro.scc.core.Core`; returns extra pause delay or raises
  :class:`repro.sim.FaultInjected` once the core has been crashed.

The injector holds no RNG: plans are decided before the run, occurrence
counters advance deterministically, so two runs with the same plan are
byte-identical.  Counters are maintained even with an empty plan, which
is how campaigns *profile* a run to learn how many candidate fault sites
of each class exist.

Every injected fault and every recovery reported by a fault-tolerant
protocol layer is (a) recorded on the injector and (b) emitted through
the chip tracer (kinds ``fault.injected`` / ``fault.recovered``), so
fault timelines can be rendered next to latency results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..sim.errors import FaultInjected
from .plan import FaultKind, FaultPlan, FaultSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..scc.chip import SccChip

#: Actions :meth:`filter_mpb_write` can take.
DELIVER, DROP, CORRUPT = "deliver", "drop", "corrupt"


@dataclass(frozen=True)
class InjectionRecord:
    """One fault that actually fired."""

    time: float
    spec: FaultSpec
    site: str  # concrete location, e.g. "mpb12@4064" or "core7"

    def __str__(self) -> str:
        return f"[{self.time:12.4f}] {self.spec.kind.value} at {self.site}"


@dataclass(frozen=True)
class RecoveryRecord:
    """One recovery action reported by an FT protocol layer."""

    time: float
    site: str
    note: str = ""

    def __str__(self) -> str:
        return f"[{self.time:12.4f}] recovered {self.site} {self.note}".rstrip()


@dataclass
class _Armed:
    """A plan spec plus its fired flag (specs fire at most once)."""

    spec: FaultSpec
    fired: bool = field(default=False)


@dataclass
class _Churn:
    """Armed REPEATED_CRASH state: after the first victim, the next
    non-dead core to execute a timed primitive at or past ``next_at``
    is crashed too, until ``left`` reaches zero."""

    spec: FaultSpec
    next_at: float
    left: int


class FaultInjector:
    """Deterministic fault injection for one chip."""

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self.chip: "SccChip | None" = None
        # Occurrence counts: per category, and per category and core.
        # Integer-keyed because every hook bumps them; the string-keyed
        # view campaigns sample from is built on read (see `counts`).
        self._global: dict[str, int] = {}
        self._per_core: dict[str, dict[int, int]] = {}
        self.injected: list[InjectionRecord] = []
        self.recoveries: list[RecoveryRecord] = []
        self._dead: set[int] = set()
        #: Per-core link-down windows: core id -> end of the down window.
        self._link_down_until: dict[int, float] = {}
        #: Per-core flap windows: core id -> (t0, until, period, duty).
        #: The link is down during the first ``duty`` fraction of each
        #: ``period``-long cycle inside [t0, until).
        self._flapping: dict[int, tuple[float, float, float, float]] = {}
        #: Congestion-storm windows: (t0, until, per-access stall).
        #: Overlapping storms stack additively.
        self._storms: list[tuple[float, float, float]] = []
        #: Armed REPEATED_CRASH churn regimes.
        self._churn: list[_Churn] = []
        #: Protocol writes swallowed by an active link-down window.
        self.burst_dropped: int = 0
        self._armed: dict[str, list[_Armed]] = {}
        for spec in self.plan:
            self._armed.setdefault(spec.category, []).append(_Armed(spec))

    # -- wiring ------------------------------------------------------------

    def attach(self, chip: "SccChip") -> None:
        """Hook this injector into every model of ``chip``."""
        self.chip = chip
        chip.faults = self
        for mpb in chip.mpbs:
            mpb.injector = self
        chip.mesh.injector = self
        # Detector errors (deadlock/watchdog) raised by the kernel carry
        # the fault timeline, so a wedged campaign trial is diagnosable
        # from the exception alone.
        chip.sim.diagnostic_context = self.timeline_text

    # -- bookkeeping --------------------------------------------------------

    def _bump(self, category: str, core: int | None) -> tuple[int, int]:
        """Advance the global and per-core counters; returns both counts."""
        g = self._global.get(category, 0) + 1
        self._global[category] = g
        if core is None:
            return g, 0
        per_core = self._per_core.get(category)
        if per_core is None:
            per_core = self._per_core[category] = {}
        c = per_core.get(core, 0) + 1
        per_core[core] = c
        return g, c

    @property
    def counts(self) -> dict[str, int]:
        """Occurrence counts so far: ``counts[category]`` chip-wide and
        ``counts[f"{category}@core{n}"]`` per core (a fresh dict)."""
        out = dict(self._global)
        for category, per_core in self._per_core.items():
            for core, c in per_core.items():
                out[f"{category}@core{core}"] = c
        return out

    def _match(
        self, category: str, core: int | None, n_global: int, n_core: int
    ) -> FaultSpec | None:
        """The first unfired plan spec matching this occurrence, if any."""
        candidates = self._armed.get(category)
        if candidates is None:
            return None
        for armed in candidates:
            if armed.fired:
                continue
            spec = armed.spec
            if spec.core is None:
                if spec.nth == n_global:
                    armed.fired = True
                    return spec
            elif spec.core == core and spec.nth == n_core:
                armed.fired = True
                return spec
        return None

    def _record(self, spec: FaultSpec, site: str) -> None:
        now = self.chip.sim.now if self.chip is not None else 0.0
        self.injected.append(InjectionRecord(now, spec, site))
        if self.chip is not None:
            self.chip.trace(
                "faults", "fault.injected",
                fault=spec.kind.value, site=site, nth=spec.nth,
            )

    def note_recovery(self, site: str, note: str = "") -> None:
        """Called by FT protocol layers when a fault was masked (a retried
        flag write landed, a lagging child was re-notified, ...)."""
        now = self.chip.sim.now if self.chip is not None else 0.0
        self.recoveries.append(RecoveryRecord(now, site, note))
        if self.chip is not None:
            self.chip.trace("faults", "fault.recovered", site=site, note=note)

    # -- hooks (called by the chip models) -----------------------------------

    def filter_mpb_write(
        self, *, owner: int, offset: int, nbytes: int, source: int, op: str
    ) -> str:
        """Decide the fate of one protocol MPB write.  ``op`` is ``"flag"``
        or ``"data"``; returns one of DELIVER / DROP / CORRUPT."""
        category = "flag_write" if op == "flag" else "data_write"
        n_global, n_core = self._bump(category, owner)
        spec = self._match(category, owner, n_global, n_core)
        if spec is None:
            if self._link_is_down(owner) or self._link_is_down(source):
                self.burst_dropped += 1
                return DROP
            return DELIVER
        self._record(spec, f"mpb{owner}@{offset} (from core{source})")
        corrupting = (FaultKind.CORRUPT_FLAG_WRITE, FaultKind.CORRUPT_DATA_WRITE)
        return CORRUPT if spec.kind in corrupting else DROP

    def link_stall(self, src_core: int, dst_core: int) -> float:
        """Extra mesh delay for one MPB transaction of ``src_core``."""
        n_global, n_core = self._bump("mpb_access", src_core)
        spec = self._match("mpb_access", src_core, n_global, n_core)
        storm = self._storm_stall()
        if spec is None:
            return storm
        self._record(spec, f"core{src_core}->core{dst_core}")
        now = self.chip.sim.now if self.chip is not None else 0.0
        if spec.kind is FaultKind.LINK_DOWN:
            until = now + spec.duration
            prev = self._link_down_until.get(spec.core, 0.0)
            self._link_down_until[spec.core] = max(prev, until)
            return storm  # writes vanish silently; the access itself is not slowed
        if spec.kind is FaultKind.FLAPPING_LINK:
            # Arm the duty cycle; like LINK_DOWN, down phases swallow
            # writes silently rather than slowing the access.
            self._flapping[spec.core] = (
                now, now + spec.duration, spec.period, spec.duty,
            )
            return storm
        if spec.kind is FaultKind.CONGESTION_STORM:
            # The per-access stall applies from the triggering access on.
            self._storms.append((now, now + spec.duration, spec.period))
            return storm + spec.period
        return storm + spec.duration

    def _storm_stall(self) -> float:
        """Total extra per-access stall from storms active right now."""
        if not self._storms:
            return 0.0
        now = self.chip.sim.now if self.chip is not None else 0.0
        return sum(
            stall for t0, until, stall in self._storms if t0 <= now < until
        )

    def core_op(self, core_id: int) -> float:
        """Called at every timed core primitive.  Returns extra pause
        delay; raises :class:`FaultInjected` if the core is (now) dead."""
        if core_id in self._dead:
            self._raise_dead(core_id)
        n_global, n_core = self._bump("core_op", core_id)
        spec = self._match("core_op", core_id, n_global, n_core)
        if spec is None:
            self._churn_check(core_id)
            return 0.0
        self._record(spec, f"core{core_id}")
        if spec.kind is FaultKind.CORE_CRASH:
            self._dead.add(core_id)
            self._raise_dead(core_id)
        if spec.kind is FaultKind.REPEATED_CRASH:
            now = self.chip.sim.now if self.chip is not None else 0.0
            if spec.cycles > 1:
                self._churn.append(
                    _Churn(spec=spec, next_at=now + spec.period,
                           left=spec.cycles - 1)
                )
            self._dead.add(core_id)
            self._raise_dead(core_id)
        return spec.duration

    def _churn_check(self, core_id: int) -> None:
        """Claim the next churn crash: once a REPEATED_CRASH regime's
        gap has elapsed, the first (non-dead) core to execute a timed
        primitive becomes the next victim."""
        if not self._churn:
            return
        now = self.chip.sim.now if self.chip is not None else 0.0
        for churn in self._churn:
            if churn.left > 0 and now >= churn.next_at:
                churn.left -= 1
                churn.next_at = now + churn.spec.period
                self._dead.add(core_id)
                self._record(churn.spec, f"core{core_id} (churn)")
                self._raise_dead(core_id)

    def adversary_stage(self, core_id: int) -> FaultSpec | None:
        """Byzantine staging hook: called by the Byzantine-tolerant engine
        (``byz=True``) each time ``core_id`` stages a chunk as source or
        coordinator.  Returns the EQUIVOCATE spec whose staging window
        ``[nth, nth+window)`` covers this occurrence, else ``None``.

        Crash-tolerant runs never call this, so ``adv_stage`` counters
        stay at zero there and existing traces are bit-identical.
        """
        _, n_core = self._bump("adv_stage", core_id)
        for armed in self._armed.get("adv_stage", ()):
            spec = armed.spec
            if spec.core != core_id:
                continue
            if spec.nth <= n_core < spec.nth + spec.window:
                if not armed.fired:
                    armed.fired = True
                    self._record(spec, f"core{core_id} staging #{n_core}")
                return spec
        return None

    def quorum_vote(self, core_id: int) -> FaultSpec | None:
        """Byzantine vote hook: called by the RBC layer once per
        (core, chunk round) before the core casts its ECHO/READY votes.
        Returns the FORGE_FLAG_VALUE / LIE_IN_QUORUM spec firing at this
        occurrence, else ``None``.  Only ``byz=True`` runs call this.
        """
        n_global, n_core = self._bump("quorum_vote", core_id)
        spec = self._match("quorum_vote", core_id, n_global, n_core)
        if spec is not None:
            self._record(spec, f"core{core_id} vote round #{n_core}")
        return spec

    def is_dead(self, core_id: int) -> bool:
        return core_id in self._dead

    def _link_is_down(self, core_id: int) -> bool:
        now = self.chip.sim.now if self.chip is not None else 0.0
        until = self._link_down_until.get(core_id)
        if until is not None and now < until:
            return True
        flap = self._flapping.get(core_id)
        if flap is not None:
            t0, f_until, period, duty = flap
            if t0 <= now < f_until and (now - t0) % period < duty * period:
                return True
        return False

    def _raise_dead(self, core_id: int) -> None:
        now = self.chip.sim.now if self.chip is not None else 0.0
        raise FaultInjected(
            f"core {core_id} crashed by fault plan at t={now:.4f}",
            kind=FaultKind.CORE_CRASH.value,
            site=f"core{core_id}",
            sim_time=now,
        )

    # -- reporting -----------------------------------------------------------

    @property
    def n_injected(self) -> int:
        return len(self.injected)

    @property
    def n_recovered(self) -> int:
        return len(self.recoveries)

    def profile(self) -> dict[str, int]:
        """The occurrence counters (for campaign site sampling)."""
        return self.counts

    def timeline_text(self, limit: int = 12) -> str:
        """The fault timeline as indented text, for appending to detector
        error messages (empty string when nothing was injected)."""
        events: list[tuple[float, str]] = []
        events.extend((r.time, str(r)) for r in self.injected)
        events.extend((r.time, str(r)) for r in self.recoveries)
        if not events:
            return ""
        events.sort(key=lambda e: e[0])
        shown = events[:limit]
        lines = [f"  {text}" for _, text in shown]
        if len(events) > len(shown):
            lines.append(f"  ... and {len(events) - len(shown)} more")
        if self.burst_dropped:
            lines.append(f"  ({self.burst_dropped} writes lost to link-down bursts)")
        return "fault timeline:\n" + "\n".join(lines)
