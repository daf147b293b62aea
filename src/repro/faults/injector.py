"""The fault injector: deterministic hooks into the chip models.

A :class:`FaultInjector` is attached to a chip at construction time
(``SccChip(config, faults=FaultInjector(plan))``) and consulted from the
narrow waist of each hardware model:

- :meth:`filter_mpb_write` -- from :meth:`repro.scc.mpb.ByteStore.write_bytes`,
  for every *protocol* write (flag or data; raw initialisation writes are
  never faulted).  May drop or corrupt the write.
- :meth:`link_stall` -- from :meth:`repro.scc.core.Core.mpb_access` (and
  the asyncio backend's wire), on every MPB transaction; returns extra
  mesh delay.
- :meth:`core_op` -- from the timed primitives of
  :class:`repro.scc.core.Core`; returns extra pause delay or raises
  :class:`repro.sim.FaultInjected` once the core has been crashed.

Countdowns
----------
The hooks are not called at every occurrence.  Each holder of an
occurrence counter -- a :class:`~repro.scc.core.Core` for ``core_op``
and ``mpb_access``, the store it owns for ``flag_write`` and
``data_write`` (a rank's store for all four on a backend without a core
model) -- carries, beside the counter, its *arm*: the occurrence number
at which the injector must be entered.  A hook site is one increment and
one compare; only an armed occurrence calls the injector, which counts
it, fires what matches and re-arms.  Without an injector every arm is
:data:`~repro.faults.plan.NEVER`: no injector is the degenerate case of
one whose countdowns never end.

An arm is the next ``nth`` of an unfired spec naming the holder's core.
It is 0 -- every occurrence enters -- while one of these holds:

- a chip-wide (``core=None``) spec of the category is pending: which
  occurrence is its nth is only known one at a time, in order;
- a regime acting on every core's occurrences is live or pending: a
  congestion storm (``mpb_access``), crash churn (``core_op``), a
  link-down or flapping window (the writes);
- the core is dead (its ``core_op``).

A regime that has ended is pruned at the next entry and the countdowns
re-arm.  :attr:`counts` is built from the counters on read.

A leg script (:mod:`repro.scc.core`) replaces a run of per-op hooks; it
consumes their occurrences in bulk (:meth:`repro.scc.core.Core.claim_lines`)
when none of them is armed, and otherwise the per-op loop runs and
enters the injector where the countdown says.  A quiet injector --
nothing armed among the script's occurrences -- therefore changes
nothing about a script, and the run is identical to the per-op loop's.

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
from .plan import NEVER, FaultKind, FaultPlan, FaultSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..scc.chip import SccChip

#: Actions :meth:`filter_mpb_write` can take.
DELIVER, DROP, CORRUPT = "deliver", "drop", "corrupt"

#: The counted categories the hook sites count down, and the counter
#: attribute of their holders (the arm is ``<counter>_arm``).  The
#: Byzantine categories are counted in the injector itself: only the
#: Byzantine-tolerant mode's rare hooks reach them.
_COUNTER = {
    "core_op": "ops",
    "mpb_access": "accesses",
    "flag_write": "flag_writes",
    "data_write": "data_writes",
}
_WRITES = ("flag_write", "data_write")


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

    @property
    def opens_regime(self) -> bool:
        """Whether firing starts a regime acting on every core's
        occurrences: a storm, or crash churn of more than one victim."""
        kind = self.spec.kind
        return kind is FaultKind.CONGESTION_STORM or (
            kind is FaultKind.REPEATED_CRASH and self.spec.cycles > 1
        )


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
        #: Per counted category, the counter holders by core id (set by
        #: :meth:`attach`).
        self._holders: dict[str, list] = {}
        #: Per counted category, the occurrences that entered the
        #: injector: the chip-wide count while a chip-wide spec is
        #: pending (every occurrence enters until it fires), and past
        #: every chip-wide nth after.
        self._entered: dict[str, int] = dict.fromkeys(_COUNTER, 0)
        #: Per counted category, whether every occurrence enters.
        self._wide: dict[str, bool | None] = dict.fromkeys(_COUNTER)
        # Occurrence counts of the Byzantine categories: chip-wide, and
        # per category and core.
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
        #: Live REPEATED_CRASH churn regimes (victims left).
        self._churn: list[_Churn] = []
        #: Protocol writes swallowed by an active link-down window.
        self.burst_dropped: int = 0
        self._armed: dict[str, list[_Armed]] = {}
        for spec in self.plan:
            self._armed.setdefault(spec.category, []).append(_Armed(spec))

    # -- wiring ------------------------------------------------------------

    def attach(self, chip: "SccChip") -> None:
        """Hook this injector into every model of ``chip`` and arm the
        countdowns.  A world without ``cores`` (the asyncio backend)
        counts a rank's timed operations and transactions on its store."""
        stores = chip.mpbs
        for spec in self.plan:
            if spec.core is not None and spec.core >= len(stores):
                raise ValueError(
                    f"fault spec {spec.site} names core {spec.core}, but "
                    f"the world has {len(stores)} cores"
                )
        self.chip = chip
        chip.faults = self
        for store in stores:
            store.injector = self
        cores = getattr(chip, "cores", stores)
        self._holders = {
            "core_op": cores, "mpb_access": cores,
            "flag_write": stores, "data_write": stores,
        }
        for category, counter in _COUNTER.items():
            for holder in self._holders[category]:
                setattr(holder, counter, 0)
            self._settle(category)
        # Detector errors (deadlock/watchdog) raised by the kernel carry
        # the fault timeline, so a wedged campaign trial is diagnosable
        # from the exception alone.
        chip.sim.diagnostic_context = self.timeline_text

    # -- bookkeeping --------------------------------------------------------

    def _now(self) -> float:
        return self.chip.sim.now if self.chip is not None else 0.0

    def _bump(self, category: str, core: int) -> tuple[int, int]:
        """Count one occurrence; returns the chip-wide count (exact while
        a chip-wide spec of the category is pending) and the core's."""
        counter = _COUNTER.get(category)
        if counter is None:
            g = self._global[category] = self._global.get(category, 0) + 1
            per_core = self._per_core.setdefault(category, {})
            c = per_core[core] = per_core.get(core, 0) + 1
            return g, c
        holder = self._holders[category][core]
        c = getattr(holder, counter) + 1
        setattr(holder, counter, c)
        g = self._entered[category] = self._entered[category] + 1
        return g, c

    def _settle(self, category: str, core: int | None = None) -> None:
        """Re-arm after an entry: every holder of ``category`` when its
        chip-wide state flipped, else ``core``'s (if given) alone."""
        wide = self._chipwide(category)
        if wide != self._wide[category]:
            self._wide[category] = wide
            for i in range(len(self._holders[category])):
                self._arm(category, i)
        elif core is not None:
            self._arm(category, core)

    def _chipwide(self, category: str) -> bool:
        """Whether every occurrence of ``category`` must enter: a
        chip-wide spec or a regime opener of it is pending, or a regime
        acting on it is live."""
        holders = self._holders[category]
        counter = _COUNTER[category]
        for armed in self._armed.get(category, ()):
            spec = armed.spec
            if armed.fired:
                continue
            if spec.core is None:
                if spec.nth > self._entered[category]:
                    return True
            elif armed.opens_regime and spec.core not in self._dead \
                    and spec.nth > getattr(holders[spec.core], counter):
                return True
        if category == "core_op":
            return bool(self._churn)
        if category == "mpb_access":
            return bool(self._storms)
        return bool(self._link_down_until or self._flapping)

    def _arm(self, category: str, core: int) -> None:
        """Set ``core``'s arm of ``category``: 0 (every occurrence
        enters) chip-wide or for a dead core's operations, else the
        next nth of an unfired spec naming the core (or NEVER)."""
        counter = _COUNTER[category]
        holder = self._holders[category][core]
        if self._wide[category] or (category == "core_op" and core in self._dead):
            arm = 0
        else:
            count = getattr(holder, counter)
            arm = min(
                (a.spec.nth for a in self._armed.get(category, ())
                 if not a.fired and a.spec.core == core and a.spec.nth > count),
                default=NEVER,
            )
        setattr(holder, counter + "_arm", arm)

    @property
    def counts(self) -> dict[str, int]:
        """Occurrence counts so far: ``counts[category]`` chip-wide and
        ``counts[f"{category}@core{n}"]`` per core (a fresh dict; a
        category or core with no occurrence has no key)."""
        out: dict[str, int] = {}
        for category, counter in _COUNTER.items():
            per_core = [getattr(h, counter) for h in self._holders.get(category, ())]
            if any(per_core):
                out[category] = sum(per_core)
                out.update(
                    (f"{category}@core{core}", c)
                    for core, c in enumerate(per_core) if c
                )
        out.update(self._global)
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
        self.injected.append(InjectionRecord(self._now(), spec, site))
        if self.chip is not None:
            self.chip.trace(
                "faults", "fault.injected",
                fault=spec.kind.value, site=site, nth=spec.nth,
            )

    def note_recovery(self, site: str, note: str = "") -> None:
        """Called by FT protocol layers when a fault was masked (a retried
        flag write landed, a lagging child was re-notified, ...)."""
        self.recoveries.append(RecoveryRecord(self._now(), site, note))
        if self.chip is not None:
            self.chip.trace("faults", "fault.recovered", site=site, note=note)

    # -- hooks (entered by the chip models at armed occurrences) -------------

    def filter_mpb_write(
        self, *, owner: int, offset: int, nbytes: int, source: int, op: str
    ) -> str:
        """Count one protocol MPB write and decide its fate.  ``op`` is
        ``"flag"`` or ``"data"``; returns one of DELIVER / DROP /
        CORRUPT."""
        category = "flag_write" if op == "flag" else "data_write"
        n_global, n_core = self._bump(category, owner)
        spec = self._match(category, owner, n_global, n_core)
        pruned = self._prune_links()
        if spec is None:
            if self._link_is_down(owner) or self._link_is_down(source):
                self.burst_dropped += 1
                action = DROP
            else:
                action = DELIVER
        else:
            self._record(spec, f"mpb{owner}@{offset} (from core{source})")
            action = CORRUPT if spec.kind.corrupts else DROP
        if spec is not None or pruned:
            for other in _WRITES:
                self._settle(other, owner if other == category else None)
        return action

    def link_stall(self, src_core: int, dst_core: int) -> float:
        """Count one MPB transaction of ``src_core``; returns its extra
        mesh delay."""
        n_global, n_core = self._bump("mpb_access", src_core)
        spec = self._match("mpb_access", src_core, n_global, n_core)
        pruned = self._prune_storms()
        stall = self._storm_stall()
        if spec is not None:
            self._record(spec, f"core{src_core}->core{dst_core}")
            now = self._now()
            if spec.kind is FaultKind.LINK_DOWN:
                # Writes vanish silently; the access itself is not slowed.
                until = now + spec.duration
                prev = self._link_down_until.get(spec.core, 0.0)
                self._link_down_until[spec.core] = max(prev, until)
            elif spec.kind is FaultKind.FLAPPING_LINK:
                # Arm the duty cycle; like LINK_DOWN, down phases swallow
                # writes silently rather than slowing the access.
                self._flapping[spec.core] = (
                    now, now + spec.duration, spec.period, spec.duty,
                )
            elif spec.kind is FaultKind.CONGESTION_STORM:
                # The per-access stall applies from the triggering access on.
                self._storms.append((now, now + spec.duration, spec.period))
                stall += spec.period
            else:
                stall += spec.duration
            for category in _WRITES:
                self._settle(category)
        if spec is not None or pruned:
            self._settle("mpb_access", src_core)
        return stall

    def _prune_storms(self) -> bool:
        """Drop the storms that have ended; whether there were any."""
        if not self._storms:
            return False
        now = self._now()
        live = [storm for storm in self._storms if now < storm[1]]
        pruned = len(live) < len(self._storms)
        self._storms = live
        return pruned

    def _storm_stall(self) -> float:
        """Total extra per-access stall from the live storms."""
        if not self._storms:
            return 0.0
        now = self._now()
        return sum(stall for t0, until, stall in self._storms if t0 <= now)

    def core_op(self, core_id: int) -> float:
        """Count one timed core primitive.  Returns extra pause delay;
        raises :class:`FaultInjected` if the core is (now) dead."""
        if core_id in self._dead:
            self._raise_dead(core_id)
        n_global, n_core = self._bump("core_op", core_id)
        spec = self._match("core_op", core_id, n_global, n_core)
        try:
            if spec is None:
                self._churn_check(core_id)
                return 0.0
            self._record(spec, f"core{core_id}")
            if spec.kind is FaultKind.CORE_CRASH:
                self._dead.add(core_id)
                self._raise_dead(core_id)
            if spec.kind is FaultKind.REPEATED_CRASH:
                if spec.cycles > 1:
                    self._churn.append(
                        _Churn(spec=spec, next_at=self._now() + spec.period,
                               left=spec.cycles - 1)
                    )
                self._dead.add(core_id)
                self._raise_dead(core_id)
            return spec.duration
        finally:
            if spec is not None or core_id in self._dead:  # fired or churned
                self._settle("core_op", core_id)

    def _churn_check(self, core_id: int) -> None:
        """Claim the next churn crash: once a REPEATED_CRASH regime's
        gap has elapsed, the first (non-dead) core to execute a timed
        primitive becomes the next victim.  A regime out of victims is
        pruned."""
        if not self._churn:
            return
        now = self._now()
        for churn in self._churn:
            if now >= churn.next_at:
                churn.left -= 1
                churn.next_at = now + churn.spec.period
                if not churn.left:
                    self._churn.remove(churn)
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

    def _prune_links(self) -> bool:
        """Drop the link-down and flap windows that have ended; whether
        there were any."""
        if not (self._link_down_until or self._flapping):
            return False
        now = self._now()
        ended = [c for c, until in self._link_down_until.items() if now >= until]
        for core in ended:
            del self._link_down_until[core]
        ended_flaps = [c for c, flap in self._flapping.items() if now >= flap[1]]
        for core in ended_flaps:
            del self._flapping[core]
        return bool(ended or ended_flaps)

    def _link_is_down(self, core_id: int) -> bool:
        now = self._now()
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
        now = self._now()
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
