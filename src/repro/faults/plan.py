"""Fault plans: *what* to inject, *where*, and *when*.

A :class:`FaultPlan` is a static, fully deterministic description of the
faults one simulation run will experience.  There is no randomness at
injection time -- campaigns (:mod:`repro.bench.faultcampaign`) draw plans
from a seeded RNG *before* the run, so the simulator's determinism
contract (same inputs, same event order) extends verbatim to faulted
runs: same seed + same plan => byte-identical trace.

Faults are addressed by *occurrence counting*: "the 3rd protocol flag
write whose destination is core 12", "the 40th timed operation of
core 7".  Occurrence counts are stable across runs (determinism again),
which makes them a precise, replayable coordinate system for fault
sites -- the same scheme hardware fault-injection rigs use with
instruction counts.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass

#: An occurrence number no counter reaches: the arm of a hook that can
#: fire nothing (see :class:`repro.faults.FaultInjector`).
NEVER = sys.maxsize


class FaultKind(enum.Enum):
    """The fault classes the injector understands.

    The write faults model the SCC's unacknowledged MPB stores (a remote
    write is fire-and-forget; nothing tells the sender it was lost); the
    stall/pause/crash faults model mesh congestion transients, cores held
    in an SMM handler, and cores dying outright.
    """

    #: Silently discard one protocol flag write (the receiving MPB line is
    #: never updated and no poll watcher wakes -- a lost notification).
    DROP_FLAG_WRITE = "drop_flag_write"
    #: Deliver one protocol flag write with its bytes inverted.
    CORRUPT_FLAG_WRITE = "corrupt_flag_write"
    #: Silently discard one payload (data) MPB write.
    DROP_DATA_WRITE = "drop_data_write"
    #: Deliver one payload (data) MPB write with its bytes inverted -- a
    #: single-event upset on the mesh that flag acks alone cannot see.
    CORRUPT_DATA_WRITE = "corrupt_data_write"
    #: Delay one MPB transaction by ``duration`` (a transient mesh-link
    #: stall on the access path).
    LINK_STALL = "link_stall"
    #: Take core ``core``'s mesh interface down for ``duration`` starting
    #: at its nth MPB transaction: every protocol MPB write *to or from*
    #: that core inside the window is silently dropped (a correlated
    #: burst, unlike the single-write DROP_* kinds).
    LINK_DOWN = "link_down"
    #: Freeze a core for ``duration`` at its nth timed operation.
    CORE_PAUSE = "core_pause"
    #: Kill a core at its nth timed operation; every later operation of
    #: that core raises :class:`repro.sim.FaultInjected`.
    CORE_CRASH = "core_crash"
    #: Byzantine source/coordinator: starting at the victim's nth chunk
    #: staging, write payload A to one part of the tree and a
    #: self-consistent variant B (valid integrity header) to the rest,
    #: for a window of ``duration`` consecutive stagings.  Only the
    #: Byzantine-tolerant mode (``OcBcastConfig(byz=True)``) consults
    #: this; crash-tolerant runs never reach the staging hook.
    EQUIVOCATE = "equivocate"
    #: Byzantine core: at its nth quorum-vote round, write
    #: attacker-chosen values into its own ECHO/READY vote slots within
    #: its MPB reach -- a *different* forged value per member (vote
    #: equivocation), the strongest behaviour the single-writer slot
    #: discipline leaves open.
    FORGE_FLAG_VALUE = "forge_flag_value"
    #: Byzantine core: at its nth quorum-vote round, vote a well-formed
    #: but false digest, consistently to every member.
    LIE_IN_QUORUM = "lie_in_quorum"
    #: Sustained regime: core ``core``'s mesh interface *flaps* with a
    #: duty cycle.  From the victim's nth MPB transaction, time is cut
    #: into ``period``-us cycles for ``duration`` us total; in the first
    #: ``duty`` fraction of each cycle the link is down (protocol MPB
    #: writes to or from the core silently drop, as with LINK_DOWN),
    #: then up for the rest.  An un-paced retry schedule that fits
    #: inside one down-phase loses every re-send; a backoff schedule
    #: spanning a full cycle is guaranteed an up-phase attempt.
    FLAPPING_LINK = "flapping_link"
    #: Sustained regime: crash churn across epochs.  Crashes core
    #: ``core`` at its nth timed operation, then keeps crashing: after
    #: each crash, the next surviving core to execute a timed operation
    #: at least ``period`` us later is crashed too, ``cycles`` crashes
    #: in total.  Exercises repeated suspicion/election/eviction rounds
    #: rather than the single-failover path.
    REPEATED_CRASH = "repeated_crash"
    #: Sustained regime: a congestion storm.  From the nth MPB
    #: transaction (of ``core``, or of anyone when ``core`` is None),
    #: *every* MPB transaction chip-wide for the next ``duration`` us is
    #: stalled an extra ``period`` us -- correlated slowdown, not loss.
    #: Fixed suspicion deadlines tuned for a quiet mesh false-evict
    #: under it; the phi-accrual detector widens with the observed
    #: delays instead.
    CONGESTION_STORM = "congestion_storm"


#: Valid ``crash_site`` choices for campaigns and the CLI: where a
#: CORE_CRASH strikes in the propagation tree.  ``"root"`` kills the
#: broadcast source/coordinator itself -- the scenario only the
#: election-capable service survives.
CRASH_SITES = ("leaf", "interior", "any", "root")

#: Counter category each kind matches against (see :class:`FaultInjector`).
CATEGORY_OF = {
    FaultKind.DROP_FLAG_WRITE: "flag_write",
    FaultKind.CORRUPT_FLAG_WRITE: "flag_write",
    FaultKind.DROP_DATA_WRITE: "data_write",
    FaultKind.CORRUPT_DATA_WRITE: "data_write",
    FaultKind.LINK_STALL: "mpb_access",
    FaultKind.LINK_DOWN: "mpb_access",
    FaultKind.CORE_PAUSE: "core_op",
    FaultKind.CORE_CRASH: "core_op",
    FaultKind.EQUIVOCATE: "adv_stage",
    FaultKind.FORGE_FLAG_VALUE: "quorum_vote",
    FaultKind.LIE_IN_QUORUM: "quorum_vote",
    FaultKind.FLAPPING_LINK: "mpb_access",
    FaultKind.REPEATED_CRASH: "core_op",
    FaultKind.CONGESTION_STORM: "mpb_access",
}

#: The sustained-regime kinds: a trigger occurrence arms a long-running
#: fault *process* (flap cycles, crash churn, a storm window) instead of
#: one discrete event.
SUSTAINED_KINDS = frozenset(
    (FaultKind.FLAPPING_LINK, FaultKind.REPEATED_CRASH, FaultKind.CONGESTION_STORM)
)

#: The Byzantine adversary kinds (category ``adv_stage`` or
#: ``quorum_vote``).  Their counters are only bumped by the
#: Byzantine-tolerant mode's hooks, so crash-tolerant runs are
#: bit-identical whether or not a plan carries them.
ADVERSARY_KINDS = frozenset(
    (FaultKind.EQUIVOCATE, FaultKind.FORGE_FLAG_VALUE, FaultKind.LIE_IN_QUORUM)
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    ``nth`` is the 1-based occurrence of the matching operation at which
    the fault fires (each spec fires at most once).  ``core`` narrows the
    match: for write faults it is the *destination* (MPB owner) core, for
    stalls the *accessing* core, for pause/crash the victim core; ``None``
    matches any core and counts occurrences globally.
    """

    kind: FaultKind
    nth: int = 1
    core: int | None = None
    #: Stall/pause length in microseconds (stall and pause kinds only);
    #: for the sustained kinds, the *total span* of the regime (flap /
    #: storm window length in us; unused for REPEATED_CRASH).
    duration: float = 0.0
    #: Sustained-regime cycle length (us): one down+up flap cycle for
    #: FLAPPING_LINK, the minimum gap between crashes for
    #: REPEATED_CRASH, the per-access extra stall for CONGESTION_STORM.
    period: float = 0.0
    #: FLAPPING_LINK only: the fraction of each cycle the link is down.
    duty: float = 0.0
    #: REPEATED_CRASH only: total number of crashes in the churn.
    cycles: int = 0

    def __post_init__(self) -> None:
        if self.nth < 1:
            raise ValueError(f"nth must be >= 1, got {self.nth}")
        if self.core is not None and self.core < 0:
            raise ValueError(f"core must be >= 0, got {self.core}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")
        if self.period < 0:
            raise ValueError(f"period must be >= 0, got {self.period}")
        if not 0.0 <= self.duty <= 1.0:
            raise ValueError(f"duty must be in [0, 1], got {self.duty}")
        if self.cycles < 0:
            raise ValueError(f"cycles must be >= 0, got {self.cycles}")
        if self.kind not in SUSTAINED_KINDS and (
            self.period or self.duty or self.cycles
        ):
            raise ValueError(
                f"{self.kind.value} takes no period/duty/cycles (sustained-"
                "regime fields)"
            )
        needs_duration = self.kind in (
            FaultKind.LINK_STALL,
            FaultKind.CORE_PAUSE,
            FaultKind.LINK_DOWN,
            FaultKind.FLAPPING_LINK,
            FaultKind.CONGESTION_STORM,
        )
        if needs_duration and self.duration == 0.0:
            raise ValueError(f"{self.kind.value} needs a positive duration")
        needs_core = (
            FaultKind.CORE_PAUSE,
            FaultKind.CORE_CRASH,
            FaultKind.LINK_DOWN,
            FaultKind.FLAPPING_LINK,
            FaultKind.REPEATED_CRASH,
        )
        if self.kind in needs_core and self.core is None:
            raise ValueError(f"{self.kind.value} needs an explicit victim core")
        if self.kind is FaultKind.FLAPPING_LINK:
            if self.period <= 0.0:
                raise ValueError("flapping_link needs a positive cycle period")
            if not 0.0 < self.duty < 1.0:
                raise ValueError(
                    "flapping_link needs a duty cycle strictly between 0 "
                    "and 1 (duty=1 is LINK_DOWN, duty=0 is no fault)"
                )
            if self.period > self.duration:
                raise ValueError(
                    "flapping_link period exceeds its total duration: the "
                    "link would never complete one down/up cycle -- use "
                    "LINK_DOWN for a single outage"
                )
        if self.kind is FaultKind.REPEATED_CRASH:
            if self.period <= 0.0:
                raise ValueError(
                    "repeated_crash needs a positive inter-crash period"
                )
            if self.cycles < 1:
                raise ValueError("repeated_crash needs cycles >= 1")
        if self.kind is FaultKind.CONGESTION_STORM and self.period <= 0.0:
            raise ValueError(
                "congestion_storm needs a positive per-access stall (period)"
            )
        if self.kind in ADVERSARY_KINDS and self.core is None:
            raise ValueError(
                f"{self.kind.value} needs an explicit adversary core: a "
                "Byzantine identity is a property of a member, not of an "
                "anonymous operation stream"
            )
        if self.kind is FaultKind.EQUIVOCATE and self.window < 1:
            raise ValueError(
                "equivocate needs a window of >= 1 staging occurrences "
                "(duration counts stagings, not microseconds)"
            )

    @property
    def category(self) -> str:
        return CATEGORY_OF[self.kind]

    @property
    def window(self) -> int:
        """Equivocation window in staging occurrences: ``[nth, nth+window)``.

        For EQUIVOCATE, ``duration`` is reinterpreted as a *count* of
        consecutive stagings (the adversary keeps serving two payload
        variants for that many chunks).  Zero for every other kind.
        """
        if self.kind is not FaultKind.EQUIVOCATE:
            return 0
        return int(self.duration)

    @property
    def site(self) -> str:
        where = "*" if self.core is None else f"core{self.core}"
        return f"{self.kind.value}@{where}#{self.nth}"


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of faults for one run.

    Multi-fault plans are allowed, but two specs may not claim the same
    occurrence site (same counter category, same core scope, same
    ``nth``): at most one fault can fire per operation, so overlapping
    specs would make the second spec silently dead -- the plan would lie
    about what the run experienced.  Such plans are rejected here rather
    than debugged from a campaign that "lost" a fault.

    The same reasoning rejects two EQUIVOCATE specs on the same core
    with overlapping staging windows ``[nth, nth+window)``, and -- when
    the communicator size is known (``num_cores``) -- specs naming cores
    outside the communicator, which could never fire.
    """

    specs: tuple[FaultSpec, ...] = ()
    label: str = ""
    #: Communicator size, when known at plan-build time.  Specs of any
    #: kind naming a core outside ``range(num_cores)`` are rejected: a
    #: crash victim, a stalled link or a "Byzantine member" that is not
    #: a member would never fire, and the run would silently report a
    #: fault-free trial as survived.
    num_cores: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        seen: dict[tuple[str, int | None, int], FaultSpec] = {}
        windows: dict[int, list[FaultSpec]] = {}
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"plan specs must be FaultSpec, got {spec!r}")
            key = (spec.category, spec.core, spec.nth)
            if key in seen:
                raise ValueError(
                    f"overlapping fault specs on the same site: {seen[key].site} "
                    f"and {spec.site} both claim occurrence #{spec.nth} of "
                    f"category {spec.category!r}"
                )
            seen[key] = spec
            if self.num_cores is not None and spec.core is not None \
                    and spec.core >= self.num_cores:
                what = "adversary spec" if spec.kind in ADVERSARY_KINDS else "spec"
                raise ValueError(
                    f"{what} {spec.site} targets core {spec.core} "
                    f"outside the {self.num_cores}-core communicator"
                )
            if spec.kind is FaultKind.EQUIVOCATE:
                for other in windows.get(spec.core, ()):
                    lo, hi = spec.nth, spec.nth + spec.window
                    olo, ohi = other.nth, other.nth + other.window
                    if lo < ohi and olo < hi:
                        raise ValueError(
                            f"overlapping equivocation windows on core "
                            f"{spec.core}: {other.site} covers stagings "
                            f"[{olo}, {ohi}) and {spec.site} covers "
                            f"[{lo}, {hi})"
                        )
                windows.setdefault(spec.core, []).append(spec)

    def __iter__(self):
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def describe(self) -> str:
        if not self.specs:
            return self.label or "no faults"
        body = ", ".join(s.site for s in self.specs)
        return f"{self.label}: {body}" if self.label else body


#: Convenience: the empty plan (used for profiling / fault-free runs).
NO_FAULTS = FaultPlan()
