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

    Each row is ``value, category, facts``: the string value is what
    bundles, goldens and :meth:`FaultPlan.describe` persist, and each
    boolean fact below is true iff the row's facts name it.
    """

    #: The injector counter the kind matches against (see
    #: :class:`FaultInjector`).
    category: str
    #: A spec must name its victim core (a member, not an operation stream).
    needs_core: bool
    #: A spec must give a positive ``duration``.
    needs_duration: bool
    #: A trigger arms a long-running fault process (flap cycles, crash
    #: churn, a storm window); only these kinds take period/duty/cycles.
    sustained: bool
    #: Byzantine: only the Byzantine-tolerant mode's hooks bump its
    #: counter, so crash-tolerant runs are bit-identical with or without it.
    adversarial: bool
    #: The victim is dead once it fires: evicting it is justified.
    crash: bool
    #: It hooks core primitives or anchors on ``mpb_access`` counts, which
    #: the asyncio backend lacks or counts differently, so chaos schedules
    #: pin it to the SCC backend (the differential ``flapping_link``
    #: scenario uses ``nth=1``, the one portable anchor).
    scc_only: bool
    #: The faulted write lands with its bytes inverted instead of dropped.
    corrupts: bool

    def __new__(cls, value: str, category: str, facts: str = "") -> "FaultKind":
        member = object.__new__(cls)
        member._value_ = value
        member.category = category
        named = set(facts.split())
        # The facts are the bool annotations above.
        known = {n for n, t in cls.__annotations__.items() if t == "bool"}
        if named - known:
            raise TypeError(f"{value}: unknown fault facts {named - known}")
        for fact in known:
            setattr(member, fact, fact in named)
        return member

    #: Silently discard one protocol flag write (the receiving MPB line is
    #: never updated and no poll watcher wakes -- a lost notification).
    DROP_FLAG_WRITE = "drop_flag_write", "flag_write"
    #: Deliver one protocol flag write with its bytes inverted.
    CORRUPT_FLAG_WRITE = "corrupt_flag_write", "flag_write", "corrupts"
    #: Silently discard one payload (data) MPB write.
    DROP_DATA_WRITE = "drop_data_write", "data_write"
    #: Deliver one payload (data) MPB write with its bytes inverted -- a
    #: single-event upset on the mesh that flag acks alone cannot see.
    CORRUPT_DATA_WRITE = "corrupt_data_write", "data_write", "corrupts"
    #: Delay one MPB transaction by ``duration`` (a transient mesh-link
    #: stall on the access path).
    LINK_STALL = "link_stall", "mpb_access", "needs_duration"
    #: Take core ``core``'s mesh interface down for ``duration`` starting
    #: at its nth MPB transaction: every protocol MPB write *to or from*
    #: that core inside the window is silently dropped (a correlated
    #: burst, unlike the single-write DROP_* kinds).
    LINK_DOWN = "link_down", "mpb_access", "needs_core needs_duration"
    #: Freeze a core for ``duration`` at its nth timed operation.
    CORE_PAUSE = "core_pause", "core_op", "needs_core needs_duration scc_only"
    #: Kill a core at its nth timed operation; every later operation of
    #: that core raises :class:`repro.sim.FaultInjected`.
    CORE_CRASH = "core_crash", "core_op", "needs_core crash scc_only"
    #: Byzantine source/coordinator: starting at the victim's nth chunk
    #: staging, write payload A to one part of the tree and a
    #: self-consistent variant B (valid integrity header) to the rest,
    #: for a window of ``duration`` consecutive stagings.  Only the
    #: Byzantine-tolerant mode (``OcBcastConfig(byz=True)``) consults
    #: this; crash-tolerant runs never reach the staging hook.
    EQUIVOCATE = (
        "equivocate", "adv_stage", "needs_core needs_duration adversarial"
    )
    #: Byzantine core: at its nth quorum-vote round, write
    #: attacker-chosen values into its own ECHO/READY vote slots within
    #: its MPB reach -- a *different* forged value per member (vote
    #: equivocation), the strongest behaviour the single-writer slot
    #: discipline leaves open.
    FORGE_FLAG_VALUE = "forge_flag_value", "quorum_vote", "needs_core adversarial"
    #: Byzantine core: at its nth quorum-vote round, vote a well-formed
    #: but false digest, consistently to every member.
    LIE_IN_QUORUM = "lie_in_quorum", "quorum_vote", "needs_core adversarial"
    #: Sustained regime: core ``core``'s mesh interface *flaps* with a
    #: duty cycle.  From the victim's nth MPB transaction, time is cut
    #: into ``period``-us cycles for ``duration`` us total; in the first
    #: ``duty`` fraction of each cycle the link is down (protocol MPB
    #: writes to or from the core silently drop, as with LINK_DOWN),
    #: then up for the rest.  An un-paced retry schedule that fits
    #: inside one down-phase loses every re-send; a backoff schedule
    #: spanning a full cycle is guaranteed an up-phase attempt.
    FLAPPING_LINK = (
        "flapping_link", "mpb_access",
        "needs_core needs_duration sustained scc_only",
    )
    #: Sustained regime: crash churn across epochs.  Crashes core
    #: ``core`` at its nth timed operation, then keeps crashing: after
    #: each crash, the next surviving core to execute a timed operation
    #: at least ``period`` us later is crashed too, ``cycles`` crashes
    #: in total.  Exercises repeated suspicion/election/eviction rounds
    #: rather than the single-failover path.
    REPEATED_CRASH = (
        "repeated_crash", "core_op", "needs_core sustained crash scc_only"
    )
    #: Sustained regime: a congestion storm.  From the nth MPB
    #: transaction (of ``core``, or of anyone when ``core`` is None),
    #: *every* MPB transaction chip-wide for the next ``duration`` us is
    #: stalled an extra ``period`` us -- correlated slowdown, not loss.
    #: Fixed suspicion deadlines tuned for a quiet mesh false-evict
    #: under it; the phi-accrual detector widens with the observed
    #: delays instead.
    CONGESTION_STORM = (
        "congestion_storm", "mpb_access", "needs_duration sustained scc_only"
    )


#: Valid ``crash_site`` choices for campaigns and the CLI: where a
#: CORE_CRASH strikes in the propagation tree.  ``"root"`` kills the
#: broadcast source/coordinator itself -- the scenario only the
#: election-capable service survives.
CRASH_SITES = ("leaf", "interior", "any", "root")

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
        kind = self.kind
        if not kind.sustained and (self.period or self.duty or self.cycles):
            raise ValueError(
                f"{kind.value} takes no period/duty/cycles (sustained-"
                "regime fields)"
            )
        if kind is FaultKind.EQUIVOCATE and self.window < 1:
            raise ValueError(
                "equivocate needs a window of >= 1 staging occurrences "
                "(duration counts stagings, not microseconds)"
            )
        if kind.needs_duration and self.duration == 0.0:
            raise ValueError(f"{kind.value} needs a positive duration")
        if kind.needs_core and self.core is None:
            what = (
                "adversary core: a Byzantine identity is a property of a "
                "member, not of an anonymous operation stream"
                if kind.adversarial else "victim core"
            )
            raise ValueError(f"{kind.value} needs an explicit {what}")
        if kind is FaultKind.FLAPPING_LINK:
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
        if kind is FaultKind.REPEATED_CRASH:
            if self.period <= 0.0:
                raise ValueError(
                    "repeated_crash needs a positive inter-crash period"
                )
            if self.cycles < 1:
                raise ValueError("repeated_crash needs cycles >= 1")
        if kind is FaultKind.CONGESTION_STORM and self.period <= 0.0:
            raise ValueError(
                "congestion_storm needs a positive per-access stall (period)"
            )

    @property
    def category(self) -> str:
        return self.kind.category

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
                what = "adversary spec" if spec.kind.adversarial else "spec"
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
