"""Randomized composite-schedule generation (the chaos adversary).

A :class:`ScheduleGenerator` draws :class:`~repro.chaos.schedule.ChaosSchedule`
instances from one seeded :class:`random.Random`: backend, mesh
geometry, chunk count, protocol mode, then a composite fault load built
from the full vocabulary -- occurrence-counted flag/data drops and
corruption, link stalls, LINK_DOWN bursts, core pauses and crashes
(leaf / interior / root), Byzantine adversaries, a backend-agnostic
:class:`~repro.transport.api.CrashOnEvent`, and (asyncio) delay / drop /
partition network models.

Fault coordinates are drawn against the *profiled* fault-free run of
the same (backend, geometry, mode) coordinate
(:func:`repro.chaos.runner.profile_counts`), exactly like
:meth:`FaultCampaign.trial_plans` -- an ``nth`` beyond the run's site
count would never fire.  Draws are rejection-sampled against
:meth:`ChaosSchedule.validate`, which routes through the existing
:class:`repro.faults.FaultPlan` rules (site-overlap rejection,
adversary-core range checks, equivocation windows), so every schedule
the generator yields is valid by construction -- the property the
``test_chaos_properties`` suite pins across seeds and backends.

Fault *intensity* is bounded, not open-ended: stall / burst / pause
durations stay two orders of magnitude under the kernel watchdog, drop
probabilities stay within the FT retry budget's reach, partitions heal
inside the membership suspicion timeout, each schedule carries at most
one crash *event* (a REPEATED_CRASH event kills two cores, but only on
meshes of >= 8 ranks and with a full suspicion window of quiet between
them), sustained regimes (flap / storm) end or pace their outages
inside the stock suspicion deadline, and the Byzantine mode's benign companions are limited to
faults the transport layer absorbs *under* the time-bounded vote
rounds (flag drops/corruption, short stalls -- no bursts, pauses or
random delay models, which silence honest voters and split the
quorum).  Within those bounds every outcome must classify as
*tolerated* or *refused* -- the zero-violation envelope the nightly soak
asserts.  The deliberately fragile ``baseline`` mode (``ft=False``) is
excluded unless ``fragile=True``: its losses are expected, and it exists
to demo counterexample shrinking, not to measure the hardened stack.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.ocbcast import DEFAULT_CHUNK_LINES
from ..faults.plan import CATEGORY_OF, FaultKind, FaultSpec
from .runner import profile_counts
from .schedule import BACKENDS, MODES, ChaosSchedule, ModelSpec

#: Injector kinds the hardened stack must mask or repair, per mode.
#: The bare FT mode has no integrity layer (payload CRC + re-fetch is a
#: service feature) and no membership, so it only sees faults its acked
#: writes and re-notify path can absorb; the service sees everything;
#: the Byzantine mode adds the adversary kinds on top.
_SERVICE_KINDS = (
    FaultKind.DROP_FLAG_WRITE,
    FaultKind.CORRUPT_FLAG_WRITE,
    FaultKind.DROP_DATA_WRITE,
    FaultKind.CORRUPT_DATA_WRITE,
    FaultKind.LINK_STALL,
    FaultKind.LINK_DOWN,
)
_FT_KINDS = (
    FaultKind.DROP_FLAG_WRITE,
    FaultKind.CORRUPT_FLAG_WRITE,
    FaultKind.DROP_DATA_WRITE,
    FaultKind.LINK_STALL,
)
#: The Byzantine mode's *benign* companions: the RBC vote rounds are
#: time-bounded, so a LINK_DOWN burst or long pause silencing an honest
#: voter splits the echo/ready quorum (some members deliver, the
#: silenced ones refuse) -- a real sensitivity of any synchronous-round
#: RBC, but outside the tolerate-or-refuse envelope the soak asserts.
#: Flag drops/corruption and short stalls are absorbed by the transport
#: retry layer beneath the votes.
_BYZ_BENIGN_KINDS = (
    FaultKind.DROP_FLAG_WRITE,
    FaultKind.CORRUPT_FLAG_WRITE,
    FaultKind.LINK_STALL,
)
_ADVERSARIES = (
    FaultKind.EQUIVOCATE,
    FaultKind.FORGE_FLAG_VALUE,
    FaultKind.LIE_IN_QUORUM,
)

#: Intensity bounds (virtual us) -- all far under the 50 ms watchdog and
#: under the service's 2.5 ms suspicion timeout where it matters.
_STALL_RANGE = (100.0, 800.0)
_BURST_RANGE = (200.0, 800.0)
_PAUSE_RANGE = (200.0, 2_000.0)
_DROP_P_RANGE = (0.01, 0.10)
_HEAL_RANGE = (200.0, 1_500.0)

#: The service's default (fixed-deadline) suspicion bound -- the chaos
#: runner executes schedules against the stock config, so every
#: sustained regime's envelope is keyed to this constant: the regime
#: must end (flap, storm) or pace its outages (duty, gap) so that no
#: *live* member stays unreachable for a full suspicion window.  The
#: adaptive configuration tolerates far harsher regimes (see
#: ``repro.bench.churn``), but chaos asserts the *stock* stack's
#: zero-violation envelope.
_SUSPICION_BOUND = 6_000.0
#: FLAPPING_LINK: total window under half the suspicion bound, short
#: cycles with a minority duty so immediate-retry bursts straddle the
#: next up phase well inside any one deadline.
_FLAP_DURATION_RANGE = (400.0, 0.5 * _SUSPICION_BOUND)
_FLAP_PERIOD_RANGE = (100.0, 400.0)
_FLAP_DUTY_RANGE = (0.15, 0.45)
#: REPEATED_CRASH: the quiet gap gives the membership at least one
#: full collect/install round between crashes; two crashes total keeps
#: a 2*cols*rows-rank communicator's quorum comfortable.
_CHURN_GAP_RANGE = (_SUSPICION_BOUND, 2.0 * _SUSPICION_BOUND)
_CHURN_CYCLES = 2
#: CONGESTION_STORM: per-access stalls stay two orders under the
#: suspicion bound and the storm itself ends within one window, so the
#: correlated slowdown reads as jitter, never as silence.
_STORM_DURATION_RANGE = (400.0, _SUSPICION_BOUND)
_STORM_STALL_RANGE = (5.0, 50.0)

#: Probability that an event of a service schedule is a CrashOnEvent /
#: core crash (at most one crash per schedule either way).
_CRASH_PROB = 0.25
#: Probability that an asyncio service schedule carries a lossy model
#: (linkdrop or partition) instead of pure delay.
_LOSSY_MODEL_PROB = 0.3

#: Trace kinds a CrashOnEvent can target: every rank stages/enters
#: chunks (``oc.chunk.begin``), non-root ranks also fetch
#: (``oc.fetch``).
_CRASH_KIND_ANY = "oc.chunk.begin"
_CRASH_KIND_NODE = "oc.fetch"


@dataclass
class ScheduleGenerator:
    """Seeded stream of valid chaos schedules."""

    seed: int = 1
    backends: tuple[str, ...] = BACKENDS
    meshes: tuple[tuple[int, int], ...] = ((2, 2), (3, 2), (4, 3))
    #: Mode mix (drawn uniformly).  ``baseline`` is only admitted when
    #: ``fragile=True``.
    modes: tuple[str, ...] = ("service", "service", "service", "byz", "ft")
    max_events: int = 3
    max_chunks: int = 3
    #: Admit the deliberately fragile baseline (``ft=False``) mode.
    fragile: bool = False
    _rng: random.Random = field(init=False, repr=False)
    _count: int = field(init=False, default=0, repr=False)

    def __post_init__(self) -> None:
        self.backends = tuple(self.backends)
        self.meshes = tuple(tuple(m) for m in self.meshes)
        self.modes = tuple(self.modes)
        if self.max_events < 1:
            raise ValueError("max_events must be >= 1")
        if self.max_chunks < 1:
            raise ValueError("max_chunks must be >= 1")
        for name in ("backends", "meshes", "modes"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        for name, allowed in (("backends", BACKENDS), ("modes", MODES)):
            unknown = sorted(set(getattr(self, name)) - set(allowed))
            if unknown:
                raise ValueError(f"{name} must be drawn from {allowed}, got {unknown}")
        for mode in self.modes:
            if mode == "baseline" and not self.fragile:
                raise ValueError(
                    "mode 'baseline' needs fragile=True: it is expected "
                    "to lose and would fail the zero-violation soak"
                )
        self._rng = random.Random(self.seed)

    # -- drawing ------------------------------------------------------------

    def generate(self, n: int) -> list[ChaosSchedule]:
        """The next ``n`` schedules of the stream."""
        return [self.one() for _ in range(n)]

    def one(self) -> ChaosSchedule:
        """Draw the next valid schedule (rejection-sampled: a draw that
        trips a :class:`FaultPlan` rule is discarded and retried)."""
        for _ in range(64):
            schedule = self._draw()
            try:
                schedule.validate()
            except ValueError:
                continue
            self._count += 1
            return schedule
        raise RuntimeError(
            "64 consecutive invalid draws -- generator bounds are "
            "inconsistent with the FaultPlan rules"
        )

    def _draw(self) -> ChaosSchedule:
        rng = self._rng
        backend = rng.choice(self.backends)
        mode = rng.choice(self.modes)
        mesh = rng.choice(self.meshes)
        chunks = rng.randint(1, self.max_chunks)
        seed = rng.randrange(1, 2**31)
        nranks = 2 * mesh[0] * mesh[1]
        profile = profile_counts(backend, mesh, chunks, mode)

        specs: list[FaultSpec] = []
        claimed: set[tuple[str, int | None, int]] = set()
        crash: tuple[int, str, int] | None = None
        crash_budget = 1
        ft_ack_data = False

        n_events = rng.randint(1, self.max_events)
        for _ in range(n_events):
            roll = rng.random()
            if mode == "byz" and roll < 0.6:
                spec = self._draw_adversary(rng, nranks, profile, claimed)
                if spec is not None:
                    specs.append(spec)
                continue
            if mode == "service" and crash_budget \
                    and roll >= 1.0 - _CRASH_PROB:
                # Crashes only under the membership service: bare FT has
                # no eviction path (an interior crash wedges it) and a
                # crashed honest rank muddies the Byzantine quorum
                # arithmetic -- both outside the zero-violation envelope.
                crash_budget = 0
                if backend == "scc" and rng.random() < 0.5:
                    spec = self._draw_core_crash(rng, nranks, profile, claimed)
                    if spec is not None:
                        specs.append(spec)
                else:
                    crash = self._draw_crash_hook(rng, nranks, chunks)
                continue
            spec = self._draw_injector(
                rng, backend, mode, nranks, profile, claimed
            )
            if spec is None:
                continue
            if spec.kind is FaultKind.DROP_DATA_WRITE:
                ft_ack_data = True
            specs.append(spec)

        model = None
        if backend == "asyncio":
            model = self._draw_model(rng, mode, nranks)

        return ChaosSchedule(
            backend=backend,
            mesh=mesh,
            cache_lines=chunks * DEFAULT_CHUNK_LINES,
            mode=mode,
            seed=seed,
            specs=tuple(specs),
            crash=crash,
            model=model,
            label=f"gen{self.seed}#{self._count}",
            ft_ack_data=ft_ack_data,
        )

    # -- event pools --------------------------------------------------------

    def _claim(
        self,
        spec: FaultSpec,
        claimed: set[tuple[str, int | None, int]],
    ) -> FaultSpec | None:
        site = (CATEGORY_OF[spec.kind], spec.core, spec.nth)
        if site in claimed:
            return None
        claimed.add(site)
        return spec

    def _nth(self, rng: random.Random, count: int) -> int:
        return rng.randint(1, max(1, count))

    def _draw_injector(
        self, rng, backend, mode, nranks, profile, claimed
    ) -> FaultSpec | None:
        if mode == "byz":
            pool = list(_BYZ_BENIGN_KINDS)
        else:
            pool = list(_SERVICE_KINDS if mode == "service" else _FT_KINDS)
        if backend == "scc" and mode == "service":
            # The occurrence-counted mpb_access / core_op anchors of the
            # pause and sustained-regime kinds are SCC-mesh semantics
            # (see SCC_ONLY_KINDS), and only the service's membership
            # layer rides out a multi-deadline outage.
            pool.extend((
                FaultKind.CORE_PAUSE,
                FaultKind.FLAPPING_LINK,
                FaultKind.CONGESTION_STORM,
            ))
        kind = rng.choice(pool)
        if kind in (FaultKind.DROP_FLAG_WRITE, FaultKind.CORRUPT_FLAG_WRITE):
            spec = FaultSpec(
                kind, nth=self._nth(rng, profile.get("flag_write", 0))
            )
        elif kind in (FaultKind.DROP_DATA_WRITE, FaultKind.CORRUPT_DATA_WRITE):
            spec = FaultSpec(
                kind, nth=self._nth(rng, profile.get("data_write", 0))
            )
        elif kind is FaultKind.LINK_STALL:
            spec = FaultSpec(
                kind,
                nth=self._nth(rng, profile.get("mpb_access", 0)),
                duration=rng.uniform(*_STALL_RANGE),
            )
        elif kind is FaultKind.LINK_DOWN:
            core = rng.randrange(1, nranks)
            spec = FaultSpec(
                kind,
                core=core,
                nth=self._nth(rng, profile.get(f"mpb_access@core{core}", 0)),
                duration=rng.uniform(*_BURST_RANGE),
            )
        elif kind is FaultKind.FLAPPING_LINK:
            core = rng.randrange(1, nranks)
            period = rng.uniform(*_FLAP_PERIOD_RANGE)
            duration = max(period, rng.uniform(*_FLAP_DURATION_RANGE))
            spec = FaultSpec(
                kind,
                core=core,
                nth=self._nth(rng, profile.get(f"mpb_access@core{core}", 0)),
                duration=duration,
                period=period,
                duty=rng.uniform(*_FLAP_DUTY_RANGE),
            )
        elif kind is FaultKind.CONGESTION_STORM:
            spec = FaultSpec(
                kind,
                nth=self._nth(rng, profile.get("mpb_access", 0)),
                duration=rng.uniform(*_STORM_DURATION_RANGE),
                period=rng.uniform(*_STORM_STALL_RANGE),
            )
        else:  # CORE_PAUSE (scc only)
            core = rng.randrange(1, nranks)
            spec = FaultSpec(
                kind,
                core=core,
                nth=self._nth(rng, profile.get(f"core_op@core{core}", 0)),
                duration=rng.uniform(*_PAUSE_RANGE),
            )
        return self._claim(spec, claimed)

    def _draw_core_crash(self, rng, nranks, profile, claimed):
        core = rng.randrange(1, nranks)
        nth = self._nth(rng, profile.get(f"core_op@core{core}", 0))
        if nranks >= 8 and rng.random() < 0.33:
            # Churn: a second, different core crashes after a quiet gap
            # of at least one suspicion window.  Only on meshes large
            # enough that two evictions leave a comfortable quorum.
            spec = FaultSpec(
                FaultKind.REPEATED_CRASH,
                core=core,
                nth=nth,
                period=rng.uniform(*_CHURN_GAP_RANGE),
                cycles=_CHURN_CYCLES,
            )
        else:
            spec = FaultSpec(FaultKind.CORE_CRASH, core=core, nth=nth)
        return self._claim(spec, claimed)

    def _draw_crash_hook(self, rng, nranks, chunks):
        rank = rng.randrange(0, nranks)
        kind = _CRASH_KIND_ANY if rank == 0 or rng.random() < 0.5 \
            else _CRASH_KIND_NODE
        return (rank, kind, rng.randint(1, max(1, chunks)))

    def _draw_adversary(self, rng, nranks, profile, claimed):
        kind = rng.choice(_ADVERSARIES)
        if kind is FaultKind.EQUIVOCATE:
            n_stage = max(1, profile.get("adv_stage@core0", 1))
            spec = FaultSpec(
                kind, core=0, nth=rng.randint(1, n_stage), duration=1
            )
        else:
            core = rng.randrange(1, nranks)
            n_vote = max(1, profile.get(f"quorum_vote@core{core}", 1))
            spec = FaultSpec(kind, core=core, nth=rng.randint(1, n_vote))
        return self._claim(spec, claimed)

    def _draw_model(self, rng, mode, nranks) -> ModelSpec:
        if mode == "byz":
            # The time-bounded vote rounds assume bounded skew: random
            # per-write delays can land one honest member past the
            # quorum deadline its peers met, splitting the outcome.
            return ModelSpec(name="none")
        if rng.random() < _LOSSY_MODEL_PROB and mode == "service":
            if rng.random() < 0.5:
                return ModelSpec(
                    name="linkdrop",
                    p=rng.uniform(*_DROP_P_RANGE),
                    lo=0.05,
                    hi=rng.uniform(1.0, 5.0),
                )
            # Split off a minority island that heals well inside the
            # membership suspicion timeout.
            island = rng.sample(range(1, nranks), k=max(1, nranks // 4))
            rest = [r for r in range(nranks) if r not in island]
            return ModelSpec(
                name="partition",
                groups=(tuple(rest), tuple(island)),
                heal_at=rng.uniform(*_HEAL_RANGE),
            )
        if rng.random() < 0.25:
            return ModelSpec(name="none")
        return ModelSpec(name="uniform", lo=0.05, hi=rng.uniform(1.0, 5.0))
