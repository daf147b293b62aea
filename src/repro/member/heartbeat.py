"""Heartbeat-based membership with epoch-stamped views.

The SCC gives us no failure detector: a crashed core simply stops
writing its MPB flags, and the paper's protocol spins forever on it.
This module builds the minimal group-membership machinery the
crash-surviving broadcast service needs, out of the same MPB primitives
the broadcast itself uses:

- **Heartbeats** -- every member owns one slot in a
  :class:`repro.rcce.flags.FlagSlotArray` replicated in the *root's*
  MPB.  A heartbeat is an acked slot write (readback-verified, bounded
  re-send), so a silently dropped heartbeat cannot masquerade as a
  crash.  Slot values (the codec of :mod:`repro.member.rules`) are
  monotonic in the recovery round, with one payload bit reporting
  whether the member delivered the broadcast that triggered the round.
- **Suspicion** -- the root collects heartbeats under one shared poll
  budget (``hb_timeout``); members whose slot never reaches the round's
  floor are *suspected* and dropped from the next view.  A poll budget,
  not a clock: the simulated SCC has no synchronised time source, and a
  budget is exactly what :func:`wait_at_least` already implements.
- **Epoch-stamped views** -- a view is ``(epoch, members)``.  The
  *coordinator* (the static root until a failover; thereafter whoever
  won the election, see :mod:`repro.member.election`) installs a new
  view by staging its membership bitmap -- plus a 4-byte *completion
  directive* for the in-flight message -- in its own MPB, then
  performing an *acked* flag write to every informed member, suspects
  included, so a falsely accused live core learns of its eviction
  instead of hanging.  The flag's tag packs ``epoch * 256 +
  coordinator``, which is both the epoch handoff (members learn the new
  coordinator and re-home their heartbeats to its MPB) and the fence
  against the old epoch: a stale write from a deposed coordinator
  decodes to a non-advancing epoch and is never adopted.  Members adopt
  the view by pulling the bitmap from the *installer* with a one-sided
  read when the epoch advances.

The MPB cost is small: ``ceil(P/16)`` lines of heartbeat slots, one
view-flag line and ``ceil((ceil(P/8)+4)/32)`` bitmap+directive lines --
5 lines for the full 48-core chip, on top of OC-Bcast's 202-line
service footprint.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Iterable

from ..rcce.flags import FlagSlotArray, FlagValue
from ..resilience.detector import DetectorConfig, PhiAccrualDetector
from ..resilience.policy import IMMEDIATE, RetryPolicy
from ..scc.config import CACHE_LINE
from ..sim.errors import TimeoutError as SimTimeoutError
from . import rules
from .rules import DIRECTIVE_SIZE, NO_DIRECTIVE, CompletionDirective

if TYPE_CHECKING:  # pragma: no cover
    from ..rcce.comm import Comm, CoreComm

#: Histogram buckets (microseconds) for time-to-detect / time-to-repair
#: (and time-to-elect, which shares the scale).
TTD_BOUNDS = (100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 25000.0)

#: The view-flag tag packs ``epoch * _TAG_BASE + coordinator_rank`` --
#: one acked flag write carries both the epoch bump and the handoff.
_TAG_BASE = 256

#: Staged beside the directive: the installer's OC sequence-window base
#: after the failed attempt.  Only *lagging* adopters (view-flag seq
#: beyond the round they are recovering) pull it -- it is how a member
#: that missed whole broadcast windows rejoins with its sequence
#: numbering in lockstep (see ``OcBcastService._fast_forward``).
_WINDOW = struct.Struct("<I")


@dataclass(frozen=True)
class MembershipConfig:
    """Tuning knobs of the membership service."""

    #: Root's shared poll budget (us) for collecting one round of
    #: heartbeats; a member silent past it is suspected.
    hb_timeout: float = 6000.0
    #: Member's poll budget (us) for the view flag after reporting.
    #: Must exceed ``hb_timeout`` -- the root only installs the view
    #: after its collect finishes.
    view_timeout: float = 9000.0
    #: Adaptive phi-accrual suspicion (``None`` keeps the fixed shared
    #: ``hb_timeout`` deadline -- the bit-identical legacy behaviour).
    detector: DetectorConfig | None = None
    #: Re-send schedule of acked heartbeat slot writes.
    hb_retry: RetryPolicy = IMMEDIATE
    #: Re-send schedule of view-install flag writes and bitmap staging.
    view_retry: RetryPolicy = IMMEDIATE
    #: Per-message recovery budget for the broadcast service: after
    #: this many failed attempts the service REFUSES deterministically
    #: (raises :class:`repro.resilience.OverloadError`) instead of
    #: burning its remaining attempts.  ``0`` disables.
    retry_budget: int = 0

    def __post_init__(self) -> None:
        if self.hb_timeout <= 0 or self.view_timeout <= 0:
            raise ValueError("membership timeouts must be > 0")
        if self.view_timeout <= self.hb_timeout:
            raise ValueError(
                "view_timeout must exceed hb_timeout (the view is only "
                "installed after the root's collect finishes)"
            )
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        # Timing coherence: a member re-sending its heartbeat under the
        # declared retry policy is *not* silent -- the suspicion window
        # must be long enough to see the last legal re-send, or every
        # paced retry schedule turns into a false eviction.
        ack_worst = self.hb_retry.max_total_pause()
        if self.hb_timeout <= ack_worst:
            raise ValueError(
                f"incoherent membership timing: the suspicion window "
                f"(hb_timeout={self.hb_timeout:g} us) must exceed the "
                f"worst-case heartbeat ack retry time ({ack_worst:g} us "
                f"from hb_retry); raise hb_timeout or trim hb_retry's "
                f"backoff schedule"
            )


@dataclass(frozen=True)
class MembershipView:
    """One epoch of group membership: who is believed alive."""

    epoch: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        members = tuple(sorted(self.members))
        if not members:
            raise ValueError("a view needs at least one member")
        if len(set(members)) != len(members):
            raise ValueError("duplicate ranks in view")
        if self.epoch < 0:
            raise ValueError("epoch must be >= 0")
        object.__setattr__(self, "members", members)

    @classmethod
    def full(cls, size: int) -> "MembershipView":
        """Epoch 0: everybody."""
        return cls(0, tuple(range(size)))

    def __contains__(self, rank: int) -> bool:
        return rank in self.members

    def without(self, suspects: Iterable[int]) -> "MembershipView":
        """The successor view with ``suspects`` evicted (epoch + 1)."""
        gone = set(suspects)
        kept = tuple(m for m in self.members if m not in gone)
        return MembershipView(self.epoch + 1, kept)

    # -- wire format -------------------------------------------------------

    def bitmap(self, size: int) -> bytes:
        """Little-endian membership bitmap (bit ``r`` set = rank r in)."""
        n = 0
        for m in self.members:
            if not 0 <= m < size:
                raise ValueError(f"member {m} outside 0..{size - 1}")
            n |= 1 << m
        return n.to_bytes(-(-size // 8), "little")

    @classmethod
    def from_bitmap(cls, epoch: int, raw: bytes, size: int) -> "MembershipView":
        n = int.from_bytes(raw, "little")
        return cls(epoch, tuple(r for r in range(size) if n >> r & 1))


class MembershipService:
    """Heartbeats, suspicion and view agreement for one communicator.

    Construction allocates the MPB state symmetrically (every core's
    layout advances identically, as with every other region).  Views are
    tracked per rank (``views[rank]``), because each SPMD program learns
    of an epoch change at its own simulated time.
    """

    def __init__(
        self,
        comm: "Comm",
        root: int = 0,
        config: MembershipConfig | None = None,
    ) -> None:
        self.comm = comm
        self.config = config or MembershipConfig()
        if not 0 <= root < comm.size:
            raise ValueError(f"root {root} outside 0..{comm.size - 1}")
        self.root = root
        size = comm.size
        self.hb = FlagSlotArray(
            comm.layout.alloc_lines(FlagSlotArray.lines_needed(size)),
            size,
            name="member.hb",
        )
        self.view_flag = comm.flag("member.view")
        bitmap_bytes = -(-size // 8)
        self.bitmap_region = comm.layout.alloc_lines(
            -(-(bitmap_bytes + DIRECTIVE_SIZE + _WINDOW.size) // CACHE_LINE)
        )
        self.views: list[MembershipView] = [
            MembershipView.full(size) for _ in range(size)
        ]
        #: Per-rank belief about who coordinates membership rounds.
        #: Starts at the static root; re-pointed by every view adopt /
        #: install (the epoch handoff).
        self.coord: list[int] = [root] * size
        #: Per-rank copy of the last adopted completion directive.
        self.directives: list[CompletionDirective] = [NO_DIRECTIVE] * size
        #: Per-rank round number of the last view install this rank
        #: observed (the view-flag seq when adopting; the installer's
        #: own round when installing).  The service layer compares it
        #: against the round a member is recovering to detect that the
        #: group has moved past it (see ``OcBcastService._recover``).
        self.view_rounds: list[int] = [0] * size
        #: Per-rank copy of the installer's sequence-window base, pulled
        #: only by lagging adopters (see ``_WINDOW``).
        self.window_hints: list[int] = [0] * size
        #: Per-collecting-rank phi-accrual detector state (lazy: only
        #: ranks that actually coordinate rounds grow one).  The service
        #: object is shared across the SPMD ranks, so detector state --
        #: like views/coord/directives -- must be per rank.
        self._detectors: dict[int, PhiAccrualDetector] = {}

    def detector_for(self, rank: int) -> PhiAccrualDetector | None:
        """The collecting rank's detector (``None`` when disabled)."""
        if self.config.detector is None:
            return None
        det = self._detectors.get(rank)
        if det is None:
            det = self._detectors[rank] = PhiAccrualDetector(self.config.detector)
        return det

    # -- member side -------------------------------------------------------

    def report(
        self, cc: "CoreComm", round_no: int, ok: bool, to: int
    ) -> Generator:
        """Send this round's heartbeat to coordinator ``to`` (acked slot
        write) -- the collector reads its own MPB copy of the symmetric
        slot array, so re-homing to an election winner is just a change
        of target.  ``ok`` reports whether the member delivered the
        payload of the attempt that triggered the round."""
        cc.trace("member.hb", round=round_no, ok=ok, to=to)
        yield from cc.slot_write_acked(
            self.hb, to, cc.rank, rules.hb_value(round_no, ok),
            retry=self.config.hb_retry,
        )

    def await_view(self, cc: "CoreComm", round_no: int) -> Generator[
        object, object, MembershipView
    ]:
        """Wait for the coordinator to install round ``round_no``'s
        view; adopt it (pulling the bitmap and completion directive from
        the *installer* on an epoch change) and return it.

        Raises :class:`repro.sim.TimeoutError` when the view never
        arrives within ``view_timeout`` -- the coordinator itself is
        gone, which the service layer answers with an election.
        """
        vals = yield from cc.wait_flags(
            [self.view_flag],
            lambda v, r=round_no: v[0].seq >= r,
            timeout=self.config.view_timeout,
            site="member.view",
        )
        epoch, installer = divmod(vals[0].tag, _TAG_BASE)
        self.view_rounds[cc.rank] = vals[0].seq
        # A flag seq past the round we are recovering means the group
        # ran (at least) one whole recovery round without us: pull the
        # installer's window hint too, so the service can re-align our
        # sequence numbering (the extra bytes are read only on this lag
        # path -- the in-step adopt is byte-for-byte the legacy one).
        lagging = vals[0].seq > round_no
        current = self.views[cc.rank]
        if epoch != current.epoch or lagging:
            bitmap_bytes = -(-cc.size // 8)
            span = bitmap_bytes + DIRECTIVE_SIZE
            if lagging:
                span += _WINDOW.size
            raw = yield from cc.get_bytes(
                installer, self.bitmap_region.offset, span
            )
            if epoch != current.epoch:
                view = MembershipView.from_bitmap(
                    epoch, raw[:bitmap_bytes], cc.size
                )
                self.views[cc.rank] = view
                self.coord[cc.rank] = installer
                self.directives[cc.rank] = CompletionDirective.decode(
                    raw[bitmap_bytes:]
                )
                cc.trace(
                    "member.view_adopt",
                    epoch=epoch, coord=installer, members=len(view.members),
                    evicted=cc.rank not in view,
                )
            if lagging:
                self.window_hints[cc.rank] = _WINDOW.unpack_from(
                    raw, bitmap_bytes + DIRECTIVE_SIZE
                )[0]
        return self.views[cc.rank]

    def evict_self(self, rank: int) -> None:
        """Local bookkeeping for a member that lost contact with the
        coordinator after delivering: it leaves the group on its own
        account (the coordinator's next collect will suspect it
        anyway)."""
        self.views[rank] = self.views[rank].without((rank,))

    # -- coordinator side --------------------------------------------------

    def collect(self, cc: "CoreComm", round_no: int) -> Generator[
        object, object, tuple[dict[int, bool], list[int]]
    ]:
        """Collect round ``round_no``'s heartbeats under one shared
        ``hb_timeout`` budget; returns ``(statuses, suspects)`` where
        statuses maps each responsive member to its delivered bit.

        Reads the *collector's own* MPB copy of the slot array, so any
        member can collect -- the freshly elected coordinator included.

        With ``config.detector`` set, the shared fixed deadline is
        replaced by a per-member *adaptive* one: the phi-accrual
        detector's history of this member's past response delays
        (relative to collect start) yields the silence duration at
        which phi crosses the threshold.  Observed congestion widens
        the window; a quiet mesh tightens it toward the floor.  The
        decision trace (``member.suspect``) is unchanged either way.
        """
        cfg = self.config
        view = self.views[cc.rank]
        floor = rules.hb_floor(round_no)
        lag_floor = rules.hb_lag_floor(round_no)
        start = cc.now
        det = self.detector_for(cc.rank)
        deadline = start + cfg.hb_timeout
        slots: dict[int, int] = {}
        suspects: list[int] = []
        for m in view.members:
            if m == cc.rank:
                continue
            if det is not None:
                bound = det.timeout(m, fallback=cfg.hb_timeout)
                cc.observe_histogram(
                    "resilience.phi_timeout_us", TTD_BOUNDS, bound
                )
                remaining = max(0.0, start + bound - cc.now)
            else:
                remaining = max(0.0, deadline - cc.now)
            try:
                slots[m] = yield from cc.slot_wait_at_least(
                    self.hb, m, floor, timeout=remaining
                )
                if det is not None:
                    delay = cc.now - start
                    det.observe(m, delay)
                    cc.observe_histogram(
                        "resilience.hb_delay_us", TTD_BOUNDS, delay
                    )
            except SimTimeoutError:
                if det is not None and round_no >= 2:
                    # Adaptive lag grace: a slot one round behind is a
                    # member blocked in its own recovery of the previous
                    # round, awaiting the install this round delivers
                    # (which fast-forwards it).  A dead member's slot
                    # never advances: it is suspected one round later.
                    try:
                        lag = yield from cc.slot_wait_at_least(
                            self.hb, m, lag_floor, timeout=0.0
                        )
                    except SimTimeoutError:
                        lag = None
                    if lag is not None:
                        cc.trace(
                            "resilience.lagging",
                            member=m, round=round_no, slot=lag,
                        )
                        cc.metric_inc("resilience.lagging")
                        continue
                suspects.append(m)
                if det is not None:
                    # Not a decision record (kind outside DECISION_KINDS):
                    # phi history differs across backends, decisions must
                    # not.
                    cc.trace(
                        "resilience.suspect",
                        member=m, round=round_no, timeout=bound,
                        samples=len(det.samples(m)),
                    )
                    cc.metric_inc("resilience.suspects")
                    det.forget(m)
                cc.trace("member.suspect", member=m, round=round_no)
                cc.metric_inc("member.suspected")
        return rules.hb_statuses(slots), suspects

    def install(
        self,
        cc: "CoreComm",
        view: MembershipView,
        round_no: int,
        decision: CompletionDirective | None = None,
        window: int = 0,
    ) -> Generator[object, object, list[int]]:
        """Install ``view`` as round ``round_no``'s outcome: stage the
        bitmap plus the completion ``decision`` (locally verified), then
        acked view-flag writes to every member of the *previous* view --
        suspects included, so a falsely accused live core learns of its
        eviction.  The flag tag packs ``epoch * 256 + installer``, which
        is the epoch handoff: adopters re-home their heartbeats to the
        installer.  Returns the members whose view flag could not be
        acked (unreachable: they will be suspected again next round).
        """
        cfg = self.config
        directive = decision or NO_DIRECTIVE
        inform = [m for m in self.views[cc.rank].members if m != cc.rank]
        self.views[cc.rank] = view
        self.coord[cc.rank] = cc.rank
        self.directives[cc.rank] = directive
        self.view_rounds[cc.rank] = round_no
        self.window_hints[cc.rank] = window
        if view.epoch:
            cc.metric_set("member.epoch", float(view.epoch))
        cc.trace(
            "member.view_install",
            epoch=view.epoch, round=round_no, members=len(view.members),
            directive=directive.code,
        )
        evicted = len([m for m in inform if m not in view]) + (
            0 if cc.rank in view else 1
        )
        if evicted:
            cc.metric_inc("resilience.evictions", evicted)
        payload = (
            view.bitmap(cc.size) + directive.encode() + _WINDOW.pack(window)
        ).ljust(self.bitmap_region.nbytes, b"\0")
        yield from self._stage_bitmap(cc, payload)
        unreachable: list[int] = []
        for m in inform:
            try:
                yield from cc.flag_set_acked(
                    m,
                    self.view_flag,
                    FlagValue(tag=view.epoch * _TAG_BASE + cc.rank, seq=round_no),
                    retry=cfg.view_retry,
                )
            except SimTimeoutError:
                unreachable.append(m)
                cc.trace("member.install_unreachable", member=m)
        return unreachable

    def _stage_bitmap(self, cc: "CoreComm", payload: bytes) -> Generator:
        """Write the bitmap into the root's own MPB and verify the local
        deposit (even local protocol writes can be faulted)."""
        off = self.bitmap_region.offset
        delays = self.config.view_retry.delays(cc.rank, "member.bitmap")
        for attempt in range(len(delays) + 1):
            if attempt and delays[attempt - 1] > 0.0:
                yield from cc.compute(delays[attempt - 1])
            yield from cc.put_bytes(cc.rank, off, payload)
            raw = cc.read_local(off, len(payload))
            if raw == payload:
                if attempt:
                    cc.note_recovery(
                        f"member.bitmap@core{cc.core_id}",
                        note=f"re-staged x{attempt}",
                    )
                return
        raise SimTimeoutError(
            f"core {cc.core_id}: membership bitmap failed to stage after "
            f"{len(delays) + 1} attempts at "
            f"t={cc.now:.4f}",
            process=f"core{cc.core_id}",
            sim_time=cc.now,
            site="member.bitmap",
        )
