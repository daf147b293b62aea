"""OcBcastService: the crash-surviving broadcast service.

Wraps an FT OC-Bcast engine (service mode: NACK done-chain + commit
notification, payload integrity on) in a retry loop driven by the
membership service:

1.  Broadcast over the current view's survivor tree (a
    :class:`repro.core.trees.PropagationTree` without the dead).  A rank
    outside the view returns ``"evicted"`` without touching the MPB.
2.  On commit ``"ok"`` every live member has verified the payload --
    done (no heartbeat round on the fault-free path).
3.  On failure (commit ``"retry"``, an ``"undecided"`` commit, or a
    local timeout from an orphaned subtree) a *recovery round* runs:
    members report heartbeats carrying their delivered bit, the
    coordinator suspects the silent ones, installs the next epoch's
    view, and the loop re-broadcasts the message over the shrunken
    tree.  Suspected-but-alive cores learn of their eviction from the
    view flag and return ``"evicted"``.  The round's decisions are the
    pure functions of :mod:`repro.member.rules`.

Coordinator vs. source
----------------------
The *coordinator* (who collects heartbeats and installs views) and the
*broadcast source* (whose buffer is staged) are separate roles.  Both
start at the static root, but when the coordinator crashes the members
elect a successor by ranked succession (:mod:`repro.member.election`)
and the epoch is handed off: the winner re-installs a bumped-epoch view
whose flag tag names it, members re-home their heartbeats to its MPB,
and stale writes from the old epoch are fenced by the epoch-stamped
view flag and round-stamped claims.

Source-crash message completion
-------------------------------
When the *source* dies mid-message the group must not split into
deliverers and discarders.  Members that hold the complete verified
payload (commit ``"ok"``/``"retry"``/``"undecided"`` -- the integrity
layer guarantees a holder's bytes match the source's) report their
delivered bit; the coordinator counts those votes and piggybacks a
:class:`~repro.member.rules.CompletionDirective` on the view
install: *re-broadcast* from the lowest-ranked fully-delivered survivor
(who becomes the new source, peer-to-peer over the survivor tree), or
-- when nobody holds the payload -- a *uniform abort*, every live
member returning ``"aborted"``.  Either way all live members decide
alike: that is uniform agreement, checked as invariant I6 over the
``svc.outcome`` trace records (:mod:`repro.obs.invariants`).

Fail-stop caveat: like every timeout-based protocol, suspicion here is
eventually-accurate only for *crashed* cores.  A live core that stalls
past ``view_timeout`` (a long pause, a partition that heals late) is
treated as dead: it is evicted, and if it had already delivered and
exits before the verdict its outcome is recorded as non-decisive
(``self_evicted``) rather than breaking agreement among the members
that stayed.

Time-to-detect (first injected fault -> coordinator suspects it),
time-to-repair (first injected fault -> successful commit) and
time-to-elect (first injected fault -> election won) are recorded into
``member.ttd_us`` / ``member.ttr_us`` / ``member.tte_us`` histograms on
the chip's metrics registry when both an injector and a registry are
attached.
"""

from __future__ import annotations

import zlib
from dataclasses import replace
from typing import TYPE_CHECKING, Generator

from ..core.ocbcast import OcBcast, OcBcastConfig
from ..core.trees import PropagationTree
from ..resilience.policy import OverloadError
from ..scc.memory import MemRef
from ..sim.errors import TimeoutError as SimTimeoutError
from . import rules
from .election import ElectionService
from .heartbeat import TTD_BOUNDS, MembershipConfig, MembershipService
from .rbc import RbcService
from .rules import DIRECTIVE_ABORT, DIRECTIVE_REBROADCAST

if TYPE_CHECKING:  # pragma: no cover
    from ..rcce.comm import Comm, CoreComm

#: Service-mode OC-Bcast defaults: tighter FT budgets than the
#: standalone FT engine, because the membership layer (not the
#: broadcast) owns end-to-end recovery -- a failed attempt should fail
#: fast and hand over.
DEFAULT_SERVICE_OC = OcBcastConfig(
    ft=True,
    service=True,
    integrity=True,
    ft_flag_timeout=300.0,
    ft_notify_timeout=2500.0,
)

#: Broadcast attempts (one initial, the rest after recovery rounds) the
#: service spends on one message before giving up with a timeout.
MAX_ATTEMPTS = 5

#: Sentinel for the self-eviction exit of a recovery round.
_SELF_EVICT = object()


class OcBcastService:
    """An epoch-aware, crash-surviving broadcast service.

    One instance per communicator, reusable across messages.  All live
    members must call :meth:`bcast` SPMD-style (matching calls); evicted
    members may keep calling and get ``"evicted"`` back immediately.
    """

    def __init__(
        self,
        comm: "Comm",
        root: int = 0,
        oc_config: OcBcastConfig | None = None,
        member_config: MembershipConfig | None = None,
    ) -> None:
        base = oc_config or DEFAULT_SERVICE_OC
        # The service's correctness needs all three modes regardless of
        # what the caller tuned; everything else is honoured.
        self.config = replace(base, ft=True, service=True, integrity=True)
        self.comm = comm
        self.root = root
        self.oc = OcBcast(comm, self.config)
        self.member = MembershipService(comm, root=root, config=member_config)
        self.election = ElectionService(comm, self.member)
        #: Byzantine mode: the Bracha echo/ready layer (None otherwise).
        self.rbc: RbcService | None = None
        if self.config.byz:
            self.rbc = RbcService(comm, self.oc, self.config)
            self.oc.byz_echo_hook = self.rbc.cast_echoes
        #: Per-rank attempt counter == membership round number.  Global
        #: across messages so heartbeat slot values, claims and the view
        #: flag stay monotonic for the life of the instance.
        self._attempt = [0] * comm.size
        #: Per-rank message counter, keying ``svc.outcome`` records.
        self._msg = [0] * comm.size
        #: Survivor trees are pure functions of (view, source); cache.
        self._trees: dict[tuple[int, int], PropagationTree] = {}

    # ------------------------------------------------------------------

    def survivor_tree(self, view, source: int | None = None) -> PropagationTree:
        """The propagation tree over ``view``'s members, rooted at
        ``source`` (default: the service's static root -- re-rooted at
        the first surviving rank if it is dead), cached."""
        src = self.root if source is None else source
        key = (view.epoch, src)
        tree = self._trees.get(key)
        if tree is None:
            dead = [r for r in range(self.comm.size) if r not in view]
            root = src if src in view else self.root
            tree = PropagationTree(self.comm.size, self.config.k, root, dead=dead)
            self._trees[key] = tree
        return tree

    def bcast(
        self,
        cc: "CoreComm",
        buf: MemRef,
        nbytes: int,
        source: int | None = None,
    ) -> Generator[object, object, str]:
        """Broadcast ``nbytes`` from the source's ``buf`` to every live
        member; returns ``"ok"`` (delivered and committed),
        ``"aborted"`` (the source died mid-message with no surviving
        holder: a uniform group abort) or ``"evicted"`` (this rank is
        out of the current view).

        ``source`` picks the broadcasting rank (default: the static
        root while it lives, else the current coordinator).  Raises
        :class:`repro.sim.TimeoutError` when :data:`MAX_ATTEMPTS`
        attempts cannot produce a committed broadcast.

        Graceful degradation: with ``member_config.retry_budget`` set,
        the service accounts each *failed* attempt (one recovery round)
        against the message's budget and, once spent, REFUSES
        deterministically -- a traced ``svc.refused`` decision and a
        structured :class:`repro.resilience.OverloadError` -- instead
        of burning its remaining attempts against a mesh that
        is demonstrably not recovering.  The refusing rank has still
        participated in the budgeted recovery rounds, so survivors see
        its heartbeats up to the refusal point and evict it cleanly.
        """
        mcfg = self.member.config
        self._msg[cc.rank] += 1
        msg = self._msg[cc.rank]
        spent = 0  # failed attempts charged against retry_budget
        override: int | None = None  # directive-designated re-broadcast source
        for tries in range(1, MAX_ATTEMPTS + 1):
            view = self.member.views[cc.rank]
            if cc.rank not in view:
                return self._outcome(cc, msg, "evicted")
            src = rules.pick_source(
                view, override, source, self.root, self.member.coord[cc.rank]
            )
            self._attempt[cc.rank] += 1
            rnd = self._attempt[cc.rank]
            tree = self.survivor_tree(view, src)
            cc.trace(
                "svc.attempt",
                round=rnd, epoch=view.epoch, src=src, members=tree.size,
            )
            delivered = False
            if self.rbc is not None:
                self.rbc.register(cc.rank, buf, nbytes)
            try:
                status = yield from self.oc.bcast(
                    cc, src, buf, nbytes, tree=tree
                )
                # "retry", "undecided" and "moved_on" still mean *this*
                # rank holds a verified copy: the commit wait happens
                # after its last chunk landed and checked out.
                delivered = status in ("ok", "retry", "undecided", "moved_on")
                if status == "moved_on":
                    status = yield from self._resync(cc, rnd)
            except SimTimeoutError as err:
                status = "retry"
                cc.trace(
                    "svc.attempt_failed",
                    round=rnd, site=getattr(err, "site", ""),
                )
            if status == "evicted":
                return self._outcome(cc, msg, "evicted")
            if status == "ok":
                if self.rbc is not None:
                    # Byzantine mode: the commit only proves every member
                    # *holds a* payload; the quorum rounds prove they all
                    # hold the *same* one (repairing this rank's copy if
                    # it sat on the losing side of an equivocation).
                    verdict = yield from self.rbc.finish(
                        cc, msg, buf, nbytes, src
                    )
                    if verdict != "ok":
                        return self._outcome(cc, msg, "detected")
                if cc.rank == self.member.coord[cc.rank] and tries > 1:
                    self._observe(cc, "member.ttr_us")
                return self._outcome(cc, msg, "ok", buf=buf, nbytes=nbytes)
            # -- recovery round -----------------------------------------
            cc.metric_inc("svc.retries")
            spent += 1
            verdict = yield from self._recover(cc, rnd, src, delivered)
            if verdict is _SELF_EVICT:
                return self._outcome(cc, msg, "self_evicted", returns="ok")
            if self._attempt[cc.rank] > rnd and delivered:
                # Fast-forwarded: the view that answered this member's
                # recovery was installed for a *later* round, and no
                # install for this round ever appeared -- the group
                # resolved this attempt without a recovery round (the
                # commit was OK; only its notification was lost) while
                # this holder was out of touch.  Deliver the verified
                # payload and resume in lockstep at the installed round.
                return self._outcome(cc, msg, "ok", buf=buf, nbytes=nbytes)
            if verdict.round_no == rnd:
                if verdict.code == DIRECTIVE_ABORT:
                    return self._outcome(cc, msg, "aborted")
                if verdict.code == DIRECTIVE_REBROADCAST:
                    override = verdict.source
            if mcfg.retry_budget and spent >= mcfg.retry_budget:
                epoch = self.member.views[cc.rank].epoch
                cc.trace(
                    "svc.refused",
                    msg=msg, round=rnd, spent=spent,
                    budget=mcfg.retry_budget, epoch=epoch,
                )
                cc.metric_inc("resilience.refusals")
                raise OverloadError(
                    msg_id=msg, rank=cc.rank, epoch=epoch,
                    spent=spent, budget=mcfg.retry_budget,
                )
        raise SimTimeoutError(
            f"core {cc.core_id}: service broadcast not committed after "
            f"{MAX_ATTEMPTS} attempts at t={cc.now:.4f}",
            process=f"core{cc.core_id}",
            sim_time=cc.now,
            site="svc.attempts",
        )

    def _resync(
        self, cc: "CoreComm", rnd: int
    ) -> Generator[object, object, str]:
        """Disambiguate a ``"moved_on"`` commit: this rank holds the
        verified payload, its commit notification was lost, and a
        *later* sequence window is demonstrably streaming.  The
        coordinator only opens a new window after its commit round
        resolves, and a RETRY decision installs the next view -- an
        acked write to every member, suspects included -- *before*
        re-streaming.  So by the time later-window data can reach this
        rank, a RETRY's view flag has already landed here: a flag still
        below this round means the group committed OK and is on the
        next message (resume in step without a recovery round, which
        nobody would collect); a flag at or past this round means a
        recovery is in flight, so fail the attempt and join it."""
        flag = yield from cc.flag_poll(self.member.view_flag)
        pending = flag.seq >= rnd
        cc.trace("svc.resync", round=rnd, view_pending=pending)
        cc.metric_inc("svc.resync")
        return "retry" if pending else "ok"

    # -- recovery ----------------------------------------------------------

    def _recover(self, cc: "CoreComm", rnd: int, src: int, delivered: bool):
        """One recovery round: one loop over the current leader.  While
        that is this rank it coordinates; otherwise it re-reports to the
        leader and adopts its view.  A leader that installs nothing in
        time is suspected, and an election names the next -- so a
        winner that dies before installing cannot wedge the round.
        Returns the adopted :class:`~repro.member.rules.CompletionDirective`,
        or ``_SELF_EVICT`` for a delivered-but-partitioned member
        leaving on its own account."""
        leader = self.member.coord[cc.rank]
        standing = leader != cc.rank  # following the standing coordinator
        won = False
        suspects: set[int] = set()
        elections = len(self.member.views[cc.rank].members)
        while True:
            if leader == cc.rank:
                rival = yield from self._coordinate(
                    cc, rnd, src, delivered, won
                )
                if rival is None:
                    if won:
                        self._observe(cc, "member.tte_us")
                    return self.member.directives[cc.rank]
                leader = rival  # deposed or outranked: follow the rival
            reported = True
            try:
                yield from self.member.report(cc, rnd, delivered, leader)
            except SimTimeoutError:
                # Our writes do not land (a partition on our side): the
                # round will suspect us.  Still await the view -- if the
                # partition clears, the flag tells us our fate.
                reported = False
                cc.trace("svc.report_failed", round=rnd)
                cc.metric_inc("svc.report_failed")
            try:
                yield from self.member.await_view(cc, rnd)
                self._fast_forward(cc, rnd)
                return self.member.directives[cc.rank]
            except SimTimeoutError:
                if standing and not reported:
                    if not delivered:
                        raise
                    # Unreachable in both directions but the payload is
                    # verified and complete: deliver, and leave the
                    # group rather than deadlock.  Non-decisive for
                    # uniform agreement (I6): the member exits the
                    # agreement set with the payload in hand.
                    self.member.evict_self(cc.rank)
                    cc.trace("svc.self_evict", round=rnd)
                    cc.metric_inc("svc.self_evict")
                    return _SELF_EVICT
            # Our report landed (a slot array in a dead core's MPB still
            # acks -- on-chip SRAM) yet no view came: the leader is gone.
            suspects.add(leader)
            standing = False
            if not elections:
                raise SimTimeoutError(
                    f"core {cc.core_id}: no coordinator emerged for round "
                    f"{rnd} after exhausting the candidate set at "
                    f"t={cc.now:.4f}",
                    process=f"core{cc.core_id}",
                    sim_time=cc.now,
                    site="member.elect",
                )
            elections -= 1
            leader = yield from self.election.elect(cc, rnd, suspects)
            won = leader == cc.rank

    def _coordinate(
        self, cc: "CoreComm", rnd: int, src: int, delivered: bool, won: bool
    ):
        """The coordinator's half of a recovery round: claim fences,
        heartbeat collect, completion decision, view install.  Returns
        the rival rank it stepped down to, or ``None`` once installed.

        Fence 1: a standing coordinator steps down to *any* rival claim
        (members only elect when they have given up on it); a freshly
        elected winner only to one below itself -- higher-ranked claims
        are from candidates that will yield to it.  Fence 2: succession
        order beats arrival order -- a lower-ranked candidate that
        claimed while we were collecting takes over before we install."""
        rival = yield from self._fence(cc, rnd, cc.rank if won else None)
        if rival is not None:
            return rival
        statuses, suspects = yield from self.member.collect(cc, rnd)
        if suspects:
            self._observe(cc, "member.ttd_us")
        new_view, decision, holders = rules.complete(
            self.member.views[cc.rank], statuses, suspects, src, cc.rank,
            delivered, rnd,
        )
        if decision is not None:
            abort = decision.code == DIRECTIVE_ABORT
            cc.trace(
                "svc.completion",
                round=rnd, src=src,
                decision="abort" if abort else "rebroadcast",
                holders=holders, new_source=-1 if abort else decision.source,
            )
        rival = yield from self._fence(cc, rnd, cc.rank)
        if rival is not None:
            return rival
        yield from self.member.install(
            cc, new_view, rnd, decision=decision,
            window=self.oc.window_base(cc.rank),
        )
        return None

    def _fence(self, cc: "CoreComm", rnd: int, below: int | None):
        """A claim fence: the rival this coordinator steps down to, or
        ``None`` (see :meth:`ElectionService.check_claims`)."""
        rival = yield from self.election.check_claims(cc, rnd, below=below)
        if rival is not None:
            cc.trace("svc.step_down", round=rnd, to=rival)
        return rival

    def _fast_forward(self, cc: "CoreComm", rnd: int) -> None:
        """A view installed for a *later* round than the one this member
        is recovering means the member lagged while the group moved on
        (its commit notification died with its parent, say).  Jump the
        attempt counter to the installed round so the next attempt's
        round number -- and with it heartbeat slot values, sequence
        windows and claims -- is back in lockstep with the
        coordinator."""
        sync = self.member.view_rounds[cc.rank]
        if sync > rnd:
            cc.trace("svc.fast_forward", round=rnd, to=sync)
            cc.metric_inc("svc.fast_forward")
            self._attempt[cc.rank] = sync
            self.oc.resync_window(cc.rank, self.member.window_hints[cc.rank])

    def _outcome(
        self,
        cc: "CoreComm",
        msg: int,
        status: str,
        *,
        buf: MemRef | None = None,
        nbytes: int = 0,
        returns: str | None = None,
    ) -> str:
        """Emit the ``svc.outcome`` record invariant I6 audits; returns
        the caller-visible status (``returns`` overrides it -- a
        self-evicted member still hands ``"ok"`` to its caller, but its
        recorded outcome is non-decisive)."""
        detail: dict = dict(
            msg=msg, status=status, epoch=self.member.views[cc.rank].epoch
        )
        if status == "ok" and buf is not None and cc.tracer_enabled:
            # The payload fingerprint uniform agreement is checked
            # against; computed only when someone is listening.
            detail["crc"] = zlib.crc32(buf.sub(0, nbytes).read())
        cc.trace("svc.outcome", **detail)
        return returns if returns is not None else status

    # -- repair telemetry --------------------------------------------------

    def _observe(self, cc: "CoreComm", name: str) -> None:
        """First injected fault -> now, into histogram ``name``."""
        t0 = cc.first_fault_time()
        if t0 is None or cc.now < t0:
            return
        cc.observe_histogram(name, TTD_BOUNDS, cc.now - t0)
