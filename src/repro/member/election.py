"""Deterministic ranked-succession leader election over MPB flag slots.

When the coordinator of the broadcast service crashes, the survivors
must agree on a successor using nothing but the SCC's one-sided RMA
into on-chip MPBs -- the same substrate the broadcast itself runs on.
The protocol here is *ranked succession*: the lowest live rank of the
last installed view wins.  Liveness comes from staggered claim budgets;
safety (no two coordinators installing the same epoch) from claim
fencing on the slot array every member can read locally.

Mechanics:

- Every member owns one slot of a symmetric
  :class:`repro.rcce.flags.FlagSlotArray` (``member.claim``).  A
  *claim* is an acked write of the current recovery round number into
  the claimant's own slot **in every view member's MPB** -- so each
  core can follow the election by polling its own MPB copy, and a
  deposed-but-alive coordinator can *see* that an election happened
  (step-down fencing, :meth:`ElectionService.check_claims`).  Round
  numbers are monotonic per service instance and each round maps to
  exactly one target epoch, so a claim doubles as an epoch-stamped
  fence: stale claims from earlier rounds are simply ``< round`` and
  ignored.
- Candidates (view members minus the caller's suspects) are ordered by
  rank.  Candidate ``i`` grants the ``i`` lower-ranked candidates a
  head start of ``CLAIM_STEP * i`` microseconds (plus a small seeded,
  deterministic jitter) before claiming itself; a claim from a lower
  candidate observed within the budget makes it a *follower*.
- Because members enter the election at slightly different simulated
  times (their broadcast attempts fail at different tree depths), a
  raw "first claim wins" would livelock or split.  Two counter-skew
  measures: a claimant re-checks the lower slots once after a
  ``SETTLE`` window and yields to any lower claim that raced it; a
  follower also waits out ``SETTLE`` after the first claim it sees and
  then follows the *lowest* claimant, not the first.

The winner returns from :meth:`elect` believing itself coordinator; it
must then run the membership round (collect, decide, install) -- that
is the service layer's job, as is re-checking the claim slots right
before installing (a lower-ranked late entrant may still be ahead).
"""

from __future__ import annotations

import random
from functools import partial
from typing import TYPE_CHECKING, Generator, Iterable

from ..rcce.flags import FlagSlotArray
from ..sim.errors import TimeoutError as SimTimeoutError
from . import rules

if TYPE_CHECKING:  # pragma: no cover
    from ..rcce.comm import Comm, CoreComm
    from .heartbeat import MembershipService


#: Head start (us) each lower-ranked candidate is granted before the
#: next one claims.  Must exceed the worst-case skew between two
#: members' entries into the same election (bounded by the spread of
#: their broadcast-attempt failure times).
CLAIM_STEP = 2500.0
#: Settle window (us) after seeing or stamping a claim, absorbing
#: in-flight claims from racing candidates before committing to a leader.
SETTLE = 1000.0
#: Upper bound (us) of the seeded per-candidate jitter added to the
#: claim budget, de-synchronising same-index retries.
JITTER_MAX = 200.0
# The rank order of the claim budgets is the protocol's tie-breaker.
assert JITTER_MAX < CLAIM_STEP


class ElectionService:
    """Ranked-succession election for one communicator.

    Construction allocates the claim slot array symmetrically (one
    16-bit slot per rank -- 3 extra MPB lines on the 48-core chip).
    One instance per :class:`~repro.member.heartbeat.MembershipService`;
    the candidate set is always derived from the *last installed view*,
    so all members run the election over the same roster.
    """

    def __init__(self, comm: "Comm", member: "MembershipService") -> None:
        self.comm = comm
        self.member = member
        self.claims = FlagSlotArray(
            comm.layout.alloc_lines(FlagSlotArray.lines_needed(comm.size)),
            comm.size,
            name="member.claim",
        )

    # ------------------------------------------------------------------

    def _jitter(self, cc: "CoreComm", round_no: int) -> float:
        """Deterministic per-(round, rank) jitter -- seeded, no wall
        clock, so traces stay replayable."""
        rng = random.Random(round_no * 1009 + cc.rank)
        return rng.uniform(0.0, JITTER_MAX)

    def _stamp(self, cc: "CoreComm", round_no: int, members: Iterable[int]) -> Generator:
        """Write this rank's claim into every view member's MPB (acked;
        unreachable members are skipped -- they cannot follow anyway)."""
        cc.trace("member.claim", round=round_no)
        cc.metric_inc("member.claims")
        for m in sorted(members):
            try:
                yield from cc.slot_write_acked(
                    self.claims, m, cc.rank, round_no
                )
            except SimTimeoutError:
                cc.trace("member.claim_unreachable", member=m)

    def check_claims(
        self, cc: "CoreComm", round_no: int, *, below: int | None = None
    ) -> Generator[object, object, int | None]:
        """Step-down fence: sweep this core's own claim copies and
        return the lowest rank other than the caller's with a claim at
        or past ``round_no`` (restricted to ranks ``< below`` when
        given), or ``None``.

        A standing coordinator calls this before collecting (any rival
        claim means the members gave up on it); a freshly elected
        winner calls it before installing, looking only *below* itself
        (a lower-ranked late entrant outranks it by succession order).
        """
        members = self.member.views[cc.rank].members
        yield from cc.compute(len(members) * cc.t_poll)
        return rules.lowest_claimant(partial(cc.slot_peek, self.claims), [
            r for r in members
            if r != cc.rank and (below is None or r < below)
        ], round_no)

    # ------------------------------------------------------------------

    def elect(
        self, cc: "CoreComm", round_no: int, suspects: Iterable[int]
    ) -> Generator[object, object, int]:
        """Run one election for recovery round ``round_no``; returns
        the rank this member believes won (possibly its own).

        ``suspects`` are ranks the caller has given up on (at least the
        unresponsive coordinator); their claims are ignored, which is
        what keeps a *dead winner's* stale claim from being followed
        forever on re-election within the same round.
        """
        view = self.member.views[cc.rank]
        candidates, index, lower = rules.succession(view, suspects, cc.rank)
        claim_of = partial(cc.slot_peek, self.claims)
        cc.trace(
            "member.elect.begin",
            round=round_no, epoch=view.epoch, index=index,
            candidates=len(candidates),
        )
        if lower:
            budget = CLAIM_STEP * index + self._jitter(cc, round_no)
            try:
                yield from cc.slot_wait_any_at_least(
                    self.claims, lower, round_no,
                    timeout=budget, site="member.claim",
                )
                # A lower candidate claimed: absorb racing claims, then
                # follow the lowest claimant standing.
                yield from cc.compute(SETTLE)
                winner = rules.lowest_claimant(claim_of, lower, round_no)
                assert winner is not None  # claims are monotonic
                cc.trace("member.elect.follow", round=round_no, winner=winner)
                return winner
            except SimTimeoutError:
                pass  # budget spent: the lower candidates are gone too
        yield from self._stamp(cc, round_no, view.members)
        yield from cc.compute(SETTLE)
        rival = rules.lowest_claimant(claim_of, lower, round_no)
        if rival is not None:
            # A lower-ranked candidate raced us inside the settle
            # window: succession order wins, we yield.
            cc.trace("member.elect.yield", round=round_no, winner=rival)
            return rival
        cc.trace("member.elect.won", round=round_no, epoch=view.epoch)
        cc.metric_inc("member.elections")
        return cc.rank
