"""Bracha echo/ready reliable broadcast over the MPB vote slots.

The crash-surviving service (PRs 4-5) trusts every member to *report*
honestly: acked writes and CRC headers catch lost and corrupted bytes,
but a compromised core can stage two different payloads under two
perfectly valid headers (EQUIVOCATE), or vote whatever it likes in the
quorum rounds (FORGE_FLAG_VALUE / LIE_IN_QUORUM).  This module closes
that gap with Bracha-style reliable broadcast [Bracha 87] run *after*
OC-Bcast delivery, using payload digests as the value being agreed on:

1. **ECHO** -- each member folds the per-chunk CRCs it already verified
   during fetch into one *message digest* and pushes a single
   ``(v, digest)`` vote into every member's symmetric
   :class:`~repro.rcce.flags.DigestSlotArray` (single writer per slot).
   One vote per message -- not per chunk -- because a member's slot is a
   register: a second vote would overwrite the first before slow peers
   tally it.  The engine casts the vote the moment the member's own
   payload is verified, so the fan-out overlaps the done-chain ascent
   and the commit round the member would otherwise spend idle.  The
   first cast is optimistic (plain writes); a stalled quorum re-casts
   with acked writes (see :meth:`RbcService._cast`) -- together the two
   levers keep the fault-free tax under the campaign's 15% guard.
2. **Echo quorum** -- wait until some digest ``D`` holds an echo quorum
   in the member's own tally copy.  Two echo quorums on different
   digests would have to intersect in at least ``f+1`` members, i.e. at
   least one honest member voting twice -- impossible -- so at most one
   ``D`` can win globally.
3. **READY** -- vote ``(v, D)`` in every member's ready array.  A member
   whose echo wait timed out (split votes) instead *amplifies*: ``f+1``
   matching READY votes contain at least one honest voter, so adopting
   their digest is safe.
4. **Delivery gate** -- deliver only after ``2f+1`` READY votes on one
   digest.  A member whose local payload mismatches the agreed digest
   re-fetches the still-MPB-resident chunks (the last ``num_buffers``)
   from an ECHO voter of that digest -- an echo vote asserts "my own
   payload digests to D", so its buffers hold the winning bytes -- and
   re-verifies the whole message before accepting.  If no digest ever
   reaches the gate, or the divergent chunk is no longer staged
   anywhere, the member *refuses* delivery (``"detected"``) -- with more
   than ``f`` adversaries the protocol degrades to detection, never
   divergence.

Quorum sizes (:func:`echo_quorum`, :func:`ready_quorum`,
:func:`ready_amplify`) require ``n >= 3f+1``; at exactly ``n = 3f+1``
the echo quorum is the classic ``2f+1``.

The single-writer slot discipline is the substrate's trust base: a
Byzantine core can write arbitrary values *in its own slots* -- a
different forged digest per member is allowed and modelled -- but cannot
overwrite another member's vote, just as a real SCC core cannot forge
the source of an MPB write it does not issue.

Agreement and validity are audited online as invariant I7 over the
``rbc.outcome`` trace records (:mod:`repro.obs.invariants`).
"""

from __future__ import annotations

import random
import zlib
from typing import TYPE_CHECKING, Generator

from ..core.ocbcast import CRC_US_PER_LINE
from ..faults.plan import FaultKind
from ..rcce.flags import DigestSlotArray
from ..scc.config import CACHE_LINE
from ..scc.memory import MemRef
from ..sim.errors import TimeoutError as SimTimeoutError
from .heartbeat import TTD_BOUNDS

if TYPE_CHECKING:  # pragma: no cover
    from ..core.ocbcast import OcBcast, OcBcastConfig
    from ..rcce.comm import Comm, CoreComm

#: XOR mask a LIE_IN_QUORUM adversary applies to the true digest: a
#: well-formed, consistent, wrong vote.
_LIE_MASK = 0x5A5A5A5A

#: Poll budget (us) for the ECHO quorum wait.
ECHO_TIMEOUT = 3_000.0
#: Poll budget (us) for the READY amplification wait (f+1) after a split
#: ECHO round; the final READY delivery gate (2f+1) gets both budgets.
READY_TIMEOUT = 3_000.0
#: Bounded re-fetch candidates when the local payload's CRC mismatches
#: the agreed digest.
REFETCH_RETRIES = 3


def max_faulty(n: int) -> int:
    """The largest adversary count ``f`` with ``n >= 3f+1``."""
    if n < 1:
        raise ValueError(f"need at least one member, got {n}")
    return (n - 1) // 3


def echo_quorum(n: int) -> int:
    """Votes needed to win the ECHO round: ``ceil((n+f+1)/2)``.

    Any two echo quorums intersect in ``>= f+1`` members, hence in at
    least one honest member -- who votes once -- so two different
    digests can never both reach quorum.  At ``n = 3f+1`` this is the
    classic ``2f+1``.
    """
    f = max_faulty(n)
    return max(2 * f + 1, (n + f + 2) // 2)


def ready_amplify(n: int) -> int:
    """READY votes that prove at least one honest member saw an echo
    quorum: ``f+1`` (at most ``f`` can be lying)."""
    return max_faulty(n) + 1


def ready_quorum(n: int) -> int:
    """READY votes gating delivery: ``2f+1``, of which ``>= f+1`` are
    honest -- enough that every other honest member will eventually
    amplify past ``f+1`` and the group cannot split."""
    return 2 * max_faulty(n) + 1


class RbcService:
    """The per-communicator RBC state: two symmetric vote arrays and the
    per-rank round bookkeeping.  Constructed by
    :class:`~repro.member.service.OcBcastService` when ``byz=True``."""

    def __init__(self, comm: "Comm", oc: "OcBcast", config: "OcBcastConfig") -> None:
        n = comm.size
        self.comm = comm
        self.oc = oc
        self.config = config
        self.f = max_faulty(n)
        self.n_echo = echo_quorum(n)
        self.n_amplify = ready_amplify(n)
        self.n_ready = ready_quorum(n)
        lines = DigestSlotArray.lines_needed(n)
        self.echo = DigestSlotArray(
            comm.layout.alloc_lines(lines), n, name="rbc.echo"
        )
        self.ready = DigestSlotArray(
            comm.layout.alloc_lines(lines), n, name="rbc.ready"
        )
        #: Per-rank next vote sequence (advances by one per broadcast
        #: attempt, so a retried attempt opens a fresh round).
        self._next = [0] * n
        #: Per-rank in-flight attempt: (buf, nbytes, nchunks, vote seq).
        self._pending: dict[int, tuple[MemRef, int, int, int]] = {}
        #: Per-rank adversary spec drawn at echo time (drives the ready
        #: phase of the same rounds).
        self._spec: dict[int, object] = {}

    # -- registration and the engine's echo hook ---------------------------

    def register(self, rank: int, buf: MemRef, nbytes: int) -> None:
        """Open the vote round for one broadcast attempt of ``rank``.
        Called by the service right before ``oc.bcast``; the engine's
        pre-commit hook then finds the payload to digest here."""
        nchunks = max(1, -(-nbytes // self.config.chunk_bytes))
        self._next[rank] += 1
        self._pending[rank] = (buf, nbytes, nchunks, self._next[rank])

    def _message_digest(self, buf: MemRef, nbytes: int) -> int:
        """The value under agreement: crc32 over the whole delivered
        payload.  Free of an extra pass in a real implementation -- it
        folds the per-chunk CRCs the member already computed while
        verifying each fetch."""
        return zlib.crc32(buf.sub(0, nbytes).read())

    def _vote_digest(self, spec, member: int, v: int, true_digest: int) -> int:
        """The digest this rank actually writes into ``member``'s tally:
        the truth for honest ranks, a consistent lie for LIE_IN_QUORUM,
        per-member garbage (vote equivocation) for FORGE_FLAG_VALUE."""
        if spec is None or spec.kind is FaultKind.EQUIVOCATE:
            return true_digest
        if spec.kind is FaultKind.LIE_IN_QUORUM:
            return (true_digest ^ _LIE_MASK) & 0xFFFFFFFF
        rng = random.Random(spec.core * 1_000_003 + spec.nth * 8191 + v * 31 + member)
        return rng.getrandbits(32)

    def cast_echoes(self, cc: "CoreComm") -> Generator:
        """The engine's pre-commit hook: push this rank's ECHO vote for
        the in-flight attempt's message digest into every member's echo
        array.  Runs while the commit notification is still propagating,
        so most of its cost hides under the commit wait."""
        entry = self._pending.get(cc.rank)
        if entry is None:
            return
        buf, nbytes, nchunks, v = entry
        spec = cc.quorum_vote()
        self._spec[cc.rank] = spec
        d = self._message_digest(buf, nbytes)
        cc.trace(
            "rbc.echo", v=v,
            digest=self._vote_digest(spec, cc.rank, v, d) if spec else d,
        )
        yield from self._cast(cc, self.echo, v, d, spec)
        cc.metric_inc("rbc.rounds")

    def _cast(
        self, cc: "CoreComm", array: DigestSlotArray, v: int, digest: int,
        spec, acked: bool = False,
    ) -> Generator:
        """Push this rank's vote into every member's copy of ``array``.

        The first cast is *optimistic* (plain writes): on this substrate
        a store is lost only when a fault fires, so the fault-free path
        skips the per-write readback that would put two full acked
        all-to-all rounds on the critical path.  When a quorum stalls,
        the waiter re-casts with ``acked=True`` -- readback-verified,
        bounded re-send -- before giving up, so dropped-write faults
        still cannot wedge a round silently.  The optimistic cast is one
        :meth:`~repro.rcce.endpoint.Endpoint.vote_cast`: on the SCC one
        wake-up for all n writes where the per-access hooks are inert.
        """
        votes = [self._vote_digest(spec, m, v, digest) for m in range(cc.size)]
        if not acked:
            yield from cc.vote_cast(array, cc.rank, v, votes)
            return
        for member, vote in enumerate(votes):
            yield from cc.vote_write_acked(array, member, cc.rank, v, vote)

    # -- the post-delivery rounds -------------------------------------------

    def finish(
        self, cc: "CoreComm", msg: int, buf: MemRef, nbytes: int, source: int
    ) -> Generator[object, object, str]:
        """Run the echo-quorum / ready / delivery-gate round for the
        attempt; returns ``"ok"`` (payload agreed, local copy verified
        -- possibly after a re-fetch) or ``"detected"`` (no quorum:
        refuse delivery).  Emits the ``rbc.outcome`` record invariant I7
        audits either way."""
        buf_, nbytes_, nchunks, v = self._pending.pop(cc.rank)
        spec = self._spec.pop(cc.rank, None)
        ok = yield from self._round(cc, buf, nbytes, v, spec, nchunks)
        status = "ok" if ok else "detected"
        detail: dict = dict(msg=msg, status=status, src=int(cc.rank == source))
        if cc.tracer_enabled:
            if status == "ok":
                detail["crc"] = zlib.crc32(buf.sub(0, nbytes).read())
            if cc.rank == source:
                detail["input_crc"] = zlib.crc32(buf.sub(0, nbytes).read())
        cc.trace("rbc.outcome", **detail)
        if status != "ok":
            self._observe_detection(cc)
            cc.metric_inc("rbc.refusals")
        return status

    def _round(
        self,
        cc: "CoreComm",
        buf: MemRef,
        nbytes: int,
        v: int,
        spec,
        nchunks: int,
    ) -> Generator[object, object, bool]:
        """The message's quorum rounds; returns True when a digest is
        agreed and the local copy matches it."""
        # Echo quorum (the echoes themselves went out pre-commit).
        try:
            agreed = yield from cc.vote_wait_quorum(
                self.echo, v, self.n_echo,
                timeout=ECHO_TIMEOUT, site="rbc.echo.quorum",
            )
        except SimTimeoutError:
            # Split echo round: amplify from f+1 READY votes instead.
            try:
                agreed = yield from cc.vote_wait_quorum(
                    self.ready, v, self.n_amplify,
                    timeout=READY_TIMEOUT, site="rbc.ready.amplify",
                )
                cc.trace("rbc.amplify", v=v, digest=agreed)
            except SimTimeoutError:
                cc.trace("rbc.no_quorum", v=v, phase="echo")
                return False
        # READY round: vote the agreed digest everywhere (adversaries
        # keep misvoting per their spec).
        yield from self._cast(cc, self.ready, v, agreed, spec)
        # Delivery gate: 2f+1 READY votes on one digest.  The first
        # budget also covers members still amplifying their way here; a
        # stall after it gets one acked re-cast (recovering this rank's
        # possibly-dropped optimistic votes) and a final budget.
        final = None
        for attempt in range(2):
            try:
                final = yield from cc.vote_wait_quorum(
                    self.ready, v, self.n_ready,
                    timeout=ECHO_TIMEOUT + READY_TIMEOUT,
                    site="rbc.ready.gate",
                )
                break
            except SimTimeoutError:
                if attempt:
                    cc.trace("rbc.no_quorum", v=v, phase="ready")
                    return False
                yield from self._cast(cc, self.ready, v, agreed, spec, acked=True)
        assert final is not None
        if final != self._message_digest(buf, nbytes):
            return (
                yield from self._refetch(cc, buf, nbytes, v, final, nchunks)
            )
        return True

    # -- divergent-payload repair -------------------------------------------

    def _refetch(
        self,
        cc: "CoreComm",
        buf: MemRef,
        nbytes: int,
        v: int,
        agreed: int,
        nchunks: int,
    ) -> Generator[object, object, bool]:
        """The local payload mismatches the agreed digest (this member
        sat on the losing side of an equivocation): re-fetch the chunks
        still MPB-resident at an ECHO voter of the agreed digest -- an
        echo asserts "my own payload digests to D", so that voter's
        buffers hold the winning bytes -- and re-verify the whole
        message.

        Only the last ``num_buffers`` chunks are still staged; if the
        divergence sits in an earlier chunk the re-verify fails for
        every holder and the member refuses delivery instead (detected,
        not divergent).
        """
        cfg = self.config
        self._observe_detection(cc)
        candidates = [
            m for m in range(cc.size)
            if m != cc.rank
            and cc.vote_peek(self.echo, m) == (v, agreed)
        ]
        first_staged = max(0, nchunks - cfg.num_buffers)
        for holder in candidates[: REFETCH_RETRIES + 1]:
            for idx in range(first_staged, nchunks):
                b = idx % cfg.num_buffers
                off = idx * cfg.chunk_bytes
                span = min(cfg.chunk_bytes, nbytes - off)
                yield from cc.get(
                    holder, self.oc._payload_off(b), buf.sub(off, span), span
                )
                yield from cc.compute(
                    CRC_US_PER_LINE * -(-span // CACHE_LINE)
                )
            if self._message_digest(buf, nbytes) == agreed:
                cc.trace("rbc.refetch", v=v, holder=holder)
                cc.metric_inc("rbc.refetches")
                cc.note_recovery(
                    f"rbc.msg{v}@core{cc.core_id}",
                    note=f"re-fetched from rank {holder}",
                )
                return True
        cc.trace("rbc.refetch_failed", v=v)
        return False

    # -- telemetry ----------------------------------------------------------

    def _observe_detection(self, cc: "CoreComm") -> None:
        """Time-to-detect: first injected adversary action -> this member
        notices its payload (or the whole round) cannot be trusted."""
        t0 = cc.first_fault_time()
        if t0 is not None and cc.now >= t0:
            cc.observe_histogram("rbc.ttd_us", TTD_BOUNDS, cc.now - t0)
