"""Non-blocking send/recv with explicit progress (iRCCE-style).

iRCCE's non-blocking operations do not run on a DMA engine -- the SCC
has none; they advance only when the program calls test/wait, which
pushes any chunks whose flags have arrived.  This module models exactly
that discipline, which keeps the simulator's core-serialism honest:

- ``isend``/``irecv`` post a request (allocating its chunk sequence
  numbers immediately, so matching follows posting order);
- :func:`wait_all` *progresses* requests: it peeks each request's gate
  (an untimed flag read -- the test-loop read itself is charged as
  ``t_poll`` per sweep), and when a gate is open it runs that chunk's
  timed work **serially** on the calling core.  Only the *waiting*
  overlaps; the data movement never does, exactly like hardware.

What overlap buys: a rank exchanging halos with two neighbours no longer
imposes an order on their arrivals -- whichever sender is ready first is
served first -- and a send's ack wait overlaps a receive's data wait.

Constraints (asserted or documented): requests between one pair progress
in posting order; outstanding sends of one core share the payload
staging buffer, so send ``i+1`` gates on send ``i``'s final ack; do not
mix blocking and non-blocking transfers on the same ordered pair while
requests are outstanding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..sim import Event, any_of
from ..scc.memory import MemRef
from .twosided import TwoSidedState

if TYPE_CHECKING:  # pragma: no cover
    from .comm import CoreComm


class Request:
    """One posted non-blocking transfer."""

    def __init__(
        self,
        cc: "CoreComm",
        st: TwoSidedState,
        peer: int,
        buf: MemRef,
        nbytes: int,
        is_send: bool,
        prev_send: "Request | None",
    ) -> None:
        self.cc = cc
        self.st = st
        self.peer = peer
        self.buf = buf
        self.nbytes = nbytes
        self.is_send = is_send
        self.prev_send = prev_send  # payload-buffer predecessor (sends only)
        chunk = st.payload_bytes
        self.nchunks = max(1, -(-nbytes // chunk)) if nbytes else 1
        # Allocate the whole sequence range now: matching = posting order.
        if is_send:
            self.seqs = [
                st.next_send_seq(cc.rank, peer) for _ in range(self.nchunks)
            ]
        else:
            self.seqs = [
                st.next_recv_seq(peer, cc.rank) for _ in range(self.nchunks)
            ]
        self._next = 0  # chunks fully processed
        self._staged = 0  # sends: chunks staged (ack may be pending)
        self.done = False

    # -- gates (untimed peeks; the caller charges the test-loop cost) ------

    def _peek_ready(self) -> int:
        return self.cc.slot_peek(self.st.ready, self.peer)

    def _peek_sent(self) -> int:
        return self.cc.slot_peek(self.st.sent, self.peer)

    def refresh(self) -> None:
        """Update ``done`` from flag state (no work to run)."""
        if self.done:
            return
        if self.is_send and self._staged == self.nchunks:
            if self._peek_ready() >= self.seqs[-1]:
                self.done = True

    def gate_open(self) -> bool:
        """Can :meth:`step` make progress right now?"""
        self.refresh()
        if self.done:
            return False
        if self.is_send:
            if self.prev_send is not None:
                self.prev_send.refresh()
                if not self.prev_send.done:
                    return False
            if self._staged == 0:
                return True  # payload free (predecessor drained)
            if self._staged < self.nchunks:
                # Stop-and-wait: previous chunk must be acked.
                return self._peek_ready() >= self.seqs[self._staged - 1]
            return False  # fully staged; only the final ack remains
        return self._peek_sent() >= self.seqs[self._next]

    def watch(self) -> Event:
        """An event that fires when this request's gate MAY have opened."""
        mpb = self.cc.core.mpb
        if self.is_send:
            if self.prev_send is not None and not self.prev_send.done:
                return self.prev_send.watch()
            return mpb.watch(self.st.ready.slot_offset(self.peer))
        return mpb.watch(self.st.sent.slot_offset(self.peer))

    # -- timed work ----------------------------------------------------------

    def step(self) -> Generator:
        """Run one chunk's timed work (call only when ``gate_open()``)."""
        cc = self.cc
        st = self.st
        chunk = st.payload_bytes
        if self.is_send:
            i = self._staged
            seq = self.seqs[i]
            off = i * chunk
            span = min(chunk, self.nbytes - off) if self.nbytes else 0
            if span:
                yield from cc.put(cc.rank, st.payload.offset, self.buf.sub(off, span), span)
            yield from cc.slot_write(st.sent, self.peer, cc.rank, seq)
            self._staged += 1
            self._next += 1
            self.refresh()
        else:
            i = self._next
            seq = self.seqs[i]
            off = i * chunk
            span = min(chunk, self.nbytes - off) if self.nbytes else 0
            if span:
                yield from cc.get(self.peer, st.payload.offset, self.buf.sub(off, span), span)
            yield from cc.slot_write(st.ready, self.peer, cc.rank, seq)
            self._next += 1
            if self._next == self.nchunks:
                self.done = True


def isend(cc: "CoreComm", dst_rank: int, src: MemRef, nbytes: int) -> Request:
    """Post a non-blocking send (progress via :func:`wait_all`)."""
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    if dst_rank == cc.rank:
        raise ValueError("isend to self is not supported")
    cc.comm.core_of(dst_rank)
    st = cc.comm.twosided
    prev = cc.comm._send_tails.get(cc.core.id)
    req = Request(cc, st, dst_rank, src, nbytes, True, prev)
    cc.comm._send_tails[cc.core.id] = req
    return req


def irecv(cc: "CoreComm", src_rank: int, dst: MemRef, nbytes: int) -> Request:
    """Post a non-blocking receive (progress via :func:`wait_all`)."""
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    if src_rank == cc.rank:
        raise ValueError("irecv from self is not supported")
    cc.comm.core_of(src_rank)
    st = cc.comm.twosided
    return Request(cc, st, src_rank, dst, nbytes, False, None)


def wait_all(cc: "CoreComm", requests: list[Request]) -> Generator:
    """Progress ``requests`` (serially, one chunk of work at a time,
    serving whichever gate opens first) until every one completes."""
    for req in requests:
        if req.cc.core is not cc.core:
            raise ValueError("wait_all progresses this core's requests only")
    pending = [r for r in requests if not r.done]
    while pending:
        progressed = False
        for req in pending:
            while req.gate_open():
                yield from req.step()
                progressed = True
            req.refresh()
        pending = [r for r in pending if not r.done]
        if not pending:
            return
        if not progressed:
            # Test loop: one sweep over the outstanding requests' flags,
            # then sleep until any of their gates may have opened.
            watchers = [r.watch() for r in pending]
            if any(r.gate_open() for r in pending):  # opened while arming
                continue
            yield any_of(cc.core.sim, watchers, name=f"waitall(r{cc.rank})")
            yield cc.core.compute(len(pending) * cc.core.config.t_poll)
