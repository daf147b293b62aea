"""iRCCE-style pipelined point-to-point transfer (double buffering).

The iRCCE library [8] extends RCCE with non-blocking, *pipelined*
send/recv: the payload area is split into two halves so the sender can
stage chunk ``i+1`` while the receiver drains chunk ``i`` -- the paper's
Section 4.2 credits this technique as the inspiration for OC-Bcast's
double buffering and derives the 2n*delta -> n*delta speedup from it.

We implement the pipelined *pair* operation: matching
:func:`pipelined_send` / :func:`pipelined_recv` calls stream a large
message through the two half-buffers with sequence-numbered per-partner
slots (no clearing, no races).  Like RCCE, at most one pipelined transfer
may be in flight per (sender, receiver) pair at a time; unlike plain
RCCE send/recv, the sender returns as soon as its last chunk is staged
and acknowledged *as consumed-or-buffered*, having overlapped all
intermediate chunks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..scc.memory import MemRef
from .flags import FlagSlotArray

if TYPE_CHECKING:  # pragma: no cover
    from .comm import Comm, CoreComm

#: Each of the two pipeline buffers, in cache lines (iRCCE splits the
#: RCCE payload area in half).
IRCCE_HALF_LINES = 124


class IrcceState:
    """Per-communicator state for pipelined transfers.

    Two staging half-buffers in every sender's MPB plus two per-partner
    slot arrays: ``staged[s]`` (at the receiver) counts chunks sender
    ``s`` has staged, ``drained[r]`` (at the sender) counts chunks
    receiver ``r`` has drained.
    """

    def __init__(self, comm: "Comm", half_lines: int = IRCCE_HALF_LINES) -> None:
        if half_lines < 1:
            raise ValueError("pipeline buffers must be at least one line")
        size = comm.size
        flag_lines = FlagSlotArray.lines_needed(size)
        self.staged = FlagSlotArray(
            comm.layout.alloc_lines(flag_lines), size, name="ircce.staged"
        )
        self.drained = FlagSlotArray(
            comm.layout.alloc_lines(flag_lines), size, name="ircce.drained"
        )
        self.buffers = [comm.layout.alloc_lines(half_lines) for _ in range(2)]
        self.half_bytes = half_lines * 32
        # (src, dst) -> cumulative chunk counters, per side.
        self._send_chunks: dict[tuple[int, int], int] = {}
        self._recv_chunks: dict[tuple[int, int], int] = {}

    def take_send_base(self, src: int, dst: int, nchunks: int) -> int:
        key = (src, dst)
        base = self._send_chunks.get(key, 0)
        self._send_chunks[key] = base + nchunks
        return base

    def take_recv_base(self, src: int, dst: int, nchunks: int) -> int:
        key = (src, dst)
        base = self._recv_chunks.get(key, 0)
        self._recv_chunks[key] = base + nchunks
        return base


def _nchunks(nbytes: int, half: int) -> int:
    return -(-nbytes // half)


def pipelined_send(
    cc: "CoreComm", st: IrcceState, dst_rank: int, src: MemRef, nbytes: int
) -> Generator:
    """Stream ``nbytes`` to ``dst_rank`` through the two half-buffers.

    Chunk ``i`` goes into buffer ``i % 2``; the sender recycles a buffer
    once the receiver's ``drained`` counter covers its previous occupant,
    so staging chunk ``i+1`` overlaps the receiver's get of chunk ``i``.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    if dst_rank == cc.rank:
        raise ValueError("pipelined send to self is not supported")
    n = _nchunks(nbytes, st.half_bytes)
    base = st.take_send_base(cc.rank, dst_rank, n)
    for i in range(n):
        off = i * st.half_bytes
        span = min(st.half_bytes, nbytes - off)
        buf = st.buffers[i % 2]
        if i >= 2:
            # Recycle: the receiver must have drained chunk i-2.
            yield from cc.slot_wait_at_least(st.drained, dst_rank, base + i - 1)
        yield from cc.put(cc.rank, buf.offset, src.sub(off, span), span)
        yield from cc.slot_write(st.staged, dst_rank, cc.rank, base + i + 1)
    # Return only when the whole message is consumed (buffer safety for
    # the next transfer on this pair or any other receiver).
    if n:
        yield from cc.slot_wait_at_least(st.drained, dst_rank, base + n)


def pipelined_recv(
    cc: "CoreComm", st: IrcceState, src_rank: int, dst: MemRef, nbytes: int
) -> Generator:
    """Receive the matching pipelined stream from ``src_rank``."""
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    if src_rank == cc.rank:
        raise ValueError("pipelined recv from self is not supported")
    n = _nchunks(nbytes, st.half_bytes)
    base = st.take_recv_base(src_rank, cc.rank, n)
    for i in range(n):
        off = i * st.half_bytes
        span = min(st.half_bytes, nbytes - off)
        buf = st.buffers[i % 2]
        yield from cc.slot_wait_at_least(st.staged, src_rank, base + i + 1)
        yield from cc.get(src_rank, buf.offset, dst.sub(off, span), span)
        yield from cc.slot_write(st.drained, src_rank, cc.rank, base + i + 1)
