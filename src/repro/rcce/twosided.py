"""Blocking two-sided send/recv, the RCCE way.

Protocol (paper Section 1.1 / RCCE [19]): the *sender* puts each chunk of
the message from its private memory into its **own** MPB payload buffer
and advances its slot in the receiver's ``sent`` array; the *receiver*
gets the chunk from the sender's MPB into its private memory and
advances its slot in the sender's ``ready`` (ack) array, which the
sender needs before it may overwrite its payload buffer.  A send/recv
pair therefore costs ``C_put_mem(chunk) + C_get_mem(chunk)`` plus two
flag round-trips -- the building block of the binomial-tree and
scatter-allgather baselines (Formulas 14 and 16).

Flags are per-partner slots (:class:`~repro.rcce.flags.FlagSlotArray`),
exactly like RCCE's per-UE flag arrays: core R's ``sent`` array has one
slot per possible sender, each written only by that sender, so any
number of partners may be in flight against one core without write
races.  Slot values are cumulative chunk counters, so nothing is ever
cleared.

Messages larger than the payload buffer (250 cache lines -- RCCE's
8 KB minus the flag arrays; the paper quotes 251 with bit-packed
flags) are chunked; chunks are strictly stop-and-wait, which is
precisely the serialisation OC-Bcast's pipelining removes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..scc.memory import MemRef
from .flags import FlagSlotArray

if TYPE_CHECKING:  # pragma: no cover
    from .comm import Comm, CoreComm

#: RCCE's payload buffer in cache lines: the 256-line MPB minus two
#: per-partner flag arrays (the paper quotes 251 for bit-packed flags;
#: our 16-bit sequence slots cost 3 lines per array at P=48).
RCCE_PAYLOAD_LINES = 250


class TwoSidedState:
    """Per-communicator state for RCCE send/recv.

    ``sent`` -- in each receiver's MPB, slot ``s`` is the number of chunks
    sender ``s`` has made available to this receiver.
    ``ready`` -- in each sender's MPB, slot ``r`` is the number of chunks
    receiver ``r`` has drained from this sender's payload buffer.
    """

    def __init__(self, comm: "Comm", payload_lines: int | None = None) -> None:
        size = comm.size
        flag_lines = FlagSlotArray.lines_needed(size)
        if payload_lines is None:
            payload_lines = min(
                RCCE_PAYLOAD_LINES, comm.layout.free_lines - 2 * flag_lines
            )
        if payload_lines < 1:
            raise ValueError("payload buffer must be at least one line")
        self.sent = FlagSlotArray(
            comm.layout.alloc_lines(flag_lines), size, name="ts.sent"
        )
        self.ready = FlagSlotArray(
            comm.layout.alloc_lines(flag_lines), size, name="ts.ready"
        )
        self.payload = comm.layout.alloc_lines(payload_lines)
        # (src_rank, dst_rank) -> chunk counters, advanced by the sending /
        # receiving side respectively; they agree because matching
        # send/recv pairs process chunks in the same order.
        self._send_seq: dict[tuple[int, int], int] = {}
        self._recv_seq: dict[tuple[int, int], int] = {}

    @property
    def payload_bytes(self) -> int:
        return self.payload.nbytes

    def next_send_seq(self, src_rank: int, dst_rank: int) -> int:
        key = (src_rank, dst_rank)
        self._send_seq[key] = self._send_seq.get(key, 0) + 1
        return self._send_seq[key]

    def next_recv_seq(self, src_rank: int, dst_rank: int) -> int:
        key = (src_rank, dst_rank)
        self._recv_seq[key] = self._recv_seq.get(key, 0) + 1
        return self._recv_seq[key]


def _chunks(nbytes: int, chunk: int) -> Generator[tuple[int, int], None, None]:
    off = 0
    while off < nbytes:
        yield off, min(chunk, nbytes - off)
        off += chunk


def send(
    cc: "CoreComm",
    dst_rank: int,
    src: MemRef,
    nbytes: int,
    st: TwoSidedState | None = None,
) -> Generator:
    """Blocking send of ``nbytes`` from private memory to ``dst_rank``.

    ``st`` selects the flag/payload state; default is the communicator's
    shared one.  Algorithms that co-reside with other MPB users (e.g. the
    one-sided scatter-allgather) pass their own smaller instance.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    if dst_rank == cc.rank:
        raise ValueError("send to self is not supported (RCCE semantics)")
    cc.comm.core_of(dst_rank)  # validates the rank
    st = st if st is not None else cc.comm.twosided
    if nbytes == 0:
        # Zero-byte messages still synchronise (flag handshake only).
        seq = st.next_send_seq(cc.rank, dst_rank)
        yield from cc.slot_write(st.sent, dst_rank, cc.rank, seq)
        yield from cc.slot_wait_at_least(st.ready, dst_rank, seq)
        return
    for off, span in _chunks(nbytes, st.payload_bytes):
        seq = st.next_send_seq(cc.rank, dst_rank)
        yield from cc.put(cc.rank, st.payload.offset, src.sub(off, span), span)
        yield from cc.slot_write(st.sent, dst_rank, cc.rank, seq)
        # Stop-and-wait: the payload buffer may not be reused until acked.
        yield from cc.slot_wait_at_least(st.ready, dst_rank, seq)


def recv(
    cc: "CoreComm",
    src_rank: int,
    dst: MemRef,
    nbytes: int,
    st: TwoSidedState | None = None,
) -> Generator:
    """Blocking receive of ``nbytes`` from ``src_rank`` into private memory."""
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    if src_rank == cc.rank:
        raise ValueError("recv from self is not supported (RCCE semantics)")
    st = st if st is not None else cc.comm.twosided
    if nbytes == 0:
        seq = st.next_recv_seq(src_rank, cc.rank)
        yield from cc.slot_wait_at_least(st.sent, src_rank, seq)
        yield from cc.slot_write(st.ready, src_rank, cc.rank, seq)
        return
    for off, span in _chunks(nbytes, st.payload_bytes):
        seq = st.next_recv_seq(src_rank, cc.rank)
        yield from cc.slot_wait_at_least(st.sent, src_rank, seq)
        yield from cc.get(src_rank, st.payload.offset, dst.sub(off, span), span)
        yield from cc.slot_write(st.ready, src_rank, cc.rank, seq)
