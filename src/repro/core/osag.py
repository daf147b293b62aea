"""One-sided scatter-allgather broadcast (the paper's Section 5.4 sketch).

The discussion section names "adapting the two-sided scatter-allgather
algorithm to use the one-sided primitives" as a good example of another
RMA-based broadcast design.  This module builds it:

- the *scatter* phase stays a binary recursive tree over (small-payload)
  send/recv -- it moves each byte once, so there is little to gain;
- the *allgather* ring is where two-sided RCCE loses (Formula 16 pays an
  off-chip read AND write per hop per slice): here a slice travels the
  ring **MPB-to-MPB**.  Each core keeps the slice it received this round
  in an MPB buffer and forwards it next round with a direct remote get by
  the downstream neighbour; the copy to private memory happens off the
  forwarding path.  Double buffering overlaps the forward of round ``t``
  with the receive of round ``t+1``, exactly like OC-Bcast's chunks.

Large messages are processed in segments of ``P * slice_lines`` cache
lines so a slice always fits the MPB buffer.

The result (see ``benchmarks/bench_extension_onesided_sag.py``) sits far
above the two-sided scatter-allgather and close to OC-Bcast's peak --
evidence for the paper's closing claim that one-sided designs in general,
not OC-Bcast specifically, are what unlocks the hardware.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..collectives.scatter_allgather import scatter_phase, slice_range
from ..rcce.flags import FlagSlotArray
from ..rcce.twosided import TwoSidedState, recv as ts_recv, send as ts_send
from ..scc.config import CACHE_LINE
from ..scc.memory import MemRef

if TYPE_CHECKING:  # pragma: no cover
    from ..rcce.comm import Comm, CoreComm


class OsagBcast:
    """One-sided scatter-allgather broadcast engine.

    MPB budget (per core): two slice buffers of ``slice_lines`` each, two
    per-partner slot arrays for the ring, plus a private two-sided state
    (``scatter_payload_lines`` + two more arrays) for the scatter phase.
    The defaults fit the 256-line MPB at P=48 alongside nothing else.
    """

    def __init__(
        self,
        comm: "Comm",
        slice_lines: int = 48,
        scatter_payload_lines: int = 96,
    ) -> None:
        if slice_lines < 1:
            raise ValueError("slice_lines must be >= 1")
        self.comm = comm
        self.slice_lines = slice_lines
        size = comm.size
        flag_lines = FlagSlotArray.lines_needed(size)
        need = 2 * slice_lines + scatter_payload_lines + 4 * flag_lines
        if need > comm.layout.free_lines:
            raise MemoryError(
                f"one-sided scatter-allgather needs {need} MPB lines, "
                f"{comm.layout.free_lines} free"
            )
        self.scatter_state = TwoSidedState(comm, payload_lines=scatter_payload_lines)
        #: staged[s] in core i's MPB: ring slices its upstream s has made
        #: available; drained[r] in core i's MPB: slices downstream r has
        #: consumed from core i's buffers.
        self.staged = FlagSlotArray(
            comm.layout.alloc_lines(flag_lines), size, name="osag.staged"
        )
        self.drained = FlagSlotArray(
            comm.layout.alloc_lines(flag_lines), size, name="osag.drained"
        )
        self.buffers = [comm.layout.alloc_lines(slice_lines) for _ in range(2)]
        # Per-rank ring-step counter (each rank tracks its own copy).
        self._base = [0] * size

    @property
    def slice_bytes(self) -> int:
        return self.slice_lines * CACHE_LINE

    @property
    def segment_bytes(self) -> int:
        return self.comm.size * self.slice_bytes

    # ------------------------------------------------------------------

    def bcast(self, cc: "CoreComm", root: int, buf: MemRef, nbytes: int) -> Generator:
        """Broadcast ``nbytes`` from ``root``'s ``buf`` into every rank's
        ``buf``."""
        size = cc.size
        if not 0 <= root < size:
            raise ValueError(f"root {root} outside 0..{size - 1}")
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if buf.nbytes < nbytes:
            raise ValueError(f"buffer of {buf.nbytes} bytes for {nbytes}-byte bcast")
        if nbytes == 0 or size == 1:
            return
        if size == 2:
            # Degenerate ring: one pipelined pair transfer via the
            # scatter machinery.
            if cc.rank == root:
                yield from ts_send(cc, 1 - root, buf.sub(0, nbytes), nbytes,
                                   st=self.scatter_state)
            else:
                yield from ts_recv(cc, root, buf.sub(0, nbytes), nbytes,
                                   st=self.scatter_state)
            return
        seg = self.segment_bytes
        off = 0
        while off < nbytes:
            span = min(seg, nbytes - off)
            yield from self._bcast_segment(cc, root, buf.sub(off, span), span)
            off += seg

    # -- one segment (slices fit the MPB buffers) -------------------------

    def _bcast_segment(
        self, cc: "CoreComm", root: int, buf: MemRef, nbytes: int
    ) -> Generator:
        # The two-sided scatter runs on the private state, which fits the
        # MPB beside the ring's buffers.
        yield from scatter_phase(cc, root, buf, nbytes, st=self.scatter_state)
        yield from self._ring(cc, root, lambda i: slice_range(nbytes, cc.size, i), buf)

    # -- the one-sided ring ---------------------------------------------

    def _ring(self, cc: "CoreComm", root: int, slice_of, buf: MemRef) -> Generator:
        """P-1 rounds of MPB-to-MPB slice forwarding.

        ``slice_of(index)`` gives the (offset, length) within ``buf`` of
        the slice owned by the rank at relative position ``index``; every
        slice must fit one ring buffer.  On entry each rank holds its own
        slice in ``buf``; on exit all slices are assembled everywhere.
        """
        size = cc.size
        rel = (cc.rank - root) % size
        down_rank = (root + (rel - 1) % size) % size
        up_rank = (root + (rel + 1) % size) % size
        base = self._base[cc.rank]
        self._base[cc.rank] += size - 1

        for t in range(size - 1):
            sbuf = self.buffers[t % 2]
            rbuf = self.buffers[(t + 1) % 2]
            out_off, out_len = slice_of((rel + t) % size)
            in_off, in_len = slice_of((rel + t + 1) % size)
            if t == 0:
                # Stage my own slice; sbuf's previous occupant belongs to
                # the previous segment, fully drained by the final wait.
                if out_len:
                    yield from cc.put(cc.rank, sbuf.offset, buf.sub(out_off, out_len), out_len)
            # My round-t slice is ready for the downstream neighbour.
            yield from cc.slot_write(self.staged, down_rank, cc.rank, base + t + 1)
            # Receive the upstream slice for the next round.
            if t < size - 1:
                yield from cc.slot_wait_at_least(self.staged, up_rank, base + t + 1)
                if t >= 1:
                    # rbuf still holds my round-(t-1) slice: downstream
                    # must have consumed it before I overwrite.
                    yield from cc.slot_wait_at_least(self.drained, down_rank, base + t)
                if in_len:
                    # Direct MPB-to-MPB move -- the one-sided adaptation.
                    yield from cc.get(up_rank, sbuf.offset, rbuf.offset, in_len)
                yield from cc.slot_write(self.drained, up_rank, cc.rank, base + t + 1)
                if in_len:
                    # Assemble into private memory, off the forwarding path.
                    yield from cc.get(cc.rank, rbuf.offset, buf.sub(in_off, in_len), in_len)
        # Buffers must be clean for the next segment/broadcast.
        yield from cc.slot_wait_at_least(self.drained, down_rank, base + size - 1)
