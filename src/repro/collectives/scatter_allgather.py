"""Scatter-allgather broadcast (the RCCE_comm large-message baseline).

Two phases (paper Section 5.3.2):

1. *Scatter*: the message is cut into P slices; a binary recursive tree
   (same shape as the binomial broadcast tree) distributes slices so that
   the rank at relative position ``rel`` ends up holding slice ``rel``.
2. *Allgather*: P-1 ring rounds; in every round each core sends one slice
   to its lower neighbour and receives the next slice from its upper
   neighbour ("core i sends to core i-1 the slices it received in the
   previous step" -- the Bruck-style exchange of [6] as the paper deploys
   it).

Slice ``j`` is the fixed byte range ``[j*s, (j+1)*s)`` of the message
(``s = ceil(n/P)``; trailing slices may be short or empty), so the buffer
is assembled in place and every rank finishes with the full message.

Ranks at even relative position send before receiving, odd ones receive
before sending -- the standard parity schedule that makes the ring of
blocking rendezvous operations deadlock-free for any P.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..rcce import twosided
from ..scc.memory import MemRef

if TYPE_CHECKING:  # pragma: no cover
    from ..rcce.comm import CoreComm
    from ..rcce.twosided import TwoSidedState


def slice_range(nbytes: int, size: int, index: int) -> tuple[int, int]:
    """Byte range (offset, length) of slice ``index`` out of ``size``."""
    s = -(-nbytes // size) if nbytes else 0
    off = min(index * s, nbytes)
    return off, min(s, nbytes - off)


def scatter_phase(
    cc: "CoreComm",
    root: int,
    buf: MemRef,
    nbytes: int,
    st: "TwoSidedState | None" = None,
) -> Generator:
    """Binary-recursive-tree scatter leaving slice ``rel`` at relative
    rank ``rel``, over the send/recv state ``st`` (default: the
    communicator's)."""
    size = cc.size
    rel = (cc.rank - root) % size

    # Receive my subtree's block from the parent (non-roots only).
    mask = 1
    while mask < size and not rel & mask:
        mask <<= 1
    if rel != 0:
        parent = (cc.rank - mask) % size
        lo, _ = slice_range(nbytes, size, rel)
        hi_idx = min(rel + mask, size)
        hi = slice_range(nbytes, size, hi_idx)[0]
        yield from twosided.recv(cc, parent, buf.sub(lo, hi - lo), hi - lo, st)

    # Forward the upper half of my block, halving each time.
    mask >>= 1
    while mask > 0:
        if rel + mask < size:
            child = (cc.rank + mask) % size
            lo = slice_range(nbytes, size, rel + mask)[0]
            hi_idx = min(rel + 2 * mask, size)
            hi = slice_range(nbytes, size, hi_idx)[0]
            yield from twosided.send(cc, child, buf.sub(lo, hi - lo), hi - lo, st)
        mask >>= 1


def _allgather_phase(
    cc: "CoreComm", root: int, buf: MemRef, nbytes: int
) -> Generator:
    """P-1 ring rounds: slices travel from higher to lower relative rank."""
    size = cc.size
    rel = (cc.rank - root) % size
    dst = (root + (rel - 1) % size) % size  # lower neighbour
    src = (root + (rel + 1) % size) % size  # upper neighbour

    for t in range(size - 1):
        send_off, send_len = slice_range(nbytes, size, (rel + t) % size)
        recv_off, recv_len = slice_range(nbytes, size, (rel + t + 1) % size)
        if rel % 2 == 0:
            yield from cc.send(dst, buf.sub(send_off, send_len), send_len)
            yield from cc.recv(src, buf.sub(recv_off, recv_len), recv_len)
        else:
            yield from cc.recv(src, buf.sub(recv_off, recv_len), recv_len)
            yield from cc.send(dst, buf.sub(send_off, send_len), send_len)


def scatter_allgather_bcast(
    cc: "CoreComm", root: int, buf: MemRef, nbytes: int
) -> Generator:
    """Broadcast ``nbytes`` from ``root`` by scattering slices then
    allgathering them around the ring."""
    size = cc.size
    if not 0 <= root < size:
        raise ValueError(f"root {root} outside 0..{size - 1}")
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    if size == 1 or nbytes == 0:
        return
    if size == 2:
        # Degenerate ring: a single send/recv of the whole message.
        if cc.rank == root:
            yield from cc.send((root + 1) % size, buf, nbytes)
        else:
            yield from cc.recv(root, buf, nbytes)
        return
    yield from scatter_phase(cc, root, buf, nbytes)
    yield from _allgather_phase(cc, root, buf, nbytes)
