"""OC-style collectives beyond broadcast (the paper's Section 7 plan:
"extend our approach to other collective operations").

Both operations reuse OC-Bcast's ingredients -- k-ary trees bounded by
the MPB contention threshold, one-sided puts/gets, sequence-numbered MPB
flags, binary notification trees -- demonstrating that the RMA pattern
generalises:

- :class:`OcBarrier` -- an arrival wave up the k-ary tree (doneFlags) and
  a release wave down the notification trees.
- :class:`OcReduce` -- children push partial results into per-child slots
  of their parent's MPB; each node combines its subtree chunk by chunk,
  pipelined up the tree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..collectives.reduce import ReduceOp
from ..rcce.flags import Flag, FlagValue
from ..scc.config import CACHE_LINE
from ..scc.memory import MemRef
from .trees import NotificationTree, PropagationTree

if TYPE_CHECKING:  # pragma: no cover
    from ..rcce.comm import Comm, CoreComm


class OcBarrier:
    """RMA k-ary-tree barrier with notification-tree release."""

    def __init__(self, comm: "Comm", k: int = 7, notify_degree: int = 2) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if notify_degree < 1:
            raise ValueError("notify_degree must be >= 1")
        self.comm = comm
        self.k = k
        self.notify_degree = notify_degree
        self.release = comm.flag("ocb.release")
        arrive_region = comm.layout.alloc_lines(k)
        self.arrive = [
            Flag(arrive_region.sub(i, 1), name=f"ocb.arrive{i}") for i in range(k)
        ]
        self._epoch = [0] * comm.size

    def barrier(self, cc: "CoreComm") -> Generator:
        """Block until every rank has entered the barrier."""
        size = cc.size
        if size == 1:
            return
        self._epoch[cc.rank] += 1
        epoch = self._epoch[cc.rank]
        tree = PropagationTree(size, self.k, root=0)
        children = tree.children_of(cc.rank)
        parent = tree.parent_of(cc.rank)

        # Arrival wave: wait for the whole subtree, then report upward.
        if children:
            flags = self.arrive[: len(children)]
            yield from cc.wait_flags(
                flags, lambda vs, e=epoch: all(v.seq >= e for v in vs)
            )
        if parent is not None:
            slot = tree.child_index(cc.rank)
            yield from cc.flag_set(parent, self.arrive[slot], FlagValue(cc.rank, epoch))
            # Release wave: wait for it, then relay among siblings.
            yield from cc.wait_flags(
                [self.release], lambda v, e=epoch: v[0].seq >= e
            )
            siblings = tree.children_of(parent)
            family = NotificationTree(len(siblings), self.notify_degree)
            my_slot = tree.child_index(cc.rank) + 1
            for t in family.notify_targets(my_slot):
                yield from cc.flag_set(
                    siblings[t - 1], self.release, FlagValue(0, epoch)
                )
        # Kick off the release into own children.
        if children:
            family = NotificationTree(len(children), self.notify_degree)
            for t in family.notify_targets(0):
                yield from cc.flag_set(
                    children[t - 1], self.release, FlagValue(0, epoch)
                )


class OcReduce:
    """RMA k-ary-tree reduction, pipelined in MPB-sized chunks.

    Each core's MPB hosts ``k`` slots of ``chunk_lines`` where its
    children deposit partial results with one-sided puts.  Per chunk, a
    node waits for all child slots (doneFlags), combines them with its
    own data, and puts the combined chunk into its slot at its parent.
    A per-child "slot free" notification flows downward so slots are
    recycled safely across chunks.
    """

    def __init__(self, comm: "Comm", k: int = 7, chunk_lines: int = 32) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if chunk_lines < 1:
            raise ValueError("chunk_lines must be >= 1")
        self.comm = comm
        self.k = k
        self.chunk_lines = chunk_lines
        need = k * chunk_lines + k + 1
        if need > comm.layout.free_lines:
            raise MemoryError(
                f"OC-Reduce needs {need} MPB lines, {comm.layout.free_lines} free"
            )
        self.slots = comm.layout.alloc_lines(k * chunk_lines)
        done_region = comm.layout.alloc_lines(k)
        self.done = [
            Flag(done_region.sub(i, 1), name=f"ocr.done{i}") for i in range(k)
        ]
        self.free = comm.flag("ocr.free")
        self._base = [0] * comm.size

    @property
    def chunk_bytes(self) -> int:
        return self.chunk_lines * CACHE_LINE

    def reduce(
        self,
        cc: "CoreComm",
        root: int,
        sendbuf: MemRef,
        recvbuf: MemRef,
        nbytes: int,
        op: ReduceOp,
    ) -> Generator:
        """Reduce ``nbytes`` element-wise into ``root``'s ``recvbuf``
        (every rank passes a ``recvbuf`` of at least ``nbytes`` -- it is
        the per-node accumulation scratch)."""
        size = cc.size
        if not 0 <= root < size:
            raise ValueError(f"root {root} outside 0..{size - 1}")
        if nbytes % op.dtype.itemsize:
            raise ValueError(
                f"{nbytes} bytes is not a whole number of {op.dtype} elements"
            )
        if recvbuf.nbytes < nbytes:
            raise ValueError("recvbuf must hold nbytes on every rank")
        if sendbuf.nbytes < nbytes:
            raise ValueError("sendbuf must hold nbytes on every rank")
        if nbytes == 0:
            return
        nchunks = -(-nbytes // self.chunk_bytes)
        base = self._base[cc.rank]
        self._base[cc.rank] += nchunks
        if size == 1:
            yield from cc.local_copy(recvbuf, sendbuf, nbytes)
            return

        tree = PropagationTree(size, self.k, root)
        children = tree.children_of(cc.rank)
        parent = tree.parent_of(cc.rank)
        done = self.done[: len(children)]

        for idx in range(nchunks):
            seq = base + idx + 1
            off = idx * self.chunk_bytes
            span = min(self.chunk_bytes, nbytes - off)
            # Local contribution for this chunk (timed read; combine cost
            # is modeled by the reads/writes of the operands).
            yield from cc.mem_read(sendbuf.sub(off, span))
            acc = sendbuf.sub(off, span).read()
            if children:
                yield from cc.wait_flags(
                    done, lambda vs, s=seq: all(v.seq >= s for v in vs)
                )
                for j, child in enumerate(children):
                    slot_off = self.slots.offset + j * self.chunk_bytes
                    raw = cc.read_local(slot_off, span)
                    # Timed read of the slot from the own MPB.
                    yield from cc.mpb_charge_local(-(-span // CACHE_LINE))
                    acc = op.combine(acc, raw)
                    # Free the slot for the child's next chunk.
                    yield from cc.flag_set(child, self.free, FlagValue(cc.rank, seq))
            if parent is None:
                yield from cc.mem_write(recvbuf.sub(off, span))
                recvbuf.sub(off, span).write(acc)
            else:
                # Wait for my slot at the parent to be free (seq-1 consumed).
                # (Safe across invocations: the final wait below guarantees
                # the slot was drained before the previous reduce returned.)
                if idx > 0:
                    floor = seq - 1
                    yield from cc.wait_flags(
                        [self.free], lambda v, f=floor: v[0].seq >= f
                    )
                slot = tree.child_index(cc.rank)
                slot_off = self.slots.offset + slot * self.chunk_bytes
                # Stage the combined chunk, then put it into the parent slot.
                yield from cc.mem_write(recvbuf.sub(off, span))
                recvbuf.sub(off, span).write(acc)
                yield from cc.put(
                    parent, slot_off, recvbuf.sub(off, span), span
                )
                yield from cc.flag_set(
                    parent, self.done[slot], FlagValue(cc.rank, seq)
                )
        if parent is not None:
            # Don't return until the parent has drained the last chunk, so
            # the slot is reusable by the next invocation (any tree shape).
            final = base + nchunks
            yield from cc.wait_flags(
                [self.free], lambda v, f=final: v[0].seq >= f
            )
        cc.trace("ocr.done", chunks=nchunks)
