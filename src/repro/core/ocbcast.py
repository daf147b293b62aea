"""OC-Bcast: pipelined k-ary-tree broadcast on one-sided RMA.

The paper's algorithm (Section 4), with every mechanism implemented:

- **k-ary propagation tree** -- the k children of a node get each message
  chunk *in parallel* from their parent's MPB (one-sided ``get``), with k
  chosen below the MPB contention threshold (Section 3.3).
- **Binary notification trees** -- a parent raises its children's
  ``notifyFlag`` through a small binary tree spanning the family (itself
  plus its k children), so notification costs O(log k) serial flag writes
  instead of k (Figure 5).
- **doneFlags** -- k flags in each parent's MPB, one per child; a child
  sets its slot after copying a chunk out of the parent's buffer, and the
  parent reuses a buffer only when every child has consumed its previous
  occupant.
- **Chunking, pipelining and double buffering** (Section 4.2) -- messages
  move in chunks of ``M_oc = 96`` cache lines through (by default) two
  MPB buffers, so a parent fills one buffer while children drain the
  other and steady-state throughput is bounded by one MPB-to-MPB get plus
  one MPB-to-memory get per chunk (Formula 15).

Flags carry monotonically increasing sequence numbers (one per chunk,
across all broadcasts on the same :class:`OcBcast` instance) instead of
booleans, so they never need clearing -- the protocol's buffer-recycling
waits double as flag recycling.

Per-core protocol for an intermediate node, chunk by chunk (the paper's
steps (i)-(v)): wait for ``notifyFlag``; (i) relay the notification to
its notification-children among its *siblings*; (wait for its own
children to free the target buffer;) (ii) get the chunk from the parent's
MPB into its own MPB; (iii) set its ``doneFlag`` at the parent; (iv)
notify its own propagation children; (v) get the chunk from its MPB to
private off-chip memory.

Options beyond the paper's defaults (all ablation subjects):
``num_buffers=1`` disables double buffering; ``notify_degree`` changes
the notification-tree arity; ``leaf_direct_to_memory`` applies the
Section 5.4 leaf optimisation; ``NotifyMode.INTERRUPT`` models the
Section 7 interrupt-driven notification (no polling detection delay).

Fault-tolerant mode (``ft=True``)
---------------------------------
The paper's protocol assumes every MPB store lands and every core stays
alive; one lost flag write deadlocks the whole SPMD program.  FT mode
(see ``docs/FAULTS.md``) hardens every mechanism:

- all flag writes are *acked* (readback-verified, bounded re-send --
  :meth:`repro.rcce.endpoint.Endpoint.flag_set_acked`), so dropped or
  corrupted notifications are re-sent by the writer;
- all doneFlag waits carry a poll budget (``ft_flag_timeout``); on
  expiry the parent re-notifies the lagging children directly, and after
  :data:`RENOTIFY_BUDGETS` budgets it declares them crashed and *routes
  around them* (their doneFlags are dropped from every later wait, and
  notification falls back from the relay tree to direct parent fan-out,
  which does not depend on dead siblings relaying);
- a child's notify wait carries a generous ``ft_notify_timeout`` so a
  dead parent yields a diagnosable :class:`repro.sim.TimeoutError`
  rather than an infinite spin;
- optionally (``ft_ack_data=True``) the data path is verified too: the
  root's chunk staging uses acked puts that re-send un-acked cache
  lines, and every node's chunk fetch into its own MPB uses verified
  gets that re-fetch on a lost deposit.

With no faults injected the FT path costs only the acked-write readbacks
(one extra 1-line MPB read per flag write), keeping its latency within a
few percent of the baseline -- the "robustness tax" that
``repro.bench.faultcampaign`` quantifies.

Payload integrity (``integrity=True``)
--------------------------------------
Acked flag writes protect the control path but say nothing about the
*data*: a corrupted payload line is delivered silently.  Integrity mode
prepends one header line to every MPB buffer carrying ``(seq, crc32,
span)`` of the staged chunk.  Every fetch copies header plus payload and
verifies the checksum against its own deposit (the CRC is accumulated
while the lines stream through the fetching core's registers, so it
costs :data:`CRC_US_PER_LINE` per line, not a second pass over the
mesh); a mismatch -- corrupted or dropped deposit, stale or torn header
-- triggers a bounded re-fetch (the NACK path).  A corruption upstream
of the fetch (the staged copy itself is bad) re-fetches the same bad
bytes and escalates as a :class:`repro.sim.TimeoutError` instead of a
silent delivery; the membership service (:mod:`repro.member`) turns that
escalation into a re-broadcast.

Service mode (``service=True``, used by :class:`repro.member.OcBcastService`)
-----------------------------------------------------------------------------
Two protocol changes, both confined to the end of a broadcast, give the
root *global* delivery knowledge at ~zero fault-free cost:

- **NACK done-chain**: a node reports its final-chunk doneFlag only
  after its own children's final doneFlags arrive, and the flag's tag
  carries a NACK when anything below it failed (a child declared dead, a
  NACK from a grandchild).  The root's final wait therefore covers the
  *whole tree*, not just its direct children.
- **Commit notification**: one extra notification sequence number per
  broadcast, relayed through the same notification trees, tells every
  node whether the broadcast committed (tag ``COMMIT_OK``) or will be
  retried by the service layer (tag ``COMMIT_RETRY``).

``bcast`` then returns ``"ok"``/``"retry"`` (or ``"evicted"`` for ranks
outside the supplied member tree) instead of ``None``.  A node whose
payload is fully fetched and verified but whose commit notification
never arrives -- the source died between delivery and commit -- returns
``"undecided"``: it *holds* the message without knowing the verdict,
which is the vote the service layer's completion protocol counts.  A
node that instead finds a *later* window's notification in the flag --
its own commit was lost and the group has demonstrably moved past the
commit round -- returns ``"moved_on"``, and the service layer infers
the verdict from the view flag (a RETRY always installs a view before
any new window streams; a clean flag means the group committed OK).
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional, Sequence

from ..rcce.flags import Flag, FlagValue
from ..resilience.policy import IMMEDIATE, RetryPolicy
from ..scc.config import CACHE_LINE
from ..scc.memory import MemRef
from ..sim.errors import TimeoutError as SimTimeoutError
from .trees import NotificationTree, PropagationTree

if TYPE_CHECKING:  # pragma: no cover
    from ..rcce.comm import Comm, CoreComm

#: The paper's chunk size: 96 cache lines (leaves room for flags with any k).
DEFAULT_CHUNK_LINES = 96

#: Interrupt-handler cost (us) a waiter pays per notification under
#: ``NotifyMode.INTERRUPT``.
IRQ_HANDLER = 0.1

#: Poll budget (us) of a child's FT notify wait unless the config sets
#: one (generous: firing means the parent itself is gone, which FT mode
#: does not mask).
FT_NOTIFY_TIMEOUT = 10_000.0

#: doneFlag poll budgets a parent spends re-notifying a lagging child
#: before declaring it crashed.  Deliberately not ``ft_retry``'s re-send
#: count: the adaptive configurations pace 5-6 re-sends per acked write
#: yet give up on a silent child after the same three budgets.
RENOTIFY_BUDGETS = 3

#: Re-fetches on an integrity-checksum mismatch before escalating.
INTEGRITY_RETRIES = 3

#: CRC cost (us) per cache line -- cheap: it accumulates in registers
#: while the lines are already streaming through the core.
CRC_US_PER_LINE = 0.01

#: Chunk header: (seq, crc32, span) in 16 of the header line's 32 bytes.
_HEADER = struct.Struct("<qII")

#: Commit-notification tags (service mode).  Normal chunk notifications
#: carry tag 0; the commit notification reuses the notify flag with the
#: broadcast's reserved final sequence number and one of these tags.
COMMIT_OK = 1
COMMIT_RETRY = 2

#: DoneFlag NACK encoding: a node that saw a failure in its subtree
#: reports its final doneFlag with tag ``-1 - rank`` instead of ``rank``.
def _nack_tag(rank: int) -> int:
    return -1 - rank


class NotifyMode(enum.Enum):
    """How children learn that a chunk is available."""

    #: MPB flags, polled by the waiting core (the paper's design).
    FLAGS = "flags"
    #: Inter-core interrupts (the paper's Section 7 extension): the waiter
    #: pays a fixed handler cost instead of a polling detection delay.
    INTERRUPT = "interrupt"


@dataclass(frozen=True)
class OcBcastConfig:
    """Tuning knobs of one OC-Bcast instance."""

    k: int = 7
    chunk_lines: int = DEFAULT_CHUNK_LINES
    num_buffers: int = 2
    notify_degree: int = 2
    #: Section 5.4: leaves fetch straight into private memory (excludes
    #: ``integrity``: a leaf keeps no MPB copy of the chunk header).
    leaf_direct_to_memory: bool = False
    notify_mode: NotifyMode = NotifyMode.FLAGS
    #: Fault-tolerant mode: acked flag writes, poll budgets, re-notify
    #: retries and crashed-leaf routing (see the module docstring).
    ft: bool = False
    #: Poll budget (us) for doneFlag waits before suspecting a child.
    ft_flag_timeout: float = 300.0
    #: Poll budget (us) for a child's notify wait.
    ft_notify_timeout: float = FT_NOTIFY_TIMEOUT
    #: Also ack the root's chunk-staging puts (re-send un-acked cache
    #: lines).  Off by default: it doubles staging MPB traffic.
    ft_ack_data: bool = False
    #: End-to-end payload integrity: one header line per buffer carrying
    #: (seq, crc32, span); every fetch verifies and re-fetches on
    #: mismatch (see the module docstring).
    integrity: bool = False
    #: Service mode: NACK done-chain + commit notification (requires ft;
    #: used by :class:`repro.member.OcBcastService`).
    service: bool = False
    #: Byzantine-tolerant mode: Bracha echo/ready quorum rounds after
    #: delivery (see :mod:`repro.member.rbc`), plus the adversary hooks
    #: that let EQUIVOCATE / FORGE_FLAG_VALUE / LIE_IN_QUORUM plans fire.
    #: Requires service mode (the RBC rounds ride on its commit round and
    #: integrity headers).
    byz: bool = False
    #: Re-send schedule of the FT path's acked writes (doneFlag/notify
    #: re-sends, acked staging puts and fetches).
    ft_retry: RetryPolicy = IMMEDIATE

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.chunk_lines < 1:
            raise ValueError("chunk_lines must be >= 1")
        if self.num_buffers < 1:
            raise ValueError("num_buffers must be >= 1")
        if self.notify_degree < 1:
            raise ValueError("notify_degree must be >= 1")
        if self.ft_flag_timeout <= 0 or self.ft_notify_timeout <= 0:
            raise ValueError("FT timeouts must be > 0")
        if self.service and not self.ft:
            raise ValueError("service mode requires ft=True")
        if self.leaf_direct_to_memory and self.integrity:
            raise ValueError(
                "leaf_direct_to_memory cannot verify integrity (a leaf keeps "
                "no MPB copy of the chunk header)"
            )
        if self.byz and not (self.service and self.integrity):
            raise ValueError(
                "byz mode requires service=True and integrity=True (the RBC "
                "rounds ride on the commit round and the integrity headers)"
            )

    @property
    def chunk_bytes(self) -> int:
        return self.chunk_lines * CACHE_LINE

    @property
    def buffer_lines(self) -> int:
        """MPB lines per buffer: the chunk plus the integrity header."""
        return self.chunk_lines + (1 if self.integrity else 0)


class OcBcast:
    """An OC-Bcast engine bound to a communicator.

    Construction allocates the MPB resources (``num_buffers`` payload
    buffers of ``chunk_lines`` each, one notifyFlag, ``k`` doneFlags --
    the paper's k+1 flags per core) symmetrically on every rank.  The
    engine is reusable: any number of broadcasts, from any root, may be
    issued on the same instance.
    """

    def __init__(self, comm: "Comm", config: OcBcastConfig | None = None) -> None:
        self.comm = comm
        self.config = config or OcBcastConfig()
        cfg = self.config
        need = cfg.num_buffers * cfg.buffer_lines + cfg.k + 1
        if need > comm.layout.free_lines:
            raise MemoryError(
                f"OC-Bcast needs {need} MPB lines ({cfg.num_buffers} x "
                f"{cfg.buffer_lines} buffers + {cfg.k + 1} flags) but only "
                f"{comm.layout.free_lines} are free"
            )
        self.notify = comm.flag("oc.notify")
        done_region = comm.layout.alloc_lines(cfg.k)
        self.done_flags = [
            Flag(done_region.sub(i, 1), name=f"oc.done{i}") for i in range(cfg.k)
        ]
        self.buffers = [
            comm.layout.alloc_lines(cfg.buffer_lines) for _ in range(cfg.num_buffers)
        ]
        # Per-rank global chunk-sequence base; advances by the chunk count
        # of every broadcast (each rank tracks its own copy -- SPMD calls
        # are matching, so the copies agree).
        self._base = [0] * comm.size
        #: Byzantine mode: set by the RBC layer to a ``(cc) -> Generator``
        #: that casts this rank's ECHO votes.  Called right before the
        #: commit round, so the echo fan-out overlaps the commit wait the
        #: node would otherwise spend idle (the main lever keeping the
        #: fault-free RBC tax low).
        self.byz_echo_hook = None
        # Scratch private buffer for the equivocation variant (attack
        # path only; allocated lazily by the compromised root).
        self._equiv_buf: MemRef | None = None

    # ------------------------------------------------------------------

    def window_base(self, rank: int) -> int:
        """This rank's current chunk-sequence window base (the next
        broadcast call starts numbering from here)."""
        return self._base[rank]

    def resync_window(self, rank: int, base: int) -> None:
        """Fast-forward this rank's window base to ``base`` (never
        backwards).  The service layer calls this for a member that
        missed whole broadcast windows while the group moved on, using
        the coordinator's base piggybacked on the view install -- a
        stale local base would make every later window's sequence
        numbers shear against the rest of the tree."""
        if base > self._base[rank]:
            self._base[rank] = base

    def bcast(
        self,
        cc: "CoreComm",
        root: int,
        buf: MemRef,
        nbytes: int,
        order: Sequence[int] | None = None,
        tree: Optional[PropagationTree] = None,
    ) -> Generator:
        """Broadcast ``nbytes`` from ``root``'s ``buf`` (private memory)
        into every other rank's ``buf``.

        ``order`` optionally overrides the position-to-rank assignment of
        the propagation tree (see :func:`topology_aware_order`); all ranks
        must pass the same value.

        ``tree`` optionally supplies a prebuilt propagation tree -- in
        particular one over the survivors of a membership view, which is
        how the service layer routes later broadcasts around dead cores.  A rank outside the tree returns
        ``"evicted"`` immediately; in service mode the other ranks return
        ``"ok"`` or ``"retry"`` (the commit outcome) -- or ``"undecided"``
        / ``"moved_on"`` when the commit notification was lost (see the
        module docs) -- otherwise ``None``.
        """
        size = cc.size
        cfg = self.config
        if not 0 <= root < size:
            raise ValueError(f"root {root} outside 0..{size - 1}")
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if buf.nbytes < nbytes:
            raise ValueError(f"buffer of {buf.nbytes} bytes for {nbytes}-byte bcast")
        if tree is not None:
            if order is not None:
                raise ValueError("pass either a prebuilt tree or an order, not both")
            if tree.root != root:
                raise ValueError(f"tree root {tree.root} != bcast root {root}")
            if cc.rank not in tree:
                return "evicted"
        if nbytes == 0 or (size if tree is None else tree.size) == 1:
            return "ok" if cfg.service else None
        nchunks = -(-nbytes // cfg.chunk_bytes)
        base = self._base[cc.rank]
        # Service mode reserves one extra sequence number per broadcast
        # for the commit notification.
        self._base[cc.rank] += nchunks + (1 if cfg.service else 0)

        if tree is None:
            tree = PropagationTree(size, cfg.k, root, order)
        children = tree.children_of(cc.rank)
        if tree.parent_of(cc.rank) is None:
            cc.metric_inc("oc.bcasts")
            cc.metric_inc("oc.chunks", nchunks)
            cc.metric_inc("oc.bytes", nbytes)
            return (
                yield from self._run_root(
                    cc, tree, children, buf, nbytes, nchunks, base
                )
            )
        return (
            yield from self._run_node(cc, tree, children, buf, nbytes, nchunks, base)
        )

    # -- root ------------------------------------------------------------

    def _run_root(
        self,
        cc: "CoreComm",
        tree: PropagationTree,
        children: list[int],
        buf: MemRef,
        nbytes: int,
        nchunks: int,
        base: int,
    ) -> Generator:
        cfg = self.config
        family = NotificationTree(len(children), cfg.notify_degree)
        done = [self.done_flags[tree.child_index(c)] for c in children]
        dead: set[int] = set()
        for idx in range(nchunks):
            seq = base + idx + 1
            b = idx % cfg.num_buffers
            off = idx * cfg.chunk_bytes
            span = min(cfg.chunk_bytes, nbytes - off)
            cc.trace("oc.chunk.begin", idx=idx, seq=seq)
            # Recycle buffer b: children must have consumed its previous
            # occupant (chunk idx - num_buffers).
            if children and idx >= cfg.num_buffers:
                floor = base + idx - cfg.num_buffers + 1
                yield from self._wait_done(
                    cc, children, done, floor, dead, last_seq=base + idx
                )
            yield from self._stage(cc, b, buf.sub(off, span), span, seq)
            # ``floor`` self-describes the slot-reuse precondition: staging
            # into buffer ``b`` is legal only once every live child's
            # doneFlag has reached seq - num_buffers (vacuous for the
            # first num_buffers chunks).
            cc.trace(
                "oc.chunk_staged",
                idx=idx, seq=seq, buf=b, floor=seq - cfg.num_buffers,
            )
            yield from self._notify(cc, tree, family, children, slot=0, seq=seq,
                                    dead=dead)
            if cfg.byz and cc.has_faults:
                yield from self._maybe_equivocate(
                    cc, children, done, dead, b, buf.sub(off, span), span, seq
                )
            cc.trace("oc.chunk.end", idx=idx, seq=seq)
        failed = yield from self._drain(cc, children, done, dead, base + nchunks)
        if not cfg.service:
            return None
        # The NACK done-chain made the final wait cover the whole tree.
        # Commit the outcome down the notification trees using the
        # reserved sequence number.
        commit_seq = base + nchunks + 1
        tag = COMMIT_RETRY if failed else COMMIT_OK
        cc.trace("oc.svc.commit", seq=commit_seq, ok=not failed)
        cc.metric_inc("oc.svc.commit_ok" if not failed else
                      "oc.svc.commit_retry")
        yield from self._notify(
            cc, tree, family, children, slot=0, seq=commit_seq, dead=dead, tag=tag
        )
        return "retry" if failed else "ok"

    # -- intermediate nodes and leaves -------------------------------------

    def _run_node(
        self,
        cc: "CoreComm",
        tree: PropagationTree,
        children: list[int],
        buf: MemRef,
        nbytes: int,
        nchunks: int,
        base: int,
    ) -> Generator:
        cfg = self.config
        parent = tree.parent_of(cc.rank)
        assert parent is not None
        siblings = tree.children_of(parent)
        my_slot = tree.child_index(cc.rank) + 1  # family slot (0 = parent)
        parent_family = NotificationTree(len(siblings), cfg.notify_degree)
        my_family = NotificationTree(len(children), cfg.notify_degree)
        done = [self.done_flags[tree.child_index(c)] for c in children]
        my_done_flag = self.done_flags[tree.child_index(cc.rank)]
        leaf_direct = cfg.leaf_direct_to_memory and not children
        dead: set[int] = set()
        # Service mode: the final-chunk doneFlag is deferred until the
        # subtree reports, so it can carry a NACK tag (see module docs).
        defer_final = cfg.service and bool(children)

        for idx in range(nchunks):
            seq = base + idx + 1
            b = idx % cfg.num_buffers
            off = idx * cfg.chunk_bytes
            span = min(cfg.chunk_bytes, nbytes - off)
            is_final = idx == nchunks - 1
            cc.trace("oc.chunk.begin", idx=idx, seq=seq)
            cc.trace("oc.wait.begin", idx=idx, seq=seq)
            yield from self._wait_notify(cc, seq)
            cc.trace("oc.wait.end", idx=idx, seq=seq)
            # (i) relay the notification among the siblings.
            yield from self._notify(cc, tree, parent_family, siblings, my_slot, seq)
            # Recycle own buffer b (not needed by leaves).
            if children and idx >= cfg.num_buffers:
                floor = base + idx - cfg.num_buffers + 1
                yield from self._wait_done(
                    cc, children, done, floor, dead, last_seq=base + idx
                )
            if leaf_direct:
                # Section 5.4: a leaf copies straight to off-chip memory.
                cc.trace(
                    "oc.fetch",
                    idx=idx, seq=seq, parent=parent, buf=b,
                    floor=seq - cfg.num_buffers, direct=True,
                )
                yield from cc.get(
                    parent, self.buffers[b].offset, buf.sub(off, span), span
                )
                yield from self._set_flag(
                    cc, parent, my_done_flag, FlagValue(cc.rank, seq)
                )
            else:
                # (ii) parent's MPB buffer -> own MPB buffer (same offset:
                # the layout is symmetric).
                cc.trace(
                    "oc.fetch",
                    idx=idx, seq=seq, parent=parent, buf=b,
                    floor=seq - cfg.num_buffers, direct=False,
                )
                yield from self._fetch(cc, parent, b, span, seq)
                # (iii) tell the parent this chunk is consumed (service
                # mode defers the final chunk's flag -- it doubles as the
                # subtree's delivery report).
                if not (defer_final and is_final):
                    yield from self._set_flag(
                        cc, parent, my_done_flag, FlagValue(cc.rank, seq)
                    )
                # (iv) notify own children.
                yield from self._notify(cc, tree, my_family, children, slot=0,
                                        seq=seq, dead=dead)
                # (v) own MPB -> private off-chip memory.
                yield from cc.get(
                    cc.rank, self._payload_off(b), buf.sub(off, span), span
                )
            cc.trace("oc.chunk_done", idx=idx, seq=seq)
            cc.trace("oc.chunk.end", idx=idx, seq=seq)
        failed = yield from self._drain(cc, children, done, dead, base + nchunks)
        if not cfg.service:
            return None
        # Deferred final doneFlag: the subtree's outcome rides in the tag.
        if defer_final:
            tag = _nack_tag(cc.rank) if failed else cc.rank
            yield from self._set_flag(
                cc, parent, my_done_flag, FlagValue(tag, base + nchunks)
            )
        # Commit wait + relay: one extra notification round-trip tells
        # every node whether the service layer will retry.  At this
        # point the node's whole payload is fetched and verified; if the
        # commit notification never comes (the source died between
        # delivery and commit), the outcome is "undecided" rather than a
        # raised timeout -- the service layer counts undecided nodes as
        # *holders* of the message in its completion protocol.
        commit_seq = base + nchunks + 1
        try:
            commit = yield from self._wait_notify(cc, commit_seq)
        except SimTimeoutError:
            cc.trace("oc.svc.commit_unknown", seq=commit_seq)
            return "undecided"
        if commit.seq > commit_seq:
            # The commit notification itself was lost (dropped by a
            # faulted link, or overwritten before this node's late last
            # chunk landed) and the flag now holds a *later* sequence
            # window's notification -- its tag says nothing about THIS
            # message's commit.  Do not relay the bogus tag; report
            # "moved_on" and let the service layer disambiguate: a
            # RETRY decision always installs a view before any new
            # window streams, so a clean view flag can only mean the
            # group committed without us.
            cc.trace("oc.svc.commit_moved_on", seq=commit_seq, saw=commit.seq)
            return "moved_on"
        yield from self._notify(
            cc, tree, parent_family, siblings, my_slot, commit_seq, tag=commit.tag
        )
        if children:
            yield from self._notify(
                cc, tree, my_family, children, slot=0, seq=commit_seq,
                dead=dead, tag=commit.tag,
            )
        ok = commit.tag == COMMIT_OK
        cc.trace("oc.svc.commit", seq=commit_seq, ok=ok)
        return "ok" if ok else "retry"

    def _drain(
        self,
        cc: "CoreComm",
        children: list[int],
        done: list[Flag],
        dead: set[int],
        final: int,
    ) -> Generator[object, object, bool]:
        """The end of a broadcast on every rank: cast the ECHO votes
        (byzantine mode), then wait for the children's ``final``
        doneFlags; returns whether anything below failed (a child
        declared dead, or a NACK tag).

        The votes go out once this rank's payload is staged or fetched,
        so the fan-out overlaps the done-chain climbing the tree (and,
        on an interior node, its own wait on the subtree below) -- time
        the rank would otherwise spend idle.
        """
        if self.config.byz and self.byz_echo_hook is not None:
            yield from self.byz_echo_hook(cc)
        final_vals: list[FlagValue] = []
        if children:
            final_vals = yield from self._wait_done(
                cc, children, done, final, dead, last_seq=final
            )
        return bool(dead) or any(v.tag < 0 for v in final_vals)

    # -- FT primitives -------------------------------------------------------

    def _set_flag(
        self, cc: "CoreComm", owner_rank: int, flag: Flag, value: FlagValue
    ) -> Generator:
        """One protocol flag write: plain in the paper's mode, acked
        (readback-verified, bounded re-send) in FT mode."""
        if self.config.ft:
            yield from cc.flag_set_acked(
                owner_rank, flag, value, retry=self.config.ft_retry
            )
        else:
            yield from cc.flag_set(owner_rank, flag, value)

    def _payload_off(self, b: int) -> int:
        """Byte offset of buffer ``b``'s payload (after the header line
        when integrity mode reserves one)."""
        return self.buffers[b].offset + (CACHE_LINE if self.config.integrity else 0)

    def _stage(
        self, cc: "CoreComm", b: int, src: MemRef, span: int, seq: int
    ) -> Generator:
        """The root's chunk-staging put (acked when ``ft_ack_data``); in
        integrity mode the payload put is followed by the header line
        (seq, crc32, span) computed from the *source* buffer, so any
        corruption of the staged copy is visible to every fetcher."""
        cfg = self.config
        offset = self._payload_off(b)
        if cfg.ft and cfg.ft_ack_data:
            yield from cc.put_acked(
                cc.rank, offset, src, span, retry=cfg.ft_retry
            )
        else:
            yield from cc.put(cc.rank, offset, src, span)
        if cfg.integrity:
            crc = zlib.crc32(src.sub(0, span).read())
            yield from self._crc_charge(cc, span)
            header = _HEADER.pack(seq, crc, span).ljust(CACHE_LINE, b"\0")
            yield from cc.put_bytes(cc.rank, self.buffers[b].offset, header)

    def _maybe_equivocate(
        self,
        cc: "CoreComm",
        children: list[int],
        done: list[Flag],
        dead: set[int],
        b: int,
        src: MemRef,
        span: int,
        seq: int,
    ) -> Generator:
        """The EQUIVOCATE adversary: a compromised root serves two payload
        variants for the same chunk.

        After notifying normally, the root *precomputes* variant B (the
        first payload line XORed with 0xA5) and its fully consistent
        integrity header while the children's fetches are in flight, then
        watches its doneFlags until the *first* child reports the chunk
        consumed -- that child (and any sibling whose copy completes
        before the flip lands) holds variant A and will relay it down its
        subtree.  The flip itself rewrites only the changed payload line
        plus the header line, so it lands within a fraction of a
        microsecond and falls inside the window over which the remaining
        children's copies complete: slower children pull B and relay
        *that*.  The split is deterministic for a given chip and plan;
        each variant carries a valid header, so nothing about it is
        detectable by per-hop CRC checks -- exactly the gap the RBC
        layer's digest quorums close.
        """
        spec = cc.adversary_stage()
        if spec is None:
            return
        # Precompute the variant and its header up front: a real attacker
        # pays the CRC before the flip so the restage itself is two line
        # writes.
        head = min(CACHE_LINE, span)
        variant_head = bytes(x ^ 0xA5 for x in src.sub(0, head).read())
        crc = zlib.crc32(variant_head + src.sub(head, span - head).read())
        yield from self._crc_charge(cc, span)
        header = _HEADER.pack(seq, crc, span).ljust(CACHE_LINE, b"\0")
        if self._equiv_buf is None:
            self._equiv_buf = cc.alloc(CACHE_LINE)
        self._equiv_buf.sub(0, head).write(variant_head)
        live = [i for i in range(len(children)) if children[i] not in dead]
        if live:
            try:
                yield from cc.wait_flags(
                    [done[i] for i in live],
                    lambda vs, s=seq: any(v.seq >= s for v in vs),
                    timeout=self.config.ft_flag_timeout,
                    site="oc.adv.equivocate",
                )
            except SimTimeoutError:
                pass  # nobody consumed in time: restage anyway
        cc.trace("oc.adv.equivocate", seq=seq, buf=b, span=span)
        cc.metric_inc("oc.adv.equivocations")
        yield from cc.put(cc.rank, self._payload_off(b), self._equiv_buf.sub(0, head), head)
        yield from cc.put_bytes(cc.rank, self.buffers[b].offset, header)

    def _crc_charge(self, cc: "CoreComm", span: int) -> Generator:
        """The CRC's compute cost: accumulated per line while the data is
        already in the core's registers during the copy."""
        lines = -(-span // CACHE_LINE)
        yield from cc.compute(CRC_US_PER_LINE * lines)

    def _fetch(
        self, cc: "CoreComm", parent: int, b: int, span: int, seq: int
    ) -> Generator:
        """The step-(ii) chunk fetch into own MPB -- the deposit is an
        unacknowledged local write, so it is verified when data acks are
        on.  (Step (v) writes private memory, which cannot be faulted.)

        In integrity mode the fetch copies header + payload and verifies
        the checksum over its *own deposit*; a mismatch (corrupted or
        dropped deposit, stale header) re-fetches up to
        :data:`INTEGRITY_RETRIES` times, then escalates as a timeout -- the
        NACK path.  Corruption upstream (the parent's copy itself) is
        detected but not repairable here; the service layer re-broadcasts.
        """
        cfg = self.config
        reg = self.buffers[b]
        if not cfg.integrity:
            if cfg.ft and cfg.ft_ack_data:
                yield from cc.get_acked(
                    parent, reg.offset, reg.offset, span, retry=cfg.ft_retry
                )
            else:
                yield from cc.get(parent, reg.offset, reg.offset, span)
            return
        total = CACHE_LINE + span
        for attempt in range(INTEGRITY_RETRIES + 1):
            yield from cc.get(parent, reg.offset, reg.offset, total)
            yield from self._crc_charge(cc, span)
            raw = cc.read_local(reg.offset, total)
            if self._chunk_ok(raw, seq, span):
                if attempt:
                    cc.trace(
                        "oc.integrity.refetch_ok",
                        seq=seq, attempts=attempt + 1,
                    )
                    cc.note_recovery(
                        f"oc.chunk{seq}@core{cc.core_id}",
                        note=f"re-fetched x{attempt}",
                    )
                return
            cc.trace(
                "oc.integrity.mismatch",
                seq=seq, parent=parent, attempt=attempt + 1,
            )
            cc.metric_inc("oc.integrity.mismatches")
        raise SimTimeoutError(
            f"core {cc.core_id}: chunk seq={seq} failed checksum after "
            f"{INTEGRITY_RETRIES + 1} fetches from rank {parent} at "
            f"t={cc.now:.4f} (corruption upstream of this fetch)",
            process=f"core{cc.core_id}",
            sim_time=cc.now,
            site="oc.integrity",
        )

    @staticmethod
    def _chunk_ok(raw: bytes, seq: int, span: int) -> bool:
        """Verify one header-prefixed chunk image."""
        hdr_seq, crc, hdr_span = _HEADER.unpack_from(raw)
        if hdr_seq != seq or hdr_span != span:
            return False
        return zlib.crc32(raw[CACHE_LINE:CACHE_LINE + span]) == crc

    def _wait_done(
        self,
        cc: "CoreComm",
        children: list[int],
        done: list[Flag],
        floor: int,
        dead: set[int],
        last_seq: int,
    ) -> Generator[object, object, list[FlagValue]]:
        """Wait until every *live* child's doneFlag reaches ``floor``;
        returns the satisfying flag values (service mode aggregates NACK
        tags from them; empty once every child is declared dead).

        In FT mode each wait carries a poll budget; on expiry the parent
        re-notifies the lagging children directly (with ``last_seq``, the
        highest notification already issued -- flags are monotonic, so
        this can never advance a child prematurely) and, once
        :data:`RENOTIFY_BUDGETS` budgets have expired, declares the
        remaining laggards crashed and stops waiting on them for good.
        """
        cfg = self.config
        if not cfg.ft:
            return (
                yield from cc.wait_flags(
                    done, lambda vs, f=floor: all(v.seq >= f for v in vs)
                )
            )
        retries = 0
        while True:
            live = [i for i in range(len(children)) if children[i] not in dead]
            if not live:
                return []
            flags = [done[i] for i in live]
            try:
                return (
                    yield from cc.wait_flags(
                        flags,
                        lambda vs, f=floor: all(v.seq >= f for v in vs),
                        timeout=cfg.ft_flag_timeout,
                        site="oc.done",
                    )
                )
            except SimTimeoutError:
                lag = [
                    i for i in live
                    if cc.flag_peek(done[i]).seq < floor
                ]
                if retries >= RENOTIFY_BUDGETS:
                    for i in lag:
                        dead.add(children[i])
                        cc.trace(
                            "oc.ft.child_dead",
                            child=children[i], floor=floor,
                        )
                        cc.metric_inc("oc.ft.children_declared_dead")
                    continue  # re-check: the others may already be done
                retries += 1
                for i in lag:
                    cc.trace(
                        "oc.ft.renotify",
                        child=children[i], seq=last_seq,
                    )
                    cc.metric_inc("oc.ft.renotifies")
                    yield from cc.flag_set_acked(
                        children[i], self.notify, FlagValue(0, last_seq),
                        retry=cfg.ft_retry,
                    )

    # -- notification helpers -----------------------------------------------

    def _notify(
        self,
        cc: "CoreComm",
        tree: PropagationTree,
        family: NotificationTree,
        family_children: list[int],
        slot: int,
        seq: int,
        dead: frozenset[int] | set[int] = frozenset(),
        tag: int = 0,
    ) -> Generator:
        """Set the notifyFlag of this core's notification children within
        ``family`` (slot 0 = family parent, slots 1.. = children).

        ``tag`` is 0 for chunk notifications; the service commit round
        relays its COMMIT_OK / COMMIT_RETRY tag through the same trees.

        Once any child is suspected dead (FT mode), the family parent
        falls back from the relay tree to direct fan-out over the live
        children: the relay tree depends on every sibling forwarding, a
        property dead cores no longer have.
        """
        if dead and slot == 0:
            for target_rank in family_children:
                if target_rank in dead:
                    continue
                yield from self._set_flag(
                    cc, target_rank, self.notify, FlagValue(tag, seq)
                )
            return
        for target_slot in family.notify_targets(slot):
            target_rank = family_children[target_slot - 1]
            if target_rank in dead:
                continue
            yield from self._set_flag(
                cc, target_rank, self.notify, FlagValue(tag, seq)
            )

    def _wait_notify(
        self, cc: "CoreComm", seq: int
    ) -> Generator[object, object, FlagValue]:
        timeout = self.config.ft_notify_timeout if self.config.ft else None
        if self.config.notify_mode is NotifyMode.INTERRUPT:
            # Event-driven wake-up plus a fixed handler cost: no sweep.
            vals = yield from cc.wait_flags(
                [self.notify], lambda v: v[0].seq >= seq, sweep_flags=0,
                timeout=timeout, site="oc.notify",
            )
            yield from cc.compute(IRQ_HANDLER)
        else:
            vals = yield from cc.wait_flags(
                [self.notify], lambda v, s=seq: v[0].seq >= s,
                timeout=timeout, site="oc.notify",
            )
        return vals[0]
