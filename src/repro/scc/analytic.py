"""ANALYTIC mode: whole-broadcast evaluation without the event kernel.

The discrete-event simulator exists to model *contention*; with
contention off (``ContentionMode.IDEAL``) every primitive's duration is a
closed-form expression in the Table-1 constants (Formulas 1-12) and the
protocol's schedule is a deterministic dependency graph over them.  This
module evaluates that graph directly: an :class:`AnalyticEngine` derives
the chip geometry (hop-distance matrix, per-line MPB/memory costs) and
the OC-Bcast tree schedule once per distinct set of arguments -- a
memoised, read-only plan that every engine built with equal arguments
shares -- then *replays* the protocol as a
per-rank clock recurrence entirely in numpy -- chunk by chunk, and
within a chunk one data-parallel step per *dependency level*: a rank
waits only for the one rank that notifies it, so all ranks equally far
down the notification chains advance together, as one (ranks, lanes)
block, vectorised over a whole batch of message sizes at once.  The
steps per chunk follow the critical path of Formula 13 (8-12 on the
48-core chip, 34 on a 1,024-core mesh), not the core count.  No
simulator processes, no event queue, no byte movement.

The replay reproduces the IDEAL-mode simulator **bit-exactly** (the test
suite asserts float equality): every ``yield timeout(d)`` of the
simulated protocol corresponds to one addition to the rank's clock lane,
performed in the same order with the same operands, including the
polling cost model of :meth:`repro.rcce.endpoint.Endpoint.wait_flags` --

- a waiter entering at ``T`` pays one ``t_poll`` entry charge and
  returns at ``T + t_poll`` when the awaited write already landed;
- otherwise it sleeps until the satisfying write lands at ``W`` and
  returns at ``W + (0.5 * nscan + 1) * t_poll`` (the sweep detection
  charge) --

and the L1 model (every staged line is a cold miss within a broadcast,
accumulated in the simulator's loop order).  Because EXACT-mode port
queueing perturbs OC-Bcast latency by under ~1.2% at SCC scale (the tree
fan-out is chosen *below* the contention knee -- Section 3.3 of the
paper), the analytic result also tracks EXACT mode within the 2% bound
that :mod:`tests.test_analytic` enforces on every sweep point.

Scope: the plain and FT (acked-flag) OC-Bcast protocols, FLAGS or
INTERRUPT notification, leaf-direct fetch, any tree order, any geometry,
``jitter == 0``.  Anything the engine cannot express exactly --
jitter, integrity headers, service/byz rounds, fault plans -- raises
:class:`AnalyticUnsupported` so callers fall back to the event kernel;
the adaptive-fidelity campaign scheduler
(:meth:`repro.bench.FaultCampaign.run_trials`) is built on exactly that
contract.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral
from typing import NamedTuple, Sequence

import numpy as np

from ..core.ocbcast import FT_NOTIFY_TIMEOUT, IRQ_HANDLER
from ..core.trees import NotificationTree, PropagationTree
from . import costs
from .config import CACHE_LINE, SccConfig
from .mesh import Mesh

__all__ = [
    "AnalyticEngine",
    "AnalyticResult",
    "AnalyticUnsupported",
    "analytic_supported",
]


class AnalyticUnsupported(RuntimeError):
    """The requested configuration needs the event kernel.

    Raised when a config or protocol option falls outside what the
    closed-form replay models exactly (jitter, integrity/service modes,
    FT poll budgets that a fault-free wait would overrun, non-OC
    algorithms).  Callers treat this as "run the simulator instead".
    """


def analytic_supported(config: SccConfig) -> str | None:
    """Why ``config`` cannot be evaluated analytically (None when it can)."""
    if config.jitter != 0.0:
        return "jitter desynchronises cores; only the event kernel models it"
    return None


@dataclass(frozen=True)
class AnalyticResult:
    """One analytically evaluated broadcast experiment.

    Mirrors :class:`repro.bench.harness.BcastResult`'s measurement
    surface (per-iteration latencies, steady-state span) and adds the
    per-rank completion times and the counter summary the simulator
    would have accumulated in its metrics registry.
    """

    nbytes: int
    latencies: tuple[float, ...]
    #: Per-rank broadcast-return times (last measured iteration), on the
    #: same global clock the simulator's trace records use.
    completion_times: tuple[float, ...]
    #: Root's entry time into the first measured iteration.
    enter_time: float
    #: Root enters first measured iteration -> last rank leaves last one.
    measured_span: float
    #: The counters an IDEAL simulation of the same run would report
    #: (``oc.bcasts``, ``oc.chunks``, ``oc.bytes``, ``flags.writes``,
    #: ``rcce.puts/gets/put_bytes/get_bytes``).
    metrics: dict[str, float]

    @property
    def mean_latency(self) -> float:
        if len(self.latencies) == 1:  # the mean of one float is that float
            return self.latencies[0]
        return float(np.mean(self.latencies))

    @property
    def throughput_mb_s(self) -> float:
        return self.nbytes / self.mean_latency if self.mean_latency else 0.0

    @property
    def steady_throughput_mb_s(self) -> float:
        if self.measured_span <= 0.0:
            return 0.0
        return len(self.latencies) * self.nbytes / self.measured_span

    @property
    def cache_lines(self) -> int:
        return -(-self.nbytes // CACHE_LINE)


class _Group(NamedTuple):
    """The tree positions of one dependency level that run the same
    straight-line code, as index and cost arrays (see :class:`_Plan`)."""

    ranks: np.ndarray  # (n,)
    children: np.ndarray | None  # (n, n_children); None for leaves
    #: One ``(targets (n,), line_cost[ranks, targets] (n, 1))`` per write.
    relay: tuple[tuple[np.ndarray, np.ndarray], ...]
    own: tuple[tuple[np.ndarray, np.ndarray], ...]
    line_parent: np.ndarray  # (n, 1)
    line_self: np.ndarray  # (n, 1)
    mem_write: np.ndarray  # (n, 1)
    done_detect: float


def _freeze(value: object) -> None:
    """Mark every array in ``value`` -- an array, or tuples of them --
    read-only."""
    if type(value) is np.ndarray:
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)


class _Plan:
    """Every attribute of an :class:`AnalyticEngine` built with these
    (validated) arguments: the arguments themselves, the cached geometry
    and the tree schedule with its level groups and drains.

    A pure function of the arguments, so :data:`_plan` memoises it and
    each engine starts as a copy of its plan's attributes.  Plans are
    shared, so every array is ``writeable=False``.
    """

    def __init__(
        self,
        config: SccConfig,
        tree: PropagationTree,
        chunk_lines: int,
        num_buffers: int,
        notify_degree: int,
        leaf_direct: bool,
        interrupt_notify: bool,
        ft: bool,
        ft_ack_data: bool,
        ft_flag_timeout: float,
    ) -> None:
        self.config = cfg = config
        self.k = tree.k
        self.chunk_lines = chunk_lines
        self.chunk_bytes = chunk_lines * CACHE_LINE
        self.num_buffers = num_buffers
        self.notify_degree = notify_degree
        self.root = tree.root
        self.leaf_direct = leaf_direct
        self.interrupt_notify = interrupt_notify
        self.irq_handler = IRQ_HANDLER
        self.ft = ft
        self.ft_ack_data = ft_ack_data
        self.ft_flag_timeout = ft_flag_timeout
        self.ft_notify_timeout = FT_NOTIFY_TIMEOUT

        P = cfg.num_cores
        self.size = P
        self.tree = tree

        # -- cached geometry (Formulas 2/3/5/6 as arrays) -------------------
        # The Mesh is the single source of geometric truth (MC placement,
        # the +1 local-router hop); links off means no simulator needed.
        mesh = Mesh(None, cfg.with_(model_links=False))
        tiles = np.array(
            [mesh.tile_of_core(c) for c in range(P)], dtype=np.int64
        )
        hops = (
            np.abs(tiles[:, None, 0] - tiles[None, :, 0])
            + np.abs(tiles[:, None, 1] - tiles[None, :, 1])
            + 1
        )
        #: (P, P) uncontended cost of one cache-line MPB access i -> j.
        self.line_cost = costs.mpb_line(cfg, hops)
        mem_dist = np.array([mesh.mem_distance(c) for c in range(P)])
        self.mem_read_line = costs.mem_read_line(cfg, mem_dist)
        self.mem_write_line = costs.mem_write_line(cfg, mem_dist)
        # Cold-miss read totals, accumulated line by line exactly as
        # Core.mem_read's loop does (repeated float addition is not the
        # same float as multiplication; bit-exactness needs the loop).
        # cumsum is add.accumulate -- strictly sequential, acc[m] =
        # acc[m - 1] + per starting from per == 0.0 + per -- so it *is*
        # that loop.
        self._mem_read_loop = np.zeros((P, chunk_lines + 1))
        np.cumsum(
            np.broadcast_to(self.mem_read_line[:, None], (P, chunk_lines)),
            axis=1, out=self._mem_read_loop[:, 1:],
        )

        # -- cached schedule ------------------------------------------------
        # Per tree position: who I notify, who relays to me, my waits.
        t_poll = cfg.t_poll
        families: dict[int, NotificationTree] = {}

        def family(n: int) -> NotificationTree:
            if n not in families:
                families[n] = NotificationTree(n, notify_degree)
            return families[n]

        # One notify flag per waiter; an interrupt wait sweeps none.
        notify_detect = costs.poll_detect(t_poll, 0 if interrupt_notify else 1)
        kids = {r: self.tree.children_of(r) for r in self.tree.ranks}
        self._sched: list[dict] = []
        for r in self.tree.ranks:  # position order, root first
            parent = self.tree.parent_of(r)
            children = kids[r]
            fam = family(len(children))
            own_targets = [children[t - 1] for t in fam.notify_targets(0)]
            relay_targets: list[int] = []
            if parent is not None:
                siblings = kids[parent]
                my_slot = self.tree.child_index(r) + 1
                relay_targets = [
                    siblings[t - 1]
                    for t in family(len(siblings)).notify_targets(my_slot)
                ]
            self._sched.append({
                "rank": r,
                "parent": parent,
                "children": children,
                "own_targets": own_targets,
                "relay_targets": relay_targets,
                # Detection charges of Endpoint.wait_flags.
                "done_detect": costs.poll_detect(t_poll, len(children)),
                "notify_detect": notify_detect,
                "is_leaf": not children,
            })
        self._root_ent = self._sched[0]
        self._notify_detect = self._root_ent["notify_detect"]
        self._n_leaves = sum(1 for ent in self._sched if ent["is_leaf"])
        # FT poll budgets a fault-free wait must respect (see _wait).
        self._flag_budget = ft_flag_timeout if ft else None
        self._notify_budget = self.ft_notify_timeout if ft else None
        # Per-chunk counter factors (see AnalyticEngine._metrics): two
        # gets per node -- except leaves that fetch straight to memory,
        # one get and the payload bytes only once.
        self._flag_writes = 2 * (P - 1)
        self._gets = 2 * (P - 1) - (self._n_leaves if leaf_direct else 0)

        # -- dependency levels ----------------------------------------------
        # Within one chunk a position depends on exactly one other: the
        # rank whose notify write it waits for (its parent for the first
        # ``notify_degree`` children, a sibling for the rest).  Recycle
        # waits read the doneFlags of chunk ``idx - num_buffers``, and
        # this chunk's doneFlags are read by later chunks and the final
        # drain.  So level(root) = 0, level(r) = level(notifier(r)) + 1,
        # and all positions of one level can be stepped at once.
        # Notifiers sit at lower positions, so index order resolves it.
        level = {self.root: 0}
        for ent in self._sched:
            for t in ent["relay_targets"] + ent["own_targets"]:
                level[t] = level[ent["rank"]] + 1
        # Positions of one level that run the same straight-line code --
        # same number of relay writes, own writes and children (so the
        # children table is rectangular) -- form one group: one
        # data-parallel step over a (positions, lanes) block.
        keyed: dict[tuple[int, int, int, int], list[dict]] = {}
        for ent in self._sched[1:]:
            key = (
                level[ent["rank"]], len(ent["relay_targets"]),
                len(ent["own_targets"]), len(ent["children"]),
            )
            keyed.setdefault(key, []).append(ent)
        self._groups = [self._group(keyed[key]) for key in sorted(keyed)]
        # The final drain wait has no dependencies at all: one step per
        # distinct family size, root included.
        by_family: dict[int, list[dict]] = {}
        for ent in self._sched:
            if ent["children"]:
                by_family.setdefault(len(ent["children"]), []).append(ent)
        self._drains = [
            (
                np.array([ent["rank"] for ent in ents]),
                np.array([ent["children"] for ent in ents]),
                ents[0]["done_detect"],
            )
            for ents in by_family.values()
        ]
        _freeze((
            self.line_cost, self.mem_read_line, self.mem_write_line,
            self._mem_read_loop, *self._groups, *self._drains,
        ))

    def _group(self, ents: list[dict]) -> _Group:
        """Index and cost arrays of one level group (see ``__init__``).
        Per-rank costs are ``(n, 1)`` columns, so they broadcast against
        the group's ``(n, lanes)`` clock block."""
        line = self.line_cost
        R = np.array([ent["rank"] for ent in ents])
        parent = np.array([ent["parent"] for ent in ents])

        def writes(field: str) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
            targets = np.array([ent[field] for ent in ents]).reshape(len(ents), -1)
            return tuple((T, line[R, T][:, None]) for T in targets.T)

        children = ents[0]["children"]
        return _Group(
            ranks=R,
            children=(
                np.array([ent["children"] for ent in ents]) if children else None
            ),
            relay=writes("relay_targets"),
            own=writes("own_targets"),
            line_parent=line[R, parent][:, None],
            line_self=line[R, R][:, None],
            mem_write=self.mem_write_line[R][:, None],
            done_detect=ents[0]["done_detect"],
        )


#: The plans of the last few argument sets.  Bounded: a 1,024-core plan
#: holds an 8 MB line-cost matrix.
_plan = lru_cache(maxsize=16)(_Plan)


class AnalyticEngine:
    """Closed-form OC-Bcast evaluator over a cached plan.

    Everything that depends only on the arguments -- the (P, P) per-line
    MPB cost matrix, per-core memory costs, the cold-miss
    read-accumulation table, and the per-position notification/relay
    schedule grouped into dependency levels -- is a :class:`_Plan`,
    derived once per distinct set of arguments and shared by every
    engine built with equal ones: construction is validation plus a
    cache lookup, and each :meth:`evaluate` call is pure array
    arithmetic.  One engine is reusable across any number of
    evaluations, like one :class:`repro.core.OcBcast` instance is
    reusable across broadcasts.
    """

    def __init__(
        self,
        config: SccConfig | None = None,
        *,
        k: int = 7,
        chunk_lines: int = 96,
        num_buffers: int = 2,
        notify_degree: int = 2,
        root: int = 0,
        order: Sequence[int] | None = None,
        leaf_direct_to_memory: bool = False,
        interrupt_notify: bool = False,
        ft: bool = False,
        ft_ack_data: bool = False,
        ft_flag_timeout: float = 300.0,
    ) -> None:
        cfg = config or SccConfig()
        reason = analytic_supported(cfg)
        if reason is not None:
            raise AnalyticUnsupported(reason)
        counts = (k, chunk_lines, num_buffers, notify_degree)
        if not all(isinstance(n, Integral) and n >= 1 for n in counts):
            raise ValueError(
                "k, chunk_lines, num_buffers, notify_degree must be whole "
                "numbers >= 1"
            )
        if not ft_flag_timeout > 0:  # NaN included
            raise ValueError("FT timeouts must be > 0")
        # Every check runs before the lookup, so no bad key reaches the
        # cache, and every key is a builtin int, float or bool, so equal
        # arguments (300 and 300.0, numpy scalars) meet in one plan.  The
        # tree checks root and order and is the key's normal form of
        # both: an empty order, an array and a tuple of the same ranks,
        # or the default placement spelt out, are one tree.
        tree = PropagationTree(
            cfg.num_cores, int(k), operator.index(root),
            None if order is None else list(map(operator.index, order)),
        )
        plan = _plan(
            cfg, tree, int(chunk_lines), int(num_buffers), int(notify_degree),
            bool(leaf_direct_to_memory), bool(interrupt_notify), bool(ft),
            bool(ft_ack_data), float(ft_flag_timeout),
        )
        # A copy of the plan's attributes: rebinding one (as a subclass
        # may) never reaches the shared plan.  One setattr each, always
        # in the same order, keeps CPython's shared-key instance layout;
        # a vars(self).update would give the engine a dict of its own
        # and slow every attribute read of the replay.
        for name, value in vars(plan).items():
            setattr(self, name, value)

    @property
    def replay_steps(self) -> int:
        """Data-parallel steps per chunk: the root plus one per level
        group.  Fixed at construction; the critical path of Formula 13
        bounds the number of levels, not the number of cores."""
        return 1 + len(self._groups)

    # -- building blocks ----------------------------------------------------
    #
    # Clocks live in (P, lanes) arrays -- one row per rank, one column per
    # batch lane -- so a group's block ``clk[R]`` gathers whole rows.
    # Fancy indexing copies: every step ends by writing its block back.

    def _mem_read_total(self, rank: int, m: np.ndarray) -> np.ndarray:
        """Cold read of ``m`` lines from private memory (Formula 6 with
        the L1 model's loop accumulation)."""
        return self._mem_read_loop[rank][m]

    def _wait(
        self,
        clk: np.ndarray,
        landed: np.ndarray,
        detect: float,
        budget: float | None,
    ) -> np.ndarray:
        """Return time of a flag wait entered at ``clk`` whose satisfying
        write lands at ``landed`` (see the module docstring for the
        polling cost model).  ``budget`` is the FT poll budget the
        fault-free wait must respect -- overrunning it would trigger
        re-notification in the simulator, which the replay refuses to
        model rather than mismodel."""
        entry = clk + self.config.t_poll
        if budget is not None:
            late = (landed > entry) & (landed > clk + budget)
            if late.any():
                raise AnalyticUnsupported(
                    f"a fault-free wait exceeds its {budget}-us FT poll "
                    f"budget at this scale; use the event kernel"
                )
        return np.where(landed <= entry, entry, landed + detect)

    def _flag_write(
        self, c: np.ndarray, cost, targets, *lands: np.ndarray
    ) -> None:
        """One notify/done flag write at per-line cost ``cost``, advancing
        the clock block ``c`` in place: the value lands (in every array
        of ``lands``, rows ``targets``) after ``o_put_mpb + cost``; FT
        mode pays the readback ack (one more remote line) before the
        writer continues.  Every flag has exactly one writer, so the
        scatter never collides."""
        c += self.config.o_put_mpb
        c += cost
        for land in lands:
            land[targets] = c
        if self.ft:
            c += cost

    # -- the replay ---------------------------------------------------------

    def _chunk(
        self,
        m: np.ndarray,
        root_read: np.ndarray,
        recycle: np.ndarray | None,
        clk: np.ndarray,
        notify_land: np.ndarray,
        slot: np.ndarray,
        last_done: np.ndarray,
    ) -> None:
        """One chunk of one broadcast for lanes that all carry it: the
        root, then every level group.  ``m`` is the chunk's line count
        per lane (as floats), ``root_read`` the root's cold read of it,
        ``recycle`` the doneFlag landings of the chunk whose buffer this
        one reuses; the four state arrays are updated in place."""
        cfg = self.config
        line = self.line_cost
        ft_budget = self._flag_budget
        acked = self.ft and self.ft_ack_data

        # -- root: (recycle) -> stage -> notify ----------------------------
        ent = self._root_ent
        r = self.root
        c = clk[r]
        if recycle is not None:
            c = self._wait(
                c, recycle[ent["children"]].max(axis=0),
                ent["done_detect"], ft_budget,
            )
        staged = m * line[r, r]
        c = c + cfg.o_put_mem
        c += root_read
        c += staged
        if acked:
            c += staged  # put_acked: readback of the staged lines
        for t in ent["own_targets"]:
            self._flag_write(c, line[r, t], t, notify_land)
        clk[r] = c

        # -- nodes, level by level: wait -> relay -> (recycle) -> fetch ->
        #    done -> notify -> copy out -------------------------------------
        for g in self._groups:
            R = g.ranks
            c = self._wait(
                clk[R], notify_land[R], self._notify_detect, self._notify_budget
            )
            if self.interrupt_notify:
                c += self.irq_handler
            for T, cost in g.relay:
                self._flag_write(c, cost, T, notify_land)
            if g.children is not None and recycle is not None:
                c = self._wait(
                    c, recycle[g.children].max(axis=1), g.done_detect, ft_budget
                )
            if self.leaf_direct and g.children is None:
                # Section 5.4: straight to off-chip memory.
                c += cfg.o_get_mem
                c += m * g.line_parent
                c += m * g.mem_write
                self._flag_write(c, g.line_parent, R, slot, last_done)
            else:
                own_mpb = m * g.line_self  # m lines to / from my own MPB
                c += cfg.o_get_mpb
                c += m * g.line_parent
                c += own_mpb
                if acked:
                    c += own_mpb  # get_acked readback
                self._flag_write(c, g.line_parent, R, slot, last_done)
                for T, cost in g.own:
                    self._flag_write(c, cost, T, notify_land)
                c += cfg.o_get_mem
                c += own_mpb
                c += m * g.mem_write
            clk[R] = c

    def _replay(
        self, sizes: np.ndarray, total_iters: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Replay ``total_iters`` back-to-back broadcasts for every batch
        lane; returns ``(enters, exits)`` of shapes ``(iters, B)`` (the
        root's entry per iteration) and ``(iters, B, P)``."""
        P = self.size
        B = len(sizes)
        root = self.root
        nb = self.num_buffers
        enters = np.zeros((total_iters, B))
        exits = np.zeros((total_iters, P, B))
        if P == 1:
            return enters, exits.transpose(0, 2, 1)  # bcast() returns immediately

        # Which lanes carry chunk ``idx`` and how many lines of it: the
        # same every iteration.  Lanes are independent and a lane that
        # ran out of chunks stays out, so a chunk only some lanes carry
        # runs on those lanes' columns alone (``act``) and scatters them
        # back -- the others keep their values without a mask anywhere.
        nchunks = -(-sizes // self.chunk_bytes)
        plan = []
        for idx in range(int(nchunks.max())):
            act = np.flatnonzero(idx < nchunks)
            span = np.minimum(sizes[act] - idx * self.chunk_bytes, self.chunk_bytes)
            m = -(-span // CACHE_LINE)
            plan.append((
                None if len(act) == B else act,
                m.astype(np.float64), self._mem_read_total(root, m),
            ))

        clk = np.zeros((P, B))
        notify_land = np.zeros((P, B))
        ring = [np.zeros((P, B)) for _ in range(nb + 1)]
        last_done = np.zeros((P, B))

        for it in range(total_iters):
            enters[it] = clk[root]
            for idx, (act, m, root_read) in enumerate(plan):
                slot = ring[idx % (nb + 1)]
                recycle = ring[(idx - nb) % (nb + 1)] if idx >= nb else None
                state = (clk, notify_land, slot, last_done)
                if act is None:
                    self._chunk(m, root_read, recycle, *state)
                    continue
                if recycle is not None:
                    recycle = recycle[:, act]
                sub = [a[:, act] for a in state]
                self._chunk(m, root_read, recycle, *sub)
                for a, part in zip(state, sub):
                    a[:, act] = part
            # Final buffer-drain wait: every rank with children waits for
            # their final-chunk doneFlags (all lanes had >= 1 chunk).
            for R, children, detect in self._drains:
                clk[R] = self._wait(
                    clk[R], last_done[children].max(axis=1), detect,
                    self._flag_budget,
                )
            exits[it] = clk
        return enters, exits.transpose(0, 2, 1)

    # -- public API ---------------------------------------------------------

    def evaluate(
        self, nbytes: int, *, iters: int = 1, warmup: int = 0
    ) -> AnalyticResult:
        """Evaluate one broadcast experiment (same measurement protocol as
        :func:`repro.bench.run_broadcast`: ``warmup + iters`` back-to-back
        broadcasts on one chip, warm-ups discarded)."""
        return self.evaluate_batch([nbytes], iters=iters, warmup=warmup)[0]

    def evaluate_batch(
        self,
        sizes: Sequence[int],
        *,
        iters: int = 1,
        warmup: int = 0,
    ) -> list[AnalyticResult]:
        """Evaluate a whole batch of message sizes in one vectorised pass.

        Every batch lane is an independent experiment (its own chip, as
        :func:`sweep_broadcast` builds); lanes share the chunk-major
        evaluation loop, so the per-call overhead is paid once for the
        batch -- the reason dense sweeps are where the speedup lives.
        """
        whole = isinstance(iters, Integral) and isinstance(warmup, Integral)
        if not whole or iters < 1 or warmup < 0:
            raise ValueError("need whole numbers iters >= 1 and warmup >= 0")
        raw = np.asarray(list(sizes))
        if raw.ndim != 1 or len(raw) == 0:
            raise ValueError("sizes must be a non-empty 1-D sequence")
        # astype(int64) would truncate 100.7 to 100 and simulate that.
        integral = raw.dtype.kind in "iu" or (
            raw.dtype.kind == "f"
            and bool(np.all(np.isfinite(raw) & (raw == np.floor(raw))))
        )
        if not integral:
            raise ValueError("every message size must be a whole number of bytes")
        sizes_arr = raw.astype(np.int64)
        if bool(np.any(sizes_arr <= 0)):
            raise ValueError("every message size must be > 0")
        total = warmup + iters
        enters, exits = self._replay(sizes_arr, total)
        last = exits.max(axis=2)
        first_enter = enters[warmup]
        # A frozen dataclass's __init__ is a Python call making one
        # object.__setattr__ per field; these are the same calls, in
        # field order, without the call.  (Assigning a whole __dict__
        # instead would give every result a dict of its own.)
        new, assign = object.__new__, object.__setattr__
        sizes_list = sizes_arr.tolist()
        results = []
        for nbytes, lat, done, entered, span, metrics in zip(
            sizes_list,
            (last[warmup:] - enters[warmup:]).T.tolist(),
            exits[total - 1].tolist(),
            first_enter.tolist(),
            (last[total - 1] - first_enter).tolist(),
            self._metrics(sizes_list, total),
        ):
            result = new(AnalyticResult)
            assign(result, "nbytes", nbytes)
            assign(result, "latencies", tuple(lat))
            assign(result, "completion_times", tuple(done))
            assign(result, "enter_time", entered)
            assign(result, "measured_span", span)
            assign(result, "metrics", metrics)
            results.append(result)
        return results

    def _metrics(self, sizes: list[int], iters: int) -> list[dict[str, float]]:
        """Per message size, the counters an IDEAL simulation of ``iters``
        broadcasts would accumulate -- warm-ups included, as the kernel
        counts every protocol operation (validated against the simulator's
        :class:`~repro.obs.MetricsRegistry` in the test suite)."""
        if self.size == 1:
            return [{} for _ in sizes]
        # Every counter is a plan constant times the chunks or the bytes
        # of ``iters`` broadcasts: exact integers, then floats.
        bcasts = float(iters)
        flag_writes, gets, chunk_bytes = (
            self._flag_writes, self._gets, self.chunk_bytes
        )
        out = []
        for nbytes in sizes:
            n = iters * -(-nbytes // chunk_bytes)
            v = iters * nbytes
            chunks, volume = float(n), float(v)
            out.append({
                "oc.bcasts": bcasts,
                "oc.chunks": chunks,
                "oc.bytes": volume,
                "flags.writes": float(flag_writes * n),
                "rcce.puts": chunks,
                "rcce.put_bytes": volume,
                "rcce.gets": float(gets * n),
                "rcce.get_bytes": float(gets * v),
            })
        return out
