"""ANALYTIC mode: whole-broadcast evaluation without the event kernel.

The discrete-event simulator exists to model *contention*; with
contention off (``ContentionMode.IDEAL``) every primitive's duration is a
closed-form expression in the Table-1 constants (Formulas 1-12) and the
protocol's schedule is a deterministic dependency graph over them.  This
module evaluates that graph directly: an :class:`AnalyticEngine` caches
the chip geometry (hop-distance matrix, per-line MPB/memory costs) and
the OC-Bcast tree schedule once, then *replays* the protocol as a
per-rank clock recurrence -- chunk by chunk, tree level by tree level --
entirely in numpy, vectorised over a whole batch of message sizes at
once.  No simulator processes, no event queue, no byte movement.

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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.trees import NotificationTree, PropagationTree
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
        return float(np.mean(self.latencies))

    @property
    def min_latency(self) -> float:
        return float(np.min(self.latencies))

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


class AnalyticEngine:
    """Closed-form OC-Bcast evaluator over cached geometry.

    Construction precomputes everything that depends only on the chip
    and the tree -- the (P, P) per-line MPB cost matrix, per-core memory
    costs, the cold-miss read-accumulation table, and the per-position
    notification/relay schedule -- so each :meth:`evaluate` call is pure
    array arithmetic.  One engine is reusable across any number of
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
        irq_handler: float = 0.1,
        ft: bool = False,
        ft_ack_data: bool = False,
        ft_flag_timeout: float = 300.0,
        ft_notify_timeout: float = 10_000.0,
    ) -> None:
        cfg = config or SccConfig()
        reason = analytic_supported(cfg)
        if reason is not None:
            raise AnalyticUnsupported(reason)
        if k < 1 or chunk_lines < 1 or num_buffers < 1 or notify_degree < 1:
            raise ValueError("k, chunk_lines, num_buffers, notify_degree must be >= 1")
        self.config = cfg
        self.k = k
        self.chunk_lines = chunk_lines
        self.chunk_bytes = chunk_lines * CACHE_LINE
        self.num_buffers = num_buffers
        self.notify_degree = notify_degree
        self.root = root
        self.leaf_direct = leaf_direct_to_memory
        self.interrupt_notify = interrupt_notify
        self.irq_handler = irq_handler
        self.ft = ft
        self.ft_ack_data = ft_ack_data
        self.ft_flag_timeout = ft_flag_timeout
        self.ft_notify_timeout = ft_notify_timeout

        P = cfg.num_cores
        self.size = P
        self.tree = PropagationTree(
            P, k, root, tuple(order) if order else ()
        )

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
        self.line_cost = cfg.o_mpb + 2.0 * hops * cfg.l_hop
        mem_dist = np.array([mesh.mem_distance(c) for c in range(P)])
        self.mem_read_line = cfg.o_mem_r + 2.0 * mem_dist * cfg.l_hop
        self.mem_write_line = cfg.o_mem_w + 2.0 * mem_dist * cfg.l_hop
        # Cold-miss read totals, accumulated line by line exactly as
        # Core.mem_read's loop does (repeated float addition is not the
        # same float as multiplication; bit-exactness needs the loop).
        if cfg.model_l1:
            loop = np.empty((P, chunk_lines + 1))
            for r in range(P):
                acc, per = 0.0, float(self.mem_read_line[r])
                loop[r, 0] = 0.0
                for m in range(1, chunk_lines + 1):
                    acc += per
                    loop[r, m] = acc
            self._mem_read_loop: np.ndarray | None = loop
        else:
            self._mem_read_loop = None

        # -- cached schedule ------------------------------------------------
        # Per tree position: who I notify, who relays to me, my waits.
        # Positions are processed in index order each chunk, which is a
        # topological order of every intra-chunk dependency (parents and
        # notifier slots always have lower positions).
        t_poll = cfg.t_poll
        self._sched: list[dict] = []
        for pos in range(self.tree.size):
            r = self.tree.rank_at(pos)
            parent = self.tree.parent_of(r)
            children = self.tree.children_of(r)
            fam = NotificationTree(len(children), notify_degree)
            own_targets = [children[t - 1] for t in fam.notify_targets(0)]
            relay_targets: list[int] = []
            if parent is not None:
                siblings = self.tree.children_of(parent)
                my_slot = self.tree.child_index(r) + 1
                pfam = NotificationTree(len(siblings), notify_degree)
                relay_targets = [
                    siblings[t - 1] for t in pfam.notify_targets(my_slot)
                ]
            self._sched.append({
                "rank": r,
                "parent": parent,
                "children": children,
                "own_targets": own_targets,
                "relay_targets": relay_targets,
                # Detection charge of Endpoint.wait_flags, precomputed with
                # the simulator's exact expression.
                "done_detect": 0.5 * len(children) * t_poll + t_poll,
                "notify_detect": (
                    t_poll if interrupt_notify else 0.5 * 1 * t_poll + t_poll
                ),
                "is_leaf": not children,
            })

    # -- building blocks ----------------------------------------------------

    def _mem_read_total(self, rank: int, m: np.ndarray) -> np.ndarray:
        """Cold read of ``m`` lines from private memory (Formula 6 with
        the L1 model's loop accumulation)."""
        if self._mem_read_loop is not None:
            return self._mem_read_loop[rank][m]
        return m * float(self.mem_read_line[rank])

    def _wait(
        self,
        clk: np.ndarray,
        landed: np.ndarray,
        detect: float,
        active: np.ndarray,
        budget: float | None,
    ) -> np.ndarray:
        """Return time of a flag wait entered at ``clk`` whose satisfying
        write lands at ``landed`` (see the module docstring for the
        polling cost model).  ``budget`` is the FT poll budget the
        fault-free wait must respect -- overrunning it would trigger
        re-notification in the simulator, which the replay refuses to
        model rather than mismodel."""
        t_poll = self.config.t_poll
        entry = clk + t_poll
        if budget is not None:
            late = active & (landed > entry) & (landed > clk + budget)
            if bool(np.any(late)):
                raise AnalyticUnsupported(
                    f"a fault-free wait exceeds its {budget}-us FT poll "
                    f"budget at this scale; use the event kernel"
                )
        return np.where(landed <= entry, entry, landed + detect)

    def _flag_write(
        self,
        clk: np.ndarray,
        cost: float,
        land_col: np.ndarray,
        active: np.ndarray,
    ) -> np.ndarray:
        """One notify/done flag write at per-line cost ``cost``: the value
        lands after ``o_put_mpb + cost``; FT mode pays the readback ack
        (one more remote line) before the writer continues."""
        cfg = self.config
        clk = clk + cfg.o_put_mpb
        clk = clk + cost
        land_col[...] = np.where(active, clk, land_col)
        if self.ft:
            clk = clk + cost
        return clk

    # -- the replay ---------------------------------------------------------

    def _replay(
        self, sizes: np.ndarray, total_iters: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Replay ``total_iters`` back-to-back broadcasts for every batch
        lane; returns ``(enters, exits)`` of shapes ``(iters, B)`` (the
        root's entry per iteration) and ``(iters, B, P)``."""
        cfg = self.config
        P = self.size
        B = len(sizes)
        root = self.root
        nb = self.num_buffers
        enters = np.zeros((total_iters, B))
        exits = np.zeros((total_iters, B, P))
        if P == 1:
            return enters, exits  # bcast() returns immediately

        nchunks = -(-sizes // self.chunk_bytes)
        max_chunks = int(nchunks.max())
        clk = np.zeros((B, P))
        notify_land = np.zeros((B, P))
        ring = [np.zeros((B, P)) for _ in range(nb + 1)]
        last_done = np.zeros((B, P))
        line = self.line_cost
        ft_budget = self.ft_flag_timeout if self.ft else None
        notify_budget = self.ft_notify_timeout if self.ft else None

        for it in range(total_iters):
            enters[it] = clk[:, root]
            for idx in range(max_chunks):
                active = idx < nchunks
                if not bool(np.any(active)):
                    break
                span = np.clip(sizes - idx * self.chunk_bytes, 0, self.chunk_bytes)
                m = -(-span // CACHE_LINE)
                slot = ring[idx % (nb + 1)]
                recycle = ring[(idx - nb) % (nb + 1)] if idx >= nb else None
                for ent in self._sched:
                    r = ent["rank"]
                    parent = ent["parent"]
                    children = ent["children"]
                    c = clk[:, r]
                    if parent is None:
                        # -- root: (recycle) -> stage -> notify ------------
                        if children and recycle is not None:
                            W = recycle[:, children].max(axis=1)
                            c = self._wait(
                                c, W, ent["done_detect"], active, ft_budget
                            )
                        c = c + cfg.o_put_mem
                        if self.ft and self.ft_ack_data:
                            # put_acked: put + readback of the staged lines.
                            c = c + self._mem_read_total(r, m)
                            c = c + m * line[r, r]
                            c = c + m * line[r, r]
                        else:
                            c = c + self._mem_read_total(r, m)
                            c = c + m * line[r, r]
                        for t in ent["own_targets"]:
                            c = self._flag_write(
                                c, line[r, t], notify_land[:, t], active
                            )
                    else:
                        # -- node: wait -> relay -> (recycle) -> fetch ->
                        #    done -> notify -> copy out ---------------------
                        c = self._wait(
                            c, notify_land[:, r], ent["notify_detect"],
                            active, notify_budget,
                        )
                        if self.interrupt_notify:
                            c = c + self.irq_handler
                        for t in ent["relay_targets"]:
                            c = self._flag_write(
                                c, line[r, t], notify_land[:, t], active
                            )
                        if children and recycle is not None:
                            W = recycle[:, children].max(axis=1)
                            c = self._wait(
                                c, W, ent["done_detect"], active, ft_budget
                            )
                        if self.leaf_direct and ent["is_leaf"]:
                            # Section 5.4: straight to off-chip memory.
                            c = c + cfg.o_get_mem
                            c = c + m * line[r, parent]
                            c = c + m * float(self.mem_write_line[r])
                            c = self._flag_write(
                                c, line[r, parent], slot[:, r], active
                            )
                            last_done[:, r] = np.where(
                                active, slot[:, r], last_done[:, r]
                            )
                        else:
                            c = c + cfg.o_get_mpb
                            c = c + m * line[r, parent]
                            c = c + m * line[r, r]
                            if self.ft and self.ft_ack_data:
                                c = c + m * line[r, r]  # get_acked readback
                            c = self._flag_write(
                                c, line[r, parent], slot[:, r], active
                            )
                            last_done[:, r] = np.where(
                                active, slot[:, r], last_done[:, r]
                            )
                            for t in ent["own_targets"]:
                                c = self._flag_write(
                                    c, line[r, t], notify_land[:, t], active
                                )
                            c = c + cfg.o_get_mem
                            c = c + m * line[r, r]
                            c = c + m * float(self.mem_write_line[r])
                    clk[:, r] = np.where(active, c, clk[:, r])
            # Final buffer-drain wait: every rank with children waits for
            # their final-chunk doneFlags (all lanes had >= 1 chunk).
            every = np.ones(B, dtype=bool)
            for ent in self._sched:
                if not ent["children"]:
                    continue
                r = ent["rank"]
                W = last_done[:, ent["children"]].max(axis=1)
                clk[:, r] = self._wait(
                    clk[:, r], W, ent["done_detect"], every, ft_budget
                )
            exits[it] = clk
        return enters, exits

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
        if iters < 1 or warmup < 0:
            raise ValueError("need iters >= 1 and warmup >= 0")
        sizes_arr = np.asarray(list(sizes), dtype=np.int64)
        if sizes_arr.ndim != 1 or len(sizes_arr) == 0:
            raise ValueError("sizes must be a non-empty 1-D sequence")
        if bool(np.any(sizes_arr <= 0)):
            raise ValueError("every message size must be > 0")
        total = warmup + iters
        enters, exits = self._replay(sizes_arr, total)
        out: list[AnalyticResult] = []
        for b, nbytes in enumerate(sizes_arr.tolist()):
            lat = tuple(
                float(exits[i, b].max() - enters[i, b])
                for i in range(warmup, total)
            )
            out.append(AnalyticResult(
                nbytes=nbytes,
                latencies=lat,
                completion_times=tuple(exits[total - 1, b].tolist()),
                enter_time=float(enters[warmup, b]),
                measured_span=float(exits[total - 1, b].max() - enters[warmup, b]),
                metrics=self._metrics(nbytes, total),
            ))
        return out

    def _metrics(self, nbytes: int, iters: int) -> dict[str, float]:
        """The counters an IDEAL simulation of ``iters`` broadcasts would
        accumulate -- warm-ups included, as the kernel counts every
        protocol operation (validated against the simulator's
        :class:`~repro.obs.MetricsRegistry` in the test suite)."""
        P = self.size
        if P == 1:
            return {}
        nchunks = -(-nbytes // self.chunk_bytes)
        n_leaves = sum(1 for ent in self._sched if ent["is_leaf"])
        non_root = P - 1
        if self.leaf_direct:
            # Leaves fetch straight to memory: one get per chunk, payload
            # bytes only once.
            gets = (2 * (non_root - n_leaves) + n_leaves) * nchunks
            get_bytes = (2 * (non_root - n_leaves) + n_leaves) * nbytes
        else:
            gets = 2 * non_root * nchunks
            get_bytes = 2 * non_root * nbytes
        return {
            "oc.bcasts": float(iters),
            "oc.chunks": float(iters * nchunks),
            "oc.bytes": float(iters * nbytes),
            "flags.writes": float(iters * 2 * non_root * nchunks),
            "rcce.puts": float(iters * nchunks),
            "rcce.put_bytes": float(iters * nbytes),
            "rcce.gets": float(iters * gets),
            "rcce.get_bytes": float(iters * get_bytes),
        }
