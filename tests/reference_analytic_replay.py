"""The per-rank analytic replay, kept as the oracle for the level-synchronous one.

This is the replay that lived in ``repro.scc.analytic`` before the
engine started stepping whole dependency levels at a time: all tree
positions one rank after the other, every lane masked with
``np.where(active, ...)``.  ``_mem_read_total``, ``_wait``,
``_flag_write`` and ``_replay`` are that commit's methods verbatim, and
the cold-miss table is refilled with its scalar loop, so nothing the
oracle computes goes through the code under test -- only the geometry
and the per-position schedule (``line_cost``, ``_sched``, ...) are
shared.  ``tests/test_analytic_levels.py`` drives both side by side.
"""

from __future__ import annotations

import numpy as np

from repro.scc.analytic import AnalyticEngine, AnalyticUnsupported
from repro.scc.config import CACHE_LINE


class ReferenceReplayEngine(AnalyticEngine):
    """An :class:`AnalyticEngine` whose ``_replay`` walks ``_sched`` one
    rank at a time."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        P, chunk_lines = self.size, self.chunk_lines
        # Cold-miss read totals, accumulated line by line exactly as
        # Core.mem_read's loop does (repeated float addition is not the
        # same float as multiplication; bit-exactness needs the loop).
        loop = np.empty((P, chunk_lines + 1))
        for r in range(P):
            acc, per = 0.0, float(self.mem_read_line[r])
            loop[r, 0] = 0.0
            for m in range(1, chunk_lines + 1):
                acc += per
                loop[r, m] = acc
        self._mem_read_loop = loop

    def _mem_read_total(self, rank: int, m: np.ndarray) -> np.ndarray:
        """Cold read of ``m`` lines from private memory (Formula 6 with
        the L1 model's loop accumulation)."""
        return self._mem_read_loop[rank][m]

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
