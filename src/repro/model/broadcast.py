"""Formulas 13-16: analytic broadcast latency and throughput.

Two fidelity levels per algorithm:

- ``*_simple`` -- the paper's printed critical-path formulas (Figure 7),
  which ignore notification/synchronisation costs.
- ``*_complete`` -- our reconstruction of the "complete formulas" the
  paper defers to its full version: the same data-movement critical path
  plus flag writes, polling detection delays, notification-tree depth and
  multi-chunk pipelining.  The accounting matches the simulator's
  protocol step by step, so Section 5's model-vs-experiment comparison
  can be reproduced (Figure 6 vs Figure 8).

Message sizes ``m`` are in cache lines; results in microseconds (latency)
or MB/s (throughput; 32-byte cache lines, 1 MB = 1e6 bytes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.trees import NotificationTree, kary_depth
from ..scc import costs
from ..scc.config import CACHE_LINE
from .params import ModelParams
from .primitives import (
    c_get_mem,
    c_get_mpb,
    c_mem_read,
    c_mpb_write,
    c_put_mem,
)

#: The paper's OC-Bcast chunk size in cache lines.
M_OC = 96
#: RCCE's payload buffer in cache lines.
M_RCCE = 251


def _chunk_sizes(m: int, chunk: int) -> list[int]:
    """Chunk decomposition of an m-cache-line message."""
    if m <= 0:
        return []
    full, rest = divmod(m, chunk)
    return [chunk] * full + ([rest] if rest else [])


def flag_write_cost(p: ModelParams, d: int = 1) -> float:
    """Setting a remote flag: a 1-line put from a register/L1 source."""
    return p.o_put_mpb + c_mpb_write(p, d)


def detect_cost(p: ModelParams, nflags: int = 1) -> float:
    """Noticing a newly set flag while sweeping ``nflags`` flags: half a
    sweep on average plus the final read (the simulator's model)."""
    return costs.poll_detect(p.t_poll, nflags)


def notify_hop(p: ModelParams, nflags: int = 1, d: int = 1) -> float:
    """One notification edge: flag write plus detection at the waiter."""
    return flag_write_cost(p, d) + detect_cost(p, nflags)


# ---------------------------------------------------------------------------
# OC-Bcast latency
# ---------------------------------------------------------------------------

def ocbcast_node_cycle(
    p: ModelParams, c: int, k: int, *, notify_degree: int = 2,
    d_mpb: int = 1, d_mem: int = 1,
) -> float:
    """Steady-state per-chunk cycle of a non-root node (the pipeline
    bottleneck): detection, sibling relays, MPB get, doneFlag, own-child
    notifications, memory get."""
    relays = notify_degree  # worst case: a node relays to d siblings
    return (
        detect_cost(p, 1)
        + relays * flag_write_cost(p, d_mpb)
        + c_get_mpb(p, c, d_mpb)
        + flag_write_cost(p, d_mpb)           # doneFlag at the parent
        + notify_degree * flag_write_cost(p, d_mpb)  # own children
        + c_get_mem(p, c, d_mpb, d_mem)
    )


def ocbcast_latency_complete(
    P: int, m: int, k: int, p: ModelParams, *, chunk: int = M_OC,
    notify_degree: int = 2, d_mpb: int = 1, d_mem: int = 1,
) -> float:
    """Complete OC-Bcast latency: data path + notification trees +
    polling + pipelining, mirroring the implemented protocol."""
    if P < 1:
        raise ValueError("P must be >= 1")
    if m <= 0 or P == 1:
        return 0.0
    chunks = _chunk_sizes(m, chunk)
    depth = kary_depth(P, k)
    first = chunks[0]
    nchild_root = min(k, P - 1)
    notif_depth = NotificationTree(nchild_root, notify_degree).depth()

    # First chunk reaches the deepest leaf: root staging, then per level a
    # notification chain down the family tree plus the parallel MPB get.
    lat = c_put_mem(p, first, d_mem, d_mpb)
    for _ in range(depth):
        lat += notif_depth * notify_hop(p, 1, d_mpb) + c_get_mpb(p, first, d_mpb)
    lat += c_get_mem(p, first, d_mpb, d_mem)

    # Remaining chunks drain at the bottleneck node's cycle.
    for c in chunks[1:]:
        lat += ocbcast_node_cycle(
            p, c, k, notify_degree=notify_degree, d_mpb=d_mpb, d_mem=d_mem
        )

    # The root may return last for large k: it stages every chunk and then
    # polls its k doneFlags (the paper's "47 flags to poll" effect).
    root_finish = 0.0
    for c in chunks:
        root_finish += c_put_mem(p, c, d_mem, d_mpb) + notify_degree * flag_write_cost(p, d_mpb)
    root_finish += (
        notif_depth * notify_hop(p, 1, d_mpb)
        + c_get_mpb(p, chunks[-1], d_mpb)
        + flag_write_cost(p, d_mpb)
        + detect_cost(p, nchild_root)
    )
    return max(lat, root_finish)


# ---------------------------------------------------------------------------
# Binomial-tree latency
# ---------------------------------------------------------------------------

def binomial_levels(P: int) -> int:
    return max(0, math.ceil(math.log2(P))) if P > 1 else 0


def binomial_latency_complete(
    P: int, m: int, p: ModelParams, *, d_mpb: int = 1, d_mem: int = 1,
    payload: int = M_RCCE,
) -> float:
    """Binomial latency including RCCE chunking (251-line payload buffer)
    and the sent/ack flag handshakes of every send/recv pair."""
    if P < 1:
        raise ValueError("P must be >= 1")
    if m <= 0 or P == 1:
        return 0.0
    levels = binomial_levels(P)
    sync = 2 * (flag_write_cost(p, d_mpb) + detect_cost(p, 1))  # sent + ack
    lat = m * c_mem_read(p, d_mem)  # root's cold read, charged once
    for c in _chunk_sizes(m, payload):
        per_level = (
            p.o_put_mem
            + c * c_mpb_write(p, d_mpb)
            + c_get_mem(p, c, d_mpb, d_mem)
            + sync
        )
        lat += levels * per_level
    return lat


# ---------------------------------------------------------------------------
# Throughput (Formulas 15-16)
# ---------------------------------------------------------------------------

def _to_mb_per_s(cache_lines: float, microseconds: float) -> float:
    return (cache_lines * CACHE_LINE) / microseconds  # B/us == MB/s


def ocbcast_throughput_simple(
    p: ModelParams, *, chunk: int = M_OC, d_mpb: int = 1, d_mem: int = 1,
) -> float:
    """Formula 15: pipeline bottleneck = one MPB get + one memory get per
    chunk at every non-root node.  Independent of k."""
    cycle = c_get_mpb(p, chunk, d_mpb) + c_get_mem(p, chunk, d_mpb, d_mem)
    return _to_mb_per_s(chunk, cycle)


def ocbcast_throughput_complete(
    p: ModelParams, k: int = 7, *, chunk: int = M_OC, notify_degree: int = 2,
    d_mpb: int = 1, d_mem: int = 1,
) -> float:
    """Peak throughput with flag/notification costs in the node cycle
    (mildly k-dependent, as in the paper's Table 2)."""
    cycle = ocbcast_node_cycle(
        p, chunk, k, notify_degree=notify_degree, d_mpb=d_mpb, d_mem=d_mem
    )
    # The root's cycle (staging + notifications + doneFlag polling) can
    # dominate for very large k.
    nchild = k
    root_cycle = (
        c_put_mem(p, chunk, d_mem, d_mpb)
        + notify_degree * flag_write_cost(p, d_mpb)
        + detect_cost(p, nchild)
    )
    return _to_mb_per_s(chunk, max(cycle, root_cycle))


def scatter_allgather_throughput_simple(
    P: int, p: ModelParams, *, chunk: int = M_OC, d_mpb: int = 1, d_mem: int = 1,
) -> float:
    """Formula 16 (unreduced form): a P*Moc message moves through a
    (P-1)-step scatter plus 2(P-1) allgather rounds; all but the first
    P send/recv pairs enjoy L1-cached sources."""
    if P < 2:
        raise ValueError("P must be >= 2")
    total = P * (
        c_put_mem(p, chunk, d_mem, d_mpb) + c_get_mem(p, chunk, d_mpb, d_mem)
    ) + (2 * P - 3) * (
        chunk * c_mpb_write(p, d_mpb) + c_get_mem(p, chunk, d_mpb, d_mem)
    )
    return _to_mb_per_s(P * chunk, total)


def scatter_allgather_throughput_complete(
    P: int, p: ModelParams, *, chunk: int = M_OC, d_mpb: int = 1, d_mem: int = 1,
) -> float:
    """Formula 16 plus per-pair flag handshakes."""
    if P < 2:
        raise ValueError("P must be >= 2")
    sync = 2 * (flag_write_cost(p, d_mpb) + detect_cost(p, 1))
    total = P * (
        c_put_mem(p, chunk, d_mem, d_mpb)
        + c_get_mem(p, chunk, d_mpb, d_mem)
        + sync
    ) + (2 * P - 3) * (
        chunk * c_mpb_write(p, d_mpb)
        + c_get_mem(p, chunk, d_mpb, d_mem)
        + sync
    )
    return _to_mb_per_s(P * chunk, total)


@dataclass(frozen=True)
class ThroughputTable:
    """The analytic comparison of the paper's Table 2 (MB/s)."""

    oc_k2: float
    oc_k7: float
    oc_k47: float
    scatter_allgather: float

    def as_dict(self) -> dict[str, float]:
        return {
            "OC-Bcast k=2": self.oc_k2,
            "OC-Bcast k=7": self.oc_k7,
            "OC-Bcast k=47": self.oc_k47,
            "scatter-allgather": self.scatter_allgather,
        }


def table2(P: int = 48, p: ModelParams = ModelParams(), complete: bool = True) -> ThroughputTable:
    """Reproduce Table 2 for ``P`` cores."""
    if complete:
        return ThroughputTable(
            oc_k2=ocbcast_throughput_complete(p, 2),
            oc_k7=ocbcast_throughput_complete(p, 7),
            oc_k47=ocbcast_throughput_complete(p, min(47, P - 1)),
            scatter_allgather=scatter_allgather_throughput_complete(P, p),
        )
    simple = ocbcast_throughput_simple(p)
    return ThroughputTable(
        oc_k2=simple,
        oc_k7=simple,
        oc_k47=simple,
        scatter_allgather=scatter_allgather_throughput_simple(P, p),
    )
