"""Analytic design-space exploration beyond the paper's formulas.

The paper makes two design assertions without printed derivations:

1. "It can be shown analytically that a binary tree provides the lowest
   notification latency, when compared to trees of higher output
   degrees" (Section 4.1).  :func:`notification_latency` computes the
   critical-path latency of a d-ary notification tree over j children
   under the flag-cost model, and :func:`optimal_notify_degree` searches
   it -- showing binary is optimal when detection costs roughly match
   write costs, and by how little degree 3 loses (cf. the A1 ablation).
2. k is "chosen to avoid contention" while minimising depth (Sections
   3.3/5.2).  :func:`recommended_k` encodes that rule: the largest k at
   or below the contention threshold that still reduces tree depth.

:func:`osag_throughput` models the Section 5.4 one-sided
scatter-allgather we implement in :mod:`repro.core.osag`, giving the
bench a model line to compare against.
"""

from __future__ import annotations

from ..core.trees import NotificationTree, kary_depth
from ..scc.config import CACHE_LINE
from .broadcast import detect_cost, flag_write_cost
from .params import ModelParams
from .primitives import c_get_mem, c_get_mpb, c_mem_read


def notification_latency(
    j: int, degree: int, p: ModelParams, *, d: int = 1
) -> float:
    """Time from the family parent raising the first flag until the last
    of its ``j`` children has detected its notification.

    Each node relays to its (up to ``degree``) notification children
    sequentially: the i-th flag write leaves ``i`` write costs after the
    relayer's own detection, and every edge adds one detection.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if j == 0:
        return 0.0
    tree = NotificationTree(j, degree)
    w = flag_write_cost(p, d)
    det = detect_cost(p, 1)

    # arrival[slot] = time the notification is detected at `slot`.
    arrival = [0.0] * (j + 1)  # slot 0 = parent, detected at t=0
    for slot in range(0, j + 1):
        targets = tree.notify_targets(slot)
        for i, t in enumerate(targets):
            arrival[t] = arrival[slot] + (i + 1) * w + det
    return max(arrival[1:])


def optimal_notify_degree(
    j: int, p: ModelParams, *, d: int = 1, max_degree: int | None = None
) -> tuple[int, float]:
    """The degree minimising :func:`notification_latency` for a family of
    ``j`` children (ties broken toward the smaller degree)."""
    if j == 0:
        return 1, 0.0
    hi = max_degree if max_degree is not None else j
    best = min(
        range(1, hi + 1),
        key=lambda deg: (round(notification_latency(j, deg, p, d=d), 9), deg),
    )
    return best, notification_latency(j, best, p, d=d)


def recommended_k(
    P: int, contention_threshold: int = 24
) -> int:
    """The paper's k selection rule: the smallest fan-out achieving the
    minimum tree depth reachable without exceeding the MPB contention
    threshold (Section 5.2 picks k=7 for P=48: depth 2, same as any
    k <= 24 can do, with the least polling)."""
    if P < 2:
        return 1
    best_depth = kary_depth(P, min(contention_threshold, P - 1))
    for k in range(1, min(contention_threshold, P - 1) + 1):
        if kary_depth(P, k) == best_depth:
            return k
    return min(contention_threshold, P - 1)  # pragma: no cover


def osag_throughput(
    P: int, p: ModelParams, *, slice_lines: int = 48, d_mpb: int = 1, d_mem: int = 1
) -> float:
    """Peak throughput (MB/s) of the one-sided scatter-allgather.

    Per segment of ``P`` slices: the scatter phase moves every byte once
    through a send/recv pair (off-chip bound), then ``P - 1`` ring rounds
    each cost one MPB-to-MPB forward plus one MPB-to-memory assembly at
    every core (the rounds are lock-stepped, so the per-round time is a
    single node's serial work plus the flag handshakes).
    """
    if P < 2:
        raise ValueError("P must be >= 2")
    m = slice_lines
    sync = 2 * (flag_write_cost(p, d_mpb) + detect_cost(p, 1))
    # Scatter: a binomial tree moves ~P*m lines total over the critical
    # path of log2 P levels; the root's sends dominate: it transmits
    # (P-1)/P of the segment, stop-and-wait, off-chip on both ends.
    scatter = (P - 1) * (
        p.o_put_mem
        + m * (c_mem_read(p, d_mem) + 0)  # source read (uncached)
        + m * (p.o_mpb + 2 * d_mpb * p.l_hop)  # stage into own MPB
        + c_get_mem(p, m, d_mpb, d_mem)  # receiver drains to memory
        + sync
    )
    ring_round = (
        c_get_mpb(p, m, d_mpb)  # forward: neighbour's MPB -> own MPB
        + c_get_mem(p, m, d_mpb, d_mem)  # assembly: own MPB -> memory
        + 2 * (flag_write_cost(p, d_mpb) + detect_cost(p, 1))
    )
    total = scatter + (P - 1) * ring_round
    return (P * m * CACHE_LINE) / total
