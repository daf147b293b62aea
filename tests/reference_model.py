"""The paper's per-formula latencies that the model's composite
functions do not use: Formulas 1, 4 and 9 (a write's and a put's
*latency*, the last write unacknowledged) and the simple broadcast
Formulas 13 and 14.  Kept as test references for the hand-computed
spot checks in ``tests/test_model.py``."""

from repro.core.trees import kary_depth
from repro.model.broadcast import M_OC, _chunk_sizes, binomial_levels
from repro.model.params import ModelParams
from repro.model.primitives import (
    _check, c_get_mem, c_get_mpb, c_mem_read, c_mpb_read, c_mpb_write,
    c_put_mem,
)


def l_mpb_write(p: ModelParams, d: int) -> float:
    """(1) Latency of writing one cache line to an MPB at distance d."""
    _check(d=d)
    return p.o_mpb + d * p.l_hop


def l_mem_write(p: ModelParams, d: int) -> float:
    """(4) Latency of writing one cache line to off-chip memory."""
    _check(d=d)
    return p.o_mem_w + d * p.l_hop


def l_put_mpb(p: ModelParams, m: int, d_dst: int) -> float:
    """(9) Latency of put from local MPB (last write unacknowledged)."""
    _check(m, d_dst)
    if m == 0:
        return p.o_put_mpb
    return (
        p.o_put_mpb
        + m * c_mpb_read(p, 1)
        + (m - 1) * c_mpb_write(p, d_dst)
        + l_mpb_write(p, d_dst)
    )


def ocbcast_latency_simple(
    P: int, m: int, k: int, p: ModelParams, *, chunk: int = M_OC,
    d_mpb: int = 1, d_mem: int = 1,
) -> float:
    """Formula 13, extended to multi-chunk messages by pipelining: the
    first chunk pays the full tree path; each further chunk adds one
    bottleneck-node cycle (MPB get + memory get, cf. Formula 15)."""
    if P < 1:
        raise ValueError("P must be >= 1")
    if m <= 0 or P == 1:
        return 0.0
    chunks = _chunk_sizes(m, chunk)
    depth = kary_depth(P, k)
    first = chunks[0]
    lat = (
        c_put_mem(p, first, d_mem, d_mpb)
        + depth * c_get_mpb(p, first, d_mpb)
        + c_get_mem(p, first, d_mpb, d_mem)
    )
    for c in chunks[1:]:
        lat += c_get_mpb(p, c, d_mpb) + c_get_mem(p, c, d_mpb, d_mem)
    return lat


def binomial_latency_simple(
    P: int, m: int, p: ModelParams, *, d_mpb: int = 1, d_mem: int = 1,
) -> float:
    """Formula 14: ``log2 P`` send/recv levels; only the first level pays
    the off-chip source read (later senders hit their L1)."""
    if P < 1:
        raise ValueError("P must be >= 1")
    if m <= 0 or P == 1:
        return 0.0
    levels = binomial_levels(P)
    per_level = (
        p.o_put_mem
        + m * c_mpb_write(p, d_mpb)        # put with L1-cached source
        + c_get_mem(p, m, d_mpb, d_mem)    # receiver's get to memory
    )
    return levels * per_level + m * c_mem_read(p, d_mem)  # root's cold read
