"""Formulas 1-12: the put/get communication model (paper Figure 2).

Conventions follow the paper exactly: ``m`` is the message size in cache
lines; ``d`` the number of routers traversed (>= 1); ``L`` is latency
(data available at the destination), ``C`` completion time (operation
returns at the caller).  Local MPB accesses use ``d = 1``.
"""

from __future__ import annotations

from ..scc import costs
from .params import ModelParams


def _check(m: int | None = None, d: int | None = None) -> None:
    if m is not None and m < 0:
        raise ValueError(f"message size must be >= 0 cache lines, got {m}")
    if d is not None and d < 1:
        raise ValueError(f"distance must be >= 1 hop, got {d}")


# -- MPB read/write (Formulas 1-3) -----------------------------------------

def c_mpb_write(p: ModelParams, d: int) -> float:
    """(2) Completion of the same write (waits for the acknowledgment)."""
    _check(d=d)
    return costs.mpb_line(p, d)


def c_mpb_read(p: ModelParams, d: int) -> float:
    """(3) Latency = completion of reading one cache line from an MPB
    (request out, cache line back)."""
    _check(d=d)
    return costs.mpb_line(p, d)


l_mpb_read = c_mpb_read


# -- off-chip read/write (Formulas 4-6) ---------------------------------------

def c_mem_write(p: ModelParams, d: int) -> float:
    """(5) Completion of the same write."""
    _check(d=d)
    return costs.mem_write_line(p, d)


def c_mem_read(p: ModelParams, d: int) -> float:
    """(6) Latency = completion of reading one cache line from memory."""
    _check(d=d)
    return costs.mem_read_line(p, d)


l_mem_read = c_mem_read


# -- put (Formulas 7-10) -------------------------------------------------------

def c_put_mpb(p: ModelParams, m: int, d_dst: int) -> float:
    """(7) Completion of put: local MPB -> MPB at distance d_dst."""
    _check(m, d_dst)
    return p.o_put_mpb + m * c_mpb_read(p, 1) + m * c_mpb_write(p, d_dst)


def c_put_mem(p: ModelParams, m: int, d_src: int = 1, d_dst: int = 1) -> float:
    """(8) Completion of put: private memory (MC at d_src) -> MPB at d_dst."""
    _check(m, d_src)
    _check(d=d_dst)
    return p.o_put_mem + m * c_mem_read(p, d_src) + m * c_mpb_write(p, d_dst)


# -- get (Formulas 11-12) --------------------------------------------------------

def c_get_mpb(p: ModelParams, m: int, d_src: int) -> float:
    """(11) Latency = completion of get: MPB at d_src -> local MPB."""
    _check(m, d_src)
    return p.o_get_mpb + m * c_mpb_read(p, d_src) + m * c_mpb_write(p, 1)


l_get_mpb = c_get_mpb


def c_get_mem(p: ModelParams, m: int, d_src: int = 1, d_dst: int = 1) -> float:
    """(12) Latency = completion of get: MPB at d_src -> private memory
    (MC at d_dst)."""
    _check(m, d_src)
    _check(d=d_dst)
    return p.o_get_mem + m * c_mpb_read(p, d_src) + m * c_mem_write(p, d_dst)


l_get_mem = c_get_mem
