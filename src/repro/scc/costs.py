"""What one cache line costs, and what noticing a flag costs -- once.

The event kernel (:mod:`repro.scc.core`), the analytic replay
(:mod:`repro.scc.analytic`) and the LogP formulas
(:mod:`repro.model.primitives`) are three implementations of the same
timing model, and the test suite holds them to float *equality*, not a
tolerance.  That only stays true while all three evaluate the same
expression with the same operands in the same order, so the expressions
live here and everybody calls them.

``p`` is anything carrying the Table-1 attribute names
(:class:`~repro.scc.config.SccConfig` or
:class:`~repro.model.params.ModelParams`); ``d`` is a router-hop count,
an int or an integer array.
"""

from __future__ import annotations


def mpb_line(p, d):
    """Formulas 2/3: completion of one cache-line MPB write or read at
    distance ``d`` (both are ``o_mpb`` plus the round trip)."""
    return p.o_mpb + 2 * d * p.l_hop


def mem_write_line(p, d):
    """Formula 5: completion of one cache-line off-chip write, memory
    controller at distance ``d``."""
    return p.o_mem_w + 2 * d * p.l_hop


def mem_read_line(p, d):
    """Formula 6: one cache-line off-chip read (an L1 miss)."""
    return p.o_mem_r + 2 * d * p.l_hop


def poll_detect(t_poll: float, nscan: int) -> float:
    """Detection delay of a waiter sweeping ``nscan`` flags: on average
    half a sweep passes before it reaches the flag that changed, then
    one more read sees it."""
    return 0.5 * nscan * t_poll + t_poll
