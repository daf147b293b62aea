"""RCCE_comm-style collective operations over two-sided send/recv.

These are the paper's baselines (Section 5): the binomial-tree broadcast
used for small messages and the scatter-allgather broadcast used for
large ones, plus the two-sided barrier and reduce that the extension
study (Section 7) compares OC-Barrier and OC-Reduce against.

Every collective is a plain generator function taking the calling core's
:class:`~repro.rcce.comm.CoreComm` first -- SPMD style: all ranks call
the same function with matching arguments.
"""

from .barrier import BarrierState, dissemination_barrier
from .binomial import binomial_bcast, binomial_children, binomial_parent
from .reduce import ReduceOp, binomial_reduce
from .scatter_allgather import scatter_allgather_bcast

__all__ = [
    "BarrierState",
    "ReduceOp",
    "binomial_bcast",
    "binomial_children",
    "binomial_parent",
    "binomial_reduce",
    "dissemination_barrier",
    "scatter_allgather_bcast",
]
