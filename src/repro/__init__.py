"""repro -- OC-Bcast on a simulated Intel SCC.

A production-quality reproduction of *"High-Performance RMA-Based
Broadcast on the Intel SCC"* (Petrovic, Shahmirzadi, Ropars, Schiper;
SPAA 2012): the OC-Bcast algorithm, the RCCE-style communication stack
and RCCE_comm baselines it is compared against, a discrete-event model of
the SCC chip standing in for the retired hardware, and the paper's
LogP-based analytical model.

Quickstart::

    from repro import SccChip, Comm, OcBcast, run_spmd

    chip = SccChip()
    comm = Comm(chip)
    oc = OcBcast(comm)
    payload = b"hello many-core" * 100

    def program(core):
        cc = comm.attach(core)
        buf = cc.alloc(len(payload))
        if cc.rank == 0:
            buf.write(payload)
        yield from oc.bcast(cc, root=0, buf=buf, nbytes=len(payload))
        return buf.read()

    result = run_spmd(chip, program)
    assert all(v == payload for v in result.values)
    print(f"broadcast latency: {result.makespan:.2f} us")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from .collectives import (
    BarrierState,
    ReduceOp,
    binomial_bcast,
    binomial_reduce,
    dissemination_barrier,
    scatter_allgather_bcast,
)
from .core import (
    NotifyMode,
    OcBarrier,
    OcBcast,
    OcBcastConfig,
    OcReduce,
    OsagBcast,
    PropagationTree,
    topology_aware_order,
)
from .member import (
    MembershipConfig,
    MembershipService,
    MembershipView,
    OcBcastService,
)
from .model import TABLE_1, ModelParams
from .rcce import Comm, CoreComm
from .scc import ContentionMode, MemRef, SccChip, SccConfig, SpmdResult, run_spmd

__version__ = "1.0.0"

__all__ = [
    "BarrierState",
    "Comm",
    "ContentionMode",
    "CoreComm",
    "MemRef",
    "MembershipConfig",
    "MembershipService",
    "MembershipView",
    "ModelParams",
    "OcBcastService",
    "NotifyMode",
    "OcBarrier",
    "OcBcast",
    "OcBcastConfig",
    "OcReduce",
    "OsagBcast",
    "PropagationTree",
    "ReduceOp",
    "SccChip",
    "SccConfig",
    "SpmdResult",
    "TABLE_1",
    "binomial_bcast",
    "binomial_reduce",
    "dissemination_barrier",
    "run_spmd",
    "scatter_allgather_bcast",
    "topology_aware_order",
    "__version__",
]
