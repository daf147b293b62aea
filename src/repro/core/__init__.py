"""OC-Bcast: the paper's contribution, plus OC-style extensions.

- :mod:`repro.core.trees` -- the id-based k-ary propagation tree, the
  binary notification trees embedded in each propagation family, and a
  topology-aware tree builder for the ablation study.
- :mod:`repro.core.ocbcast` -- the pipelined, double-buffered RMA
  broadcast (:class:`OcBcast`).
- :mod:`repro.core.occollectives` -- OC-Barrier and OC-Reduce built with
  the same one-sided pattern (the paper's Section 7 future work).
- :mod:`repro.core.osag` -- the one-sided scatter-allgather broadcast the
  paper's Section 5.4 sketches as an alternative RMA design.
"""

from .ocbcast import NotifyMode, OcBcast, OcBcastConfig
from .occollectives import OcBarrier, OcReduce
from .osag import OsagBcast
from .trees import (
    NotificationTree,
    PropagationTree,
    kary_depth,
    topology_aware_order,
)

__all__ = [
    "NotificationTree",
    "NotifyMode",
    "OcBarrier",
    "OcBcast",
    "OcBcastConfig",
    "OcReduce",
    "OsagBcast",
    "PropagationTree",
    "kary_depth",
    "topology_aware_order",
]
