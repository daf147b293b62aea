"""The paper's LogP-based analytical model (Sections 3 and 5).

- :mod:`repro.model.params` -- the parameter set of Table 1.
- :mod:`repro.model.primitives` -- Formulas 1-12: latency and completion
  time of MPB/memory read/write and of one-sided put/get.
- :mod:`repro.model.broadcast` -- Formulas 13-16: broadcast latency and
  throughput critical paths, plus "complete" variants with notification
  and polling costs.
- :mod:`repro.model.fitting` -- least-squares recovery of Table 1 from
  measured (simulated) put/get sweeps, closing the model-vs-measurement
  loop of Figure 3.
- :mod:`repro.model.design` -- design-space analysis: notification-tree
  degree optimality (Section 4.1's claim), the k selection rule, and
  a model for the Section 5.4 one-sided scatter-allgather.
"""

from .params import TABLE_1, ModelParams
from . import broadcast, design, fitting, primitives

__all__ = ["TABLE_1", "ModelParams", "broadcast", "design", "fitting", "primitives"]
