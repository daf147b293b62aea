"""Deterministic fault injection for the simulated SCC.

``repro.faults`` turns the simulator into a fault-injection rig: a seeded
:class:`FaultPlan` describes dropped/corrupted MPB flag writes, transient
mesh-link stalls, core pauses and core crashes, and a
:class:`FaultInjector` attached to a chip fires them at exactly the
planned occurrence -- reproducibly, run after run.

Typical use::

    from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
    from repro.scc import SccChip

    plan = FaultPlan((FaultSpec(FaultKind.DROP_FLAG_WRITE, nth=3),))
    chip = SccChip(faults=FaultInjector(plan))

Campaigns over many seeded plans live in
:mod:`repro.bench.faultcampaign`; the fault-tolerant protocol modes that
survive these faults live in :mod:`repro.rcce.flags` (timeout waits),
:mod:`repro.rcce.onesided` (acked puts) and :mod:`repro.core.ocbcast`
(FT OC-Bcast).
"""

from .injector import (
    CORRUPT,
    DELIVER,
    DROP,
    FaultInjector,
    InjectionRecord,
    RecoveryRecord,
)
from .plan import (
    CRASH_SITES,
    NO_FAULTS,
    FaultKind,
    FaultPlan,
    FaultSpec,
)

__all__ = [
    "CORRUPT",
    "CRASH_SITES",
    "DELIVER",
    "DROP",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "InjectionRecord",
    "NO_FAULTS",
    "RecoveryRecord",
]
