"""Pluggable transport layer.

The protocol stack (OC-Bcast, membership, election, RBC, the OC
collectives) is written against a narrow per-rank transport surface
(:mod:`repro.transport.api`).  Two backends provide it:

- the **SCC backend** (:mod:`repro.transport.scc`): the chip simulator
  with its calibrated timing model -- the reference; default paths are
  bit-identical to the pre-extraction tree;
- the **asyncio backend** (:mod:`repro.transport.asyncio_backend`):
  cooperative rank tasks on a single-threaded loop in virtual time (the
  module's own loop -- virtual time needs no selector) with seeded
  pluggable delay/omission models (:mod:`repro.transport.models`) and no
  chip model at all.

Same seed, two backends, same decisions -- that is the invariant the
differential harness (``tests/differential/``) checks, using the
canonical decision traces of :mod:`repro.transport.decisions` over the
shared scenarios of :mod:`repro.transport.scenarios`.  Every harness
builds its worlds and runs its per-rank body through
:mod:`repro.transport.world`.
"""

from .api import CrashOnEvent, Transport
from .asyncio_backend import AsyncioNetwork, AsyncioTransport, RankStore
from .decisions import (
    DECISION_KINDS,
    canonical_decisions,
    decision_digest,
    decision_streams,
)
from .models import DelayModel, LinkDrop, NoDelay, Partition, UniformDelay
from .scc import SccNetwork, SccTransport, make_scc_world

__all__ = [
    "AsyncioNetwork",
    "AsyncioTransport",
    "CrashOnEvent",
    "DECISION_KINDS",
    "DelayModel",
    "LinkDrop",
    "NoDelay",
    "Partition",
    "RankStore",
    "SccNetwork",
    "SccTransport",
    "Transport",
    "UniformDelay",
    "canonical_decisions",
    "decision_digest",
    "decision_streams",
    "make_scc_world",
]

