"""RCCE-style communication library on the simulated chip.

Mirrors the layering of Intel's RCCE library that the paper's
baselines use:

- :mod:`repro.rcce.layout` -- symmetric MPB space allocation,
- :mod:`repro.rcce.flags` -- cache-line synchronization flag layouts,
- :mod:`repro.rcce.onesided` -- one-sided ``put``/``get`` (Formulas 7-12),
- :mod:`repro.rcce.endpoint` -- the backend-independent per-rank
  :class:`Endpoint`: every flag/slot/vote write, wait and acked transfer,
- :mod:`repro.rcce.twosided` -- blocking ``send``/``recv`` built on top,
- :mod:`repro.rcce.comm` -- the :class:`Comm` world object gluing it all
  to a chip and to per-core :class:`CoreComm` handles.

Programs obtain a :class:`CoreComm` via ``comm.attach(core)`` and drive
all operations with ``yield from``.
"""

from .comm import Comm, CoreComm
from .endpoint import Endpoint
from .flags import DigestSlotArray, Flag, FlagSlotArray, FlagValue
from .layout import MpbLayout, MpbRegion

__all__ = [
    "Comm",
    "CoreComm",
    "Endpoint",
    "Flag",
    "DigestSlotArray",
    "FlagSlotArray",
    "FlagValue",
    "MpbLayout",
    "MpbRegion",
]
