"""Discrete-event model of the Intel Single-Chip Cloud Computer.

The chip is assembled by :class:`SccChip` from a :class:`SccConfig`:

- 24 tiles on a 6x4 2D mesh, 2 cores per tile (48 cores by default; other
  mesh sizes are supported for scaling studies),
- one 8 KB message-passing buffer (MPB) per core, readable and writable by
  every core over the mesh (RMA),
- X-Y virtual cut-through routing with per-hop latency and optional
  per-link occupancy modeling,
- four memory controllers at the mesh corners serving each core's private
  off-chip memory, fronted by a small per-core L1 model.

Timing constants default to the values the paper measured on real silicon
(its Table 1); see :class:`SccConfig` for the full knob list.
"""

from .config import ContentionMode, SccConfig, resolve_contention_mode
from .chip import SccChip, SpmdResult, run_spmd
from .core import Core
from .memory import L1Cache, MemRef, PrivateMemory
from .mesh import Mesh
from .mpb import Mpb
from .analytic import AnalyticEngine, AnalyticResult, AnalyticUnsupported

__all__ = [
    "AnalyticEngine",
    "AnalyticResult",
    "AnalyticUnsupported",
    "ContentionMode",
    "Core",
    "L1Cache",
    "MemRef",
    "Mesh",
    "Mpb",
    "PrivateMemory",
    "SccChip",
    "SccConfig",
    "SpmdResult",
    "resolve_contention_mode",
    "run_spmd",
]
