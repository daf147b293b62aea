"""The SCC chip-model backend, under its transport name.

The chip simulator *is* the reference transport: :class:`Comm` is the
world object and :class:`CoreComm` the per-rank endpoint -- re-exported
here so code written against the transport layer can name both backends
symmetrically (``transport.scc.SccTransport`` vs
``transport.asyncio_backend.AsyncioTransport``).
"""

from __future__ import annotations

from ..faults.plan import FaultPlan
from ..rcce.comm import Comm as SccNetwork, CoreComm as SccTransport
from ..scc.chip import SccChip, run_spmd
from ..scc.config import SccConfig
from .world import scc_world

__all__ = [
    "SccNetwork",
    "SccTransport",
    "make_scc_world",
    "run_spmd",
]


def make_scc_world(
    nranks: int,
    *,
    mesh: tuple[int, int] | None = None,
    plan: FaultPlan | None = None,
    tracer_enabled: bool = True,
    watchdog: float | None = 100_000.0,
) -> tuple[SccChip, SccNetwork]:
    """:func:`repro.transport.world.scc_world` by rank count, mirroring
    ``AsyncioNetwork(nranks, ...)``: ``mesh`` as (cols, rows), inferred
    for square-ish meshes when omitted."""
    if mesh is None:
        cols = 1
        while 2 * cols * cols < nranks:
            cols += 1
        rows = -(-nranks // (2 * cols))
        mesh = (cols, rows)
    cols, rows = mesh
    config = SccConfig(mesh_cols=cols, mesh_rows=rows)
    if config.num_cores != nranks:
        raise ValueError(
            f"mesh {mesh} gives {config.num_cores} cores, wanted {nranks}"
        )
    comm = scc_world(
        config, plan=plan, trace=tracer_enabled, watchdog_us=watchdog
    )
    return comm.chip, comm
