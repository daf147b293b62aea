"""OC-Barrier and OC-Reduce decide the same thing on both backends.

The two Section 7 collectives speak only :class:`~repro.rcce.endpoint.
Endpoint`, so the same per-rank body -- barrier, a multi-chunk reduce,
barrier -- must finish on the SCC kernel and on the asyncio network with
the same reduced bytes at the root and the same per-rank ``ocr.done``
records.
"""

import numpy as np
import pytest

from repro.collectives import ReduceOp
from repro.core import OcBarrier, OcReduce
from repro.scc import SccConfig
from repro.transport.world import asyncio_world, run_world, scc_world

pytestmark = pytest.mark.differential

CHUNK_LINES = 4
#: Two full chunks and a ragged third.
NBYTES = 2 * CHUNK_LINES * 32 + 40
OP = ReduceOp.sum("<i8")

#: nranks -> (SCC mesh, fan-out k)
SIZES = {8: (SccConfig(mesh_cols=2, mesh_rows=2), 3), 48: (SccConfig(), 7)}


def _contribution(rank: int) -> bytes:
    return (np.arange(NBYTES // 8, dtype="<i8") * (rank + 1) + rank).tobytes()


def _run(world, k: int, root: int):
    barrier = OcBarrier(world, k=k)
    reducer = OcReduce(world, k=k, chunk_lines=CHUNK_LINES)

    def body(cc):
        send = cc.alloc(NBYTES)
        recv = cc.alloc(NBYTES)
        send.write(_contribution(cc.rank))
        yield from barrier.barrier(cc)
        yield from reducer.reduce(cc, root, send, recv, NBYTES, OP)
        yield from barrier.barrier(cc)
        return recv.read() if cc.rank == root else None

    run = run_world(world, body)
    done = sorted(
        (rec.source, rec.detail["chunks"])
        for rec in run.records if rec.kind == "ocr.done"
    )
    return run, done


@pytest.mark.parametrize("nranks,root", [(8, 0), (8, 5), (48, 0), (48, 45)])
def test_barrier_reduce_barrier_agrees_across_backends(nranks, root):
    config, k = SIZES[nranks]
    scc, scc_done = _run(scc_world(config, trace=True), k, root)
    aio, aio_done = _run(asyncio_world(nranks), k, root)

    assert scc.status == "" and aio.status == ""
    expected = sum(
        np.frombuffer(_contribution(r), "<i8") for r in range(nranks)
    ).tobytes()
    assert scc.values[root] == aio.values[root] == expected
    assert scc_done == aio_done
    assert scc_done == sorted((f"rank{r}", 3) for r in range(nranks))
