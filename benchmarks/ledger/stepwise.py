"""``run_broadcast`` performed step by step through public constructors.

The traced run needs a span around each layer's share of one broadcast
experiment -- chip construction, communicator, algorithm set-up, payload
generation, the event-kernel run, verification, metric harvest -- but
``repro.bench.run_broadcast`` does all of it in one call.  This module
repeats its steps with a span around each.  ``test_ledger.py`` asserts
that the simulated latencies equal ``run_broadcast``'s for the same
inputs, so the decomposition measures the same program.

The one reordering: ``run_broadcast`` compares each core's buffer with
the payload inside the per-core program; here the comparison runs after
``run_spmd`` returns so that it has a span of its own.  Buffer reads are
untimed in the simulator, so simulated results do not move.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.bench import BcastResult, BcastSpec
from repro.obs import collect_chip_metrics
from repro.rcce import Comm
from repro.scc import SccChip, SccConfig, run_spmd

from spans import SpanRecorder


def payload(nbytes: int, seed: int) -> bytes:
    """The harness's seeded payload rule."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()


def stepwise_broadcast(
    spec: BcastSpec,
    nbytes: int,
    rec: SpanRecorder,
    *,
    config: SccConfig,
    iters: int,
    warmup: int,
    seed: int,
    root: int = 0,
) -> BcastResult:
    with rec.span("scc.build"):
        chip = SccChip(config)
    with rec.span("rcce.build"):
        comm = Comm(chip)
    with rec.span("core.build"):
        bcast = spec.build(comm)
    total = warmup + iters
    with rec.span("bench.payload"):
        payloads = [payload(nbytes, seed + i) for i in range(total)]

    enters: list[dict[int, float]] = [{} for _ in range(total)]
    exits: list[dict[int, float]] = [{} for _ in range(total)]
    buffers: dict[int, list] = {}

    def program(core) -> Generator:
        cc = comm.attach(core)
        bufs = buffers[cc.rank] = [cc.alloc(nbytes) for _ in range(total)]
        if cc.rank == root:
            for i, b in enumerate(bufs):
                b.write(payloads[i])
        for i, b in enumerate(bufs):
            enters[i][cc.rank] = chip.now
            yield from bcast(cc, root, b, nbytes)
            exits[i][cc.rank] = chip.now

    with rec.span("sim.run"):
        run_spmd(chip, program)
    with rec.span("bench.verify"):
        verified = all(
            b.read() == payloads[i]
            for rank, bufs in buffers.items() if rank != root
            for i, b in enumerate(bufs)
        )
    with rec.span("obs.harvest"):
        collect_chip_metrics(chip, per_entity=False)
    return BcastResult(
        spec=spec,
        nbytes=nbytes,
        latencies=tuple(
            max(exits[i].values()) - enters[i][root]
            for i in range(warmup, total)
        ),
        verified=verified,
        measured_span=max(exits[total - 1].values()) - enters[warmup][root],
    )
