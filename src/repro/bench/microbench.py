"""put/get micro-benchmarks over distance and message size (Figure 3).

Each sample measures the mean completion time of one operation kind at
one (message size, distance) point, on an otherwise idle chip -- the
paper's Section 3.2 validation setup.  Samples are returned as
:class:`repro.model.fitting.Observation` objects so they feed directly
into the least-squares parameter fit (Table 1).
"""

from __future__ import annotations

from typing import Generator, Sequence

import numpy as np

from ..model.fitting import Observation
from ..rcce import Comm
from ..scc import SccChip, SccConfig, run_spmd
from ..scc.config import CACHE_LINE

#: Alias: a micro-benchmark sample IS a model observation.
PutGetSample = Observation


def core_at_mpb_distance(chip: SccChip, src_core: int, d: int) -> int:
    """Lowest-numbered core whose MPB is ``d`` hops from ``src_core``."""
    for c in range(chip.num_cores):
        if c != src_core and chip.mesh.core_distance(src_core, c) == d:
            return c
    raise ValueError(f"no core at MPB distance {d} from core {src_core}")


def core_at_mem_distance(chip: SccChip, d: int) -> int:
    """Lowest-numbered core whose memory controller is ``d`` hops away."""
    for c in range(chip.num_cores):
        if chip.mesh.mem_distance(c) == d:
            return c
    raise ValueError(f"no core at memory distance {d}")


def _measure(
    chip: SccChip,
    comm: Comm,
    actor: int,
    body_factory,
    iters: int,
) -> float:
    """Run ``body_factory(cc)`` ``iters`` times on ``actor``; mean time."""
    times: list[float] = []

    def program(core) -> Generator:
        cc = comm.attach(core)
        for _ in range(iters):
            t0 = chip.now
            yield from body_factory(cc)
            times.append(chip.now - t0)
        return None

    run_spmd(chip, program, core_ids=[actor])
    return float(np.mean(times))


def measure_put_mpb(
    config: SccConfig, m: int, d: int, iters: int = 5
) -> Observation:
    """MPB -> MPB put of ``m`` lines to a core at distance ``d``."""
    chip = SccChip(config)
    comm = Comm(chip)
    actor = 0
    target = comm.rank_of(core_at_mpb_distance(chip, actor, d))
    region = comm.layout.alloc_lines(m)

    def body(cc):
        yield from cc.put(target, region.offset, region.offset, m * CACHE_LINE)

    t = _measure(chip, comm, actor, body, iters)
    return Observation("put_mpb", m, 1, d, t)


def measure_get_mpb(
    config: SccConfig, m: int, d: int, iters: int = 5
) -> Observation:
    """MPB -> MPB get of ``m`` lines from a core at distance ``d``."""
    chip = SccChip(config)
    comm = Comm(chip)
    actor = 0
    source = comm.rank_of(core_at_mpb_distance(chip, actor, d))
    region = comm.layout.alloc_lines(m)

    def body(cc):
        yield from cc.get(source, region.offset, region.offset, m * CACHE_LINE)

    t = _measure(chip, comm, actor, body, iters)
    return Observation("get_mpb", m, d, 1, t)


def measure_put_mem(
    config: SccConfig, m: int, d_mem: int, iters: int = 5
) -> Observation:
    """Memory -> MPB put: the actor (chosen so its memory controller is
    ``d_mem`` hops away) reads fresh off-chip lines and writes the MPB of
    its tile mate (1 hop)."""
    chip = SccChip(config)
    comm = Comm(chip)
    actor = core_at_mem_distance(chip, d_mem)
    target = comm.rank_of(actor ^ 1) if chip.num_cores > 1 else 0
    region = comm.layout.alloc_lines(m)
    nbytes = m * CACHE_LINE

    def body(cc):
        src = cc.alloc(nbytes)  # fresh lines every iteration: L1 misses
        yield from cc.put(target, region.offset, src, nbytes)

    t = _measure(chip, comm, actor, body, iters)
    d_dst = chip.mesh.core_distance(actor, comm.core_of(target))
    return Observation("put_mem", m, d_mem, d_dst, t)


def measure_get_mem(
    config: SccConfig, m: int, d_mem: int, iters: int = 5
) -> Observation:
    """MPB -> memory get: the actor reads its tile mate's MPB (1 hop) and
    writes fresh off-chip lines through a controller ``d_mem`` hops away."""
    chip = SccChip(config)
    comm = Comm(chip)
    actor = core_at_mem_distance(chip, d_mem)
    source = comm.rank_of(actor ^ 1) if chip.num_cores > 1 else 0
    region = comm.layout.alloc_lines(m)
    nbytes = m * CACHE_LINE

    def body(cc):
        dst = cc.alloc(nbytes)
        yield from cc.get(source, region.offset, dst, nbytes)

    t = _measure(chip, comm, actor, body, iters)
    d_src = chip.mesh.core_distance(actor, comm.core_of(source))
    return Observation("get_mem", m, d_src, d_mem, t)


def sweep_putget(
    config: SccConfig | None = None,
    *,
    sizes: Sequence[int] = (1, 4, 8, 16),
    mpb_distances: Sequence[int] | None = None,
    mem_distances: Sequence[int] | None = None,
    iters: int = 5,
) -> list[Observation]:
    """The full Figure 3 sweep: all four panels.

    Defaults cover every reachable distance on the configured mesh
    (1..9 for MPBs and 1..4 for memory on the real SCC).
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    config = config or SccConfig()
    probe = SccChip(config)
    if mpb_distances is None:
        reachable = {
            probe.mesh.core_distance(0, c) for c in range(1, probe.num_cores)
        }
        mpb_distances = sorted(reachable)
    if mem_distances is None:
        mem_distances = sorted(
            {probe.mesh.mem_distance(c) for c in range(probe.num_cores)}
        )
    out: list[Observation] = []
    for m in sizes:
        for d in mpb_distances:
            out.append(measure_put_mpb(config, m, d, iters))
            out.append(measure_get_mpb(config, m, d, iters))
        for d in mem_distances:
            out.append(measure_put_mem(config, m, d, iters))
            out.append(measure_get_mem(config, m, d, iters))
    return out
