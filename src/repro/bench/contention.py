"""Contention studies: concurrent MPB access (Figure 4) and the loaded
mesh link probe (Section 3.3).

Both experiments run in ``EXACT`` contention mode (per-cache-line port
arbitration) with a little core-overhead jitter so concurrent loops
desynchronise the way real cores do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Sequence

import numpy as np

from ..rcce import Comm
from ..scc import ContentionMode, SccChip, SccConfig, run_spmd
from ..scc.config import CACHE_LINE


@dataclass(frozen=True)
class ContentionResult:
    """Per-core mean completion times of one concurrency level."""

    op: str
    lines: int
    n_cores: int
    per_core_mean: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.per_core_mean))

    @property
    def fastest(self) -> float:
        return float(np.min(self.per_core_mean))

    @property
    def slowest(self) -> float:
        return float(np.max(self.per_core_mean))

    @property
    def spread(self) -> float:
        """Slowest over fastest core (the paper's unfairness measure)."""
        return self.slowest / self.fastest if self.fastest else float("inf")


def _contention_config(config: SccConfig | None) -> SccConfig:
    base = config or SccConfig()
    return base.with_(contention_mode=ContentionMode.EXACT, jitter=max(base.jitter, 0.02))


def concurrent_access(
    op: str,
    n_cores: int,
    lines: int,
    *,
    target_core: int = 0,
    config: SccConfig | None = None,
    iters: int = 20,
) -> ContentionResult:
    """``n_cores`` cores concurrently ``get`` from (or ``put`` 1-line
    values to) ``target_core``'s MPB, the Figure 4 experiment.

    Actors are the ``n_cores`` lowest-numbered cores other than the
    target; each runs ``iters`` back-to-back operations and reports its
    mean completion time.
    """
    if op not in ("get", "put"):
        raise ValueError("op must be 'get' or 'put'")
    if n_cores < 1:
        raise ValueError("n_cores must be >= 1")
    if lines < 1:
        raise ValueError("lines must be >= 1")
    cfg = _contention_config(config)
    chip = SccChip(cfg)
    if n_cores >= chip.num_cores:
        raise ValueError(f"at most {chip.num_cores - 1} concurrent actors")
    comm = Comm(chip)
    region = comm.layout.alloc_lines(lines)
    actors = [c for c in range(chip.num_cores) if c != target_core][:n_cores]
    target_rank = comm.rank_of(target_core)
    per_core: dict[int, float] = {}
    nbytes = lines * CACHE_LINE

    def program(core) -> Generator:
        cc = comm.attach(core)
        times = []
        for _ in range(iters):
            t0 = chip.now
            if op == "get":
                yield from cc.get(target_rank, region.offset, region.offset, nbytes)
            else:
                # Parallel puts of many lines to one location are not a
                # realistic pattern (paper 3.3); callers pass lines=1.
                yield from cc.put(target_rank, region.offset, region.offset, nbytes)
            times.append(chip.now - t0)
        per_core[core.id] = float(np.mean(times))
        return None

    run_spmd(chip, program, core_ids=actors)
    return ContentionResult(
        op=op,
        lines=lines,
        n_cores=n_cores,
        per_core_mean=tuple(per_core[c] for c in actors),
    )


def contention_sweep(
    op: str,
    lines: int,
    counts: Sequence[int] = (1, 2, 4, 6, 8, 12, 16, 24, 32, 40, 47),
    *,
    config: SccConfig | None = None,
    iters: int = 20,
) -> list[ContentionResult]:
    """Figure 4's x-axis sweep."""
    return [
        concurrent_access(op, n, lines, config=config, iters=iters) for n in counts
    ]


@dataclass(frozen=True)
class LinkProbeResult:
    """Latency of the probe get with and without background load."""

    loaded: float
    unloaded: float

    @property
    def slowdown(self) -> float:
        return self.loaded / self.unloaded if self.unloaded else float("inf")


def mesh_link_probe(
    *,
    config: SccConfig | None = None,
    probe_iters: int = 10,
    loader_lines: int = 128,
) -> LinkProbeResult:
    """Section 3.3's mesh stress test: every core outside tiles (2,2) and
    (3,2) hammers gets of 128 lines across the (2,2)-(3,2) link (X-Y
    routing funnels row-2-bound traffic through it), while a probe core on
    (2,2) measures a get from (3,2)."""
    base = config or SccConfig()
    cfg = base.with_(
        contention_mode=ContentionMode.EXACT, model_links=True, jitter=0.02
    )
    if cfg.mesh_cols < 6 or cfg.mesh_rows < 3:
        raise ValueError("mesh link probe needs at least a 6x3 mesh")

    def run(with_load: bool) -> float:
        chip = SccChip(cfg)
        comm = Comm(chip)
        region = comm.layout.alloc_lines(loader_lines)
        mesh = chip.mesh
        probe_core = mesh.cores_of_tile((2, 2))[0]
        probe_src = mesh.cores_of_tile((3, 2))[0]
        left_src = mesh.cores_of_tile((0, 2))[0]
        right_src = mesh.cores_of_tile((5, 2))[0]
        excluded = set(mesh.cores_of_tile((2, 2))) | set(mesh.cores_of_tile((3, 2)))
        loaders = [c for c in range(chip.num_cores) if c not in excluded]
        probe_times: list[float] = []
        nbytes = loader_lines * CACHE_LINE

        def loader(core) -> Generator:
            cc = comm.attach(core)
            x = mesh.tile_of_core(core.id)[0]
            # Cross the chip: data from the opposite side of row 2 funnels
            # through the (2,2)-(3,2) link in one of the two directions.
            src = comm.rank_of(left_src if x >= 3 else right_src)
            while not probe_done[0]:
                yield from cc.get(src, region.offset, region.offset, nbytes)
            return None

        def probe(core) -> Generator:
            cc = comm.attach(core)
            src = comm.rank_of(probe_src)
            for _ in range(probe_iters):
                t0 = chip.now
                yield from cc.get(src, region.offset, region.offset, nbytes)
                probe_times.append(chip.now - t0)
            probe_done[0] = True
            return None

        probe_done = [False]
        if with_load:
            for c in loaders:
                chip.sim.process(loader(chip.cores[c]), name=f"loader{c}")
        run_spmd(chip, probe, core_ids=[probe_core])
        return float(np.mean(probe_times))

    return LinkProbeResult(loaded=run(True), unloaded=run(False))
