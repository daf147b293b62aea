"""Broadcast experiment runner.

Reproduces the paper's measurement methodology (Section 6.1) on the
simulated chip:

- core 0 is the source unless specified otherwise;
- a message is broadcast from the root's private memory to every other
  core's private memory;
- iterations run back to back on one chip (steady-state pipelining, as on
  hardware), with warm-up iterations discarded;
- every iteration uses a fresh (uncached) buffer offset to avoid L1
  effects, exactly as the paper preallocates a large array and strides
  through it;
- latency is the paper's definition: from the root's call to the last
  core's return, on the shared global clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Sequence

import numpy as np

from ..collectives import binomial_bcast, scatter_allgather_bcast
from ..core import NotifyMode, OcBcast, OcBcastConfig, OsagBcast
from ..rcce import Comm, CoreComm
from ..scc import MemRef, SccChip, SccConfig, run_spmd
from ..scc.analytic import AnalyticEngine, AnalyticResult, AnalyticUnsupported
from ..scc.config import CACHE_LINE, ContentionMode
from ..transport.world import seeded_payload
from .parallel import parallel_map

#: Algorithm names accepted by :class:`BcastSpec`.
ALGORITHMS = ("oc", "binomial", "scatter_allgather", "osag")


@dataclass(frozen=True)
class BcastSpec:
    """Which broadcast to run and how it is tuned."""

    algo: str = "oc"
    k: int = 7
    chunk_lines: int = 96
    num_buffers: int = 2
    notify_degree: int = 2
    leaf_direct_to_memory: bool = False
    notify_mode: NotifyMode = NotifyMode.FLAGS
    order: tuple[int, ...] | None = None  # OC propagation-tree override

    def __post_init__(self) -> None:
        if self.algo not in ALGORITHMS:
            raise ValueError(f"algo must be one of {ALGORITHMS}, got {self.algo!r}")

    @property
    def label(self) -> str:
        if self.algo == "oc":
            return f"OC-Bcast k={self.k}"
        return {
            "binomial": "binomial",
            "scatter_allgather": "scatter-allgather",
            "osag": "one-sided s-ag",
        }[self.algo]

    def build(
        self, comm: Comm
    ) -> Callable[[CoreComm, int, MemRef, int], Generator]:
        """Instantiate the algorithm on a communicator; returns the
        ``bcast(cc, root, buf, nbytes)`` generator function."""
        if self.algo == "oc":
            oc = OcBcast(
                comm,
                OcBcastConfig(
                    k=self.k,
                    chunk_lines=self.chunk_lines,
                    num_buffers=self.num_buffers,
                    notify_degree=self.notify_degree,
                    leaf_direct_to_memory=self.leaf_direct_to_memory,
                    notify_mode=self.notify_mode,
                ),
            )
            order = self.order

            def oc_bcast(cc: CoreComm, root: int, buf: MemRef, n: int) -> Generator:
                yield from oc.bcast(cc, root, buf, n, order=order)

            return oc_bcast
        if self.algo == "binomial":
            return binomial_bcast
        if self.algo == "osag":
            return OsagBcast(comm).bcast
        return scatter_allgather_bcast


@dataclass(frozen=True)
class BcastResult:
    """Measured latencies of one broadcast experiment."""

    spec: BcastSpec
    nbytes: int
    latencies: tuple[float, ...]  # per measured iteration, microseconds
    verified: bool  # every core received the exact payload each iteration
    #: Wall time on the simulated clock from the root entering the first
    #: measured iteration to the last core leaving the last one.
    measured_span: float = 0.0

    @property
    def mean_latency(self) -> float:
        return float(np.mean(self.latencies))

    @property
    def throughput_mb_s(self) -> float:
        """Payload bytes per mean-latency microsecond (== MB/s)."""
        return self.nbytes / self.mean_latency if self.mean_latency else 0.0

    @property
    def steady_throughput_mb_s(self) -> float:
        """Aggregate rate over all measured back-to-back iterations --
        the pipeline's steady-state throughput, which is what exposes the
        97-cache-line dip of Figure 8b."""
        if self.measured_span <= 0.0:
            return 0.0
        return len(self.latencies) * self.nbytes / self.measured_span

    @property
    def cache_lines(self) -> int:
        return -(-self.nbytes // CACHE_LINE)


def analytic_engine_for(
    spec: BcastSpec, config: SccConfig | None = None, *, root: int = 0
) -> AnalyticEngine:
    """Build the :class:`AnalyticEngine` equivalent of a harness spec.

    Only OC-Bcast has a closed-form replay (the engine models its
    schedule, not arbitrary algorithms), so any other ``spec.algo``
    raises :class:`AnalyticUnsupported` -- callers either surface that
    or fall back to a simulated mode.
    """
    if spec.algo != "oc":
        raise AnalyticUnsupported(
            f"ANALYTIC mode models the OC-Bcast schedule only, "
            f"not {spec.algo!r}; use exact/batch/ideal for other algorithms"
        )
    return AnalyticEngine(
        config,
        k=spec.k,
        chunk_lines=spec.chunk_lines,
        num_buffers=spec.num_buffers,
        notify_degree=spec.notify_degree,
        leaf_direct_to_memory=spec.leaf_direct_to_memory,
        interrupt_notify=spec.notify_mode is NotifyMode.INTERRUPT,
        root=root,
        order=spec.order,
    )


def _to_bcast_result(spec: BcastSpec, ana: AnalyticResult) -> BcastResult:
    # No bytes move in an analytic evaluation; delivery is structural
    # (every rank's completion time exists), so the result reports
    # verified=True just as a verify=False simulated run does.
    return BcastResult(
        spec=spec,
        nbytes=ana.nbytes,
        latencies=ana.latencies,
        verified=True,
        measured_span=ana.measured_span,
    )


def run_broadcast(
    spec: BcastSpec,
    nbytes: int,
    *,
    config: SccConfig | None = None,
    root: int = 0,
    iters: int = 3,
    warmup: int = 1,
    verify: bool = True,
    seed: int = 1,
    tracer=None,
    metrics=None,
) -> BcastResult:
    """Run one broadcast configuration and measure per-iteration latency.

    A fresh chip is built per call (experiments are independent, as the
    paper's runs are); iterations share the chip back to back.

    ``tracer`` (a :class:`repro.sim.Tracer`) and ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`) attach observability to the
    run's chip; chip statistics are harvested into ``metrics`` after the
    run.  Neither changes the measured latencies (bit-identical -- see
    docs/OBSERVABILITY.md).
    """
    if nbytes <= 0:
        raise ValueError("nbytes must be > 0")
    if iters < 1 or warmup < 0:
        raise ValueError("need iters >= 1 and warmup >= 0")
    config = config or SccConfig()
    if not 0 <= root < config.num_cores:
        raise ValueError(f"root {root} outside 0..{config.num_cores - 1}")
    if config.contention_mode is ContentionMode.ANALYTIC:
        engine = analytic_engine_for(spec, config, root=root)
        ana = engine.evaluate(nbytes, iters=iters, warmup=warmup)
        if metrics is not None:
            for name, value in ana.metrics.items():
                metrics.inc(name, value)
        return _to_bcast_result(spec, ana)
    chip = SccChip(config, tracer=tracer, metrics=metrics)
    comm = Comm(chip)
    bcast = spec.build(comm)
    total_iters = warmup + iters
    payloads = [seeded_payload(seed + i, nbytes) for i in range(total_iters)]

    enters: list[dict[int, float]] = [{} for _ in range(total_iters)]
    exits: list[dict[int, float]] = [{} for _ in range(total_iters)]
    ok: list[bool] = []

    def program(core) -> Generator:
        cc = comm.attach(core)
        # One large preallocated array, strided per iteration (fresh cache
        # lines every time -- the paper's anti-caching discipline).
        bufs = [cc.alloc(nbytes) for _ in range(total_iters)]
        if cc.rank == root:
            for i, b in enumerate(bufs):
                b.write(payloads[i])
        for i, b in enumerate(bufs):
            enters[i][cc.rank] = chip.now
            yield from bcast(cc, root, b, nbytes)
            exits[i][cc.rank] = chip.now
            if verify and cc.rank != root:
                ok.append(b.read() == payloads[i])
        return None

    run_spmd(chip, program)
    if metrics is not None:
        from ..obs import collect_chip_metrics

        collect_chip_metrics(chip)
    latencies = tuple(
        max(exits[i].values()) - enters[i][root]
        for i in range(warmup, total_iters)
    )
    measured_span = max(exits[total_iters - 1].values()) - enters[warmup][root]
    return BcastResult(
        spec=spec,
        nbytes=nbytes,
        latencies=latencies,
        verified=(not verify) or all(ok),
        measured_span=measured_span,
    )


def _bcast_point(
    point: tuple[BcastSpec, int, SccConfig | None, int, int, bool, int],
) -> BcastResult:
    """Worker: one ``(spec, size)`` grid point on a fresh chip."""
    spec, nbytes, config, iters, warmup, verify, seed = point
    return run_broadcast(
        spec, nbytes, config=config,
        iters=iters, warmup=warmup, verify=verify, seed=seed,
    )


def sweep_broadcast(
    specs: Sequence[BcastSpec],
    sizes_cache_lines: Sequence[int],
    *,
    config: SccConfig | None = None,
    iters: int = 3,
    warmup: int = 1,
    verify: bool = True,
    seed: int = 1,
    jobs: int = 1,
) -> dict[str, list[BcastResult]]:
    """Latency/throughput sweep: every spec at every message size.

    Returns ``{spec.label: [BcastResult per size]}``.  The ``specs x
    sizes`` grid is fanned across ``jobs`` worker processes (``jobs <=
    1``: in-process); every point carries the same explicit ``seed`` and
    the merge is by grid position, so the result is equal for any
    ``jobs``.

    Under :attr:`ContentionMode.ANALYTIC` each spec's whole size axis is
    instead evaluated in one vectorised batch -- the engine's per-call
    overhead is paid once per spec, which beats fanning per-point engine
    builds across processes, and the seed never matters (no payload
    bytes move).
    """
    if config is not None and config.contention_mode is ContentionMode.ANALYTIC:
        out: dict[str, list[BcastResult]] = {}
        for spec in specs:
            engine = analytic_engine_for(spec, config)
            batch = engine.evaluate_batch(
                [ncl * CACHE_LINE for ncl in sizes_cache_lines],
                iters=iters, warmup=warmup,
            )
            out[spec.label] = [_to_bcast_result(spec, ana) for ana in batch]
        return out
    points = [
        (spec, ncl * CACHE_LINE, config, iters, warmup, verify, seed)
        for spec in specs
        for ncl in sizes_cache_lines
    ]
    flat = parallel_map(_bcast_point, points, jobs=jobs)
    n = len(sizes_cache_lines)
    return {
        spec.label: flat[i * n:(i + 1) * n] for i, spec in enumerate(specs)
    }
