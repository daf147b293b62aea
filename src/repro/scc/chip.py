"""Chip assembly and SPMD execution.

:class:`SccChip` wires the simulator, mesh, MPBs and cores together.
:func:`run_spmd` launches one program per core -- the way every SCC
application (and every paper experiment) runs -- and returns per-core
results and finish times on the shared global clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Sequence

from ..sim import Simulator, Tracer
from .config import SccConfig
from .core import Core
from .mesh import Mesh
from .mpb import Mpb


class SccChip:
    """A simulated SCC (or SCC-like many-core) chip.

    ``faults`` optionally attaches a :class:`repro.faults.FaultInjector`
    whose plan the chip models consult (dropped/corrupted MPB writes,
    link stalls, core pauses/crashes); ``None`` means no injection.
    Either way a timed primitive only counts down to its next armed
    occurrence (:mod:`repro.faults.injector`, "Countdowns").

    ``metrics`` optionally attaches a :class:`repro.obs.MetricsRegistry`.
    Attaching one wires shared wait histograms onto the MPB ports (one
    ``is not None`` branch per grant) and lets protocol layers count
    events; everything else is harvested passively after the run via
    :func:`repro.obs.collect_chip_metrics`, so enabling metrics never
    schedules an event and virtual-time results stay bit-identical.
    """

    def __init__(
        self,
        config: SccConfig | None = None,
        *,
        tracer: Tracer | None = None,
        faults: "Any | None" = None,
        metrics: "Any | None" = None,
    ) -> None:
        self.config = config or SccConfig()
        self.sim = Simulator()
        # `is not None` matters: an empty Tracer is falsy (it has __len__).
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.faults = None  # set by FaultInjector.attach below
        self.metrics = metrics
        self.mesh = Mesh(self.sim, self.config)
        self.mpbs = [
            Mpb(self.sim, self.config, owner=i) for i in range(self.config.num_cores)
        ]
        self.cores = [Core(self, i) for i in range(self.config.num_cores)]
        if faults is not None:
            faults.attach(self)
        if metrics is not None:
            port_hist = metrics.histogram("mpb.port.wait_us")
            for mpb in self.mpbs:
                mpb.port.wait_hist = port_hist
            link_hist = metrics.histogram("mesh.link.wait_us")
            for link in self.mesh.links():
                link.wait_hist = link_hist

    @property
    def num_cores(self) -> int:
        return self.config.num_cores

    @property
    def now(self) -> float:
        return self.sim.now

    def trace(self, source: str, kind: str, **detail: Any) -> None:
        self.tracer.emit(self.sim.now, source, kind, **detail)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SccChip {self.config.mesh_cols}x{self.config.mesh_rows} mesh, "
            f"{self.num_cores} cores, t={self.sim.now:.3f}>"
        )


#: An SPMD program: takes the core it runs on, yields simulation events.
Program = Callable[[Core], Generator]


@dataclass(frozen=True)
class SpmdResult:
    """Outcome of one SPMD run.

    ``values[i]`` / ``finish_times[i]`` correspond to ``cores[i]`` of the
    participating subset (chip core ids in ``core_ids``).
    """

    core_ids: tuple[int, ...]
    values: tuple[Any, ...]
    finish_times: tuple[float, ...]
    start_time: float
    end_time: float

    @property
    def makespan(self) -> float:
        """Time from collective start to the last core finishing."""
        return self.end_time - self.start_time


def run_spmd(
    chip: SccChip,
    program: Program,
    core_ids: Sequence[int] | None = None,
) -> SpmdResult:
    """Run ``program`` on every core in ``core_ids`` (default: all) until
    all instances return.  The chip's clock keeps advancing across calls,
    so repeated collectives on one chip model a long-running application.
    """
    ids = tuple(core_ids) if core_ids is not None else tuple(range(chip.num_cores))
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate core ids in SPMD launch")
    start = chip.sim.now
    finish: dict[int, float] = {}

    def wrap(core: Core) -> Generator:
        value = yield from program(core)
        finish[core.id] = chip.sim.now
        return value

    procs = [
        chip.sim.process(wrap(chip.cores[i]), name=f"spmd-core{i}") for i in ids
    ]
    chip.sim.run()
    return SpmdResult(
        core_ids=ids,
        values=tuple(p.value for p in procs),
        finish_times=tuple(finish[i] for i in ids),
        start_time=start,
        end_time=max(finish.values()) if finish else start,
    )
