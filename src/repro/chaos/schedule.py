"""Chaos schedules: one randomized composite fault scenario, fully pinned.

A :class:`ChaosSchedule` is the chaos engine's unit of work: *one* run of
a broadcast protocol on *one* transport backend under a composite fault
load -- occurrence-counted injector faults (:class:`repro.faults.FaultSpec`),
an optional backend-agnostic crash coordinate
(:class:`repro.transport.api.CrashOnEvent`), and -- on the asyncio
backend -- an optional network model (delay / probabilistic drop /
partition, :mod:`repro.transport.models`).  Everything that influences
the run is in the schedule: backend, mesh geometry and chip config,
message length, protocol mode and the payload/model seed (the OC-Bcast
underneath runs at the paper's fan-out, chunk and buffer count).  A
schedule is
therefore a *deterministic coordinate*: running it twice produces
byte-identical classifications and decision digests, which is what makes
chaos failures replayable from a JSON bundle
(:mod:`repro.chaos.bundle`) and shrinkable
(:mod:`repro.chaos.shrink`).

Validity is delegated to the fault subsystem:
:meth:`ChaosSchedule.validate` routes the specs through
:class:`repro.faults.FaultPlan` (overlap rejection, adversary-core range
checks, equivocation-window rules) on top of the transport-level rules
(core-primitive kinds and chip config only exist on the SCC backend,
network models only on asyncio, adversary kinds only under byz).
The generator (:mod:`repro.chaos.generate`) rejection-samples against
exactly these rules, so *every* schedule it emits validates -- the
property test suite pins that across seeds and backends.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import Any

from ..core.ocbcast import DEFAULT_CHUNK_LINES, RENOTIFY_BUDGETS, OcBcastConfig
from ..faults.plan import ADVERSARY_KINDS, FaultKind, FaultPlan, FaultSpec
from ..scc.config import CACHE_LINE, ContentionMode, SccConfig
from ..transport.api import CrashOnEvent
from ..transport.models import (
    DelayModel, LinkDrop, NoDelay, Partition, UniformDelay,
)

#: Transport backends a schedule can name.
BACKENDS = ("scc", "asyncio")

#: Protocol modes: the crash-surviving service (default adversary
#: target), the Byzantine-hardened service, bare fault-tolerant OC-Bcast,
#: and the deliberately fragile baseline (``ft=False`` -- the config the
#: chaos engine exists to break, kept for counterexample demos and
#: campaign-failure replay).
MODES = ("service", "byz", "ft", "baseline")

#: Injector kinds that hook core primitives -- they only fire on the SCC
#: backend (the asyncio backend has no ``core_op`` stream; its crashes
#: use the backend-agnostic :class:`CrashOnEvent` coordinate instead).
#: REPEATED_CRASH is core-primitive churn; the sustained link regimes
#: (FLAPPING_LINK, CONGESTION_STORM) anchor on ``mpb_access`` occurrence
#: counts, which the two backends count differently (line batches vs
#: operations), so schedules pin them to the SCC backend too -- except
#: at ``nth=1``, the one portable anchor, which the differential
#: ``flapping_link`` scenario uses deliberately.
SCC_ONLY_KINDS = frozenset({
    FaultKind.CORE_PAUSE,
    FaultKind.CORE_CRASH,
    FaultKind.REPEATED_CRASH,
    FaultKind.FLAPPING_LINK,
    FaultKind.CONGESTION_STORM,
})

#: Bundle / schedule serialisation format version.
SCHEDULE_VERSION = 1

#: OC-Bcast knobs that version-1 schedules serialised although nothing
#: ever set them.  They are constants now: still read, so every bundle
#: written so far loads, but only at the value the runner uses.
_PAPER_OC = OcBcastConfig()
_RETIRED_KEYS = {
    "k": _PAPER_OC.k,
    "chunk_lines": _PAPER_OC.chunk_lines,
    "num_buffers": _PAPER_OC.num_buffers,
    "ft_max_retries": RENOTIFY_BUDGETS,
}

#: The :class:`SccConfig` fields a schedule's ``config`` may override:
#: all but the geometry ``mesh`` pins at two cores per tile.
_CONFIG_FIELDS = [
    f.name for f in fields(SccConfig)
    if f.name not in ("mesh_cols", "mesh_rows", "cores_per_tile")
]


def reject_unknown_keys(what: str, d: dict, known) -> None:
    """A typo'd key must not be silently ignored: the run it was meant
    to change would replay as something else and still print ``[OK]``."""
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ValueError(
            f"{what}: unknown key(s) {', '.join(map(repr, unknown))}"
        )


@dataclass(frozen=True)
class ModelSpec:
    """A JSON-able description of an asyncio-backend network model.

    ``name`` picks the model: ``"none"`` (:class:`NoDelay`),
    ``"uniform"`` (per-operation latency in ``[lo, hi]`` us),
    ``"linkdrop"`` (each remote write dropped with probability ``p``,
    plus optional uniform delay) or ``"partition"`` (the rank ``groups``
    cannot reach each other until virtual time ``heal_at``).
    """

    name: str = "none"
    lo: float = 0.0
    hi: float = 0.0
    p: float = 0.0
    groups: tuple[tuple[int, ...], ...] = ()
    heal_at: float = 0.0

    def __post_init__(self) -> None:
        if self.name not in ("none", "uniform", "linkdrop", "partition"):
            raise ValueError(f"unknown model {self.name!r}")
        object.__setattr__(
            self, "groups", tuple(tuple(g) for g in self.groups)
        )

    @property
    def faulty(self) -> bool:
        """Whether the model can *lose* writes (drops / partitions count
        as fault events; pure delay does not)."""
        return self.name in ("linkdrop", "partition")

    def build(self) -> DelayModel:
        if self.name == "uniform":
            return UniformDelay(self.lo, self.hi)
        if self.name == "linkdrop":
            return LinkDrop(self.p, self.lo, self.hi)
        if self.name == "partition":
            return Partition([list(g) for g in self.groups], self.heal_at)
        return NoDelay()

    def describe(self) -> str:
        if self.name == "uniform":
            return f"uniform[{self.lo:g},{self.hi:g}]us"
        if self.name == "linkdrop":
            return f"linkdrop(p={self.p:g})"
        if self.name == "partition":
            sizes = "/".join(str(len(g)) for g in self.groups)
            return f"partition({sizes} heal@{self.heal_at:g}us)"
        return "nodelay"

    def to_dict(self) -> dict:
        return {
            "name": self.name, "lo": self.lo, "hi": self.hi, "p": self.p,
            "groups": [list(g) for g in self.groups], "heal_at": self.heal_at,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        reject_unknown_keys("network model", d, [f.name for f in fields(cls)])
        return cls(**d)


@dataclass(frozen=True)
class ChaosSchedule:
    """One pinned composite-fault scenario."""

    backend: str = "scc"
    #: Mesh geometry ``(cols, rows)``; the communicator has
    #: ``2 * cols * rows`` ranks on both backends.
    mesh: tuple[int, int] = (2, 2)
    #: Message length in cache lines (one chunk is 96).
    cache_lines: int = DEFAULT_CHUNK_LINES
    mode: str = "service"
    #: Seeds the payload bytes and the asyncio model streams.
    seed: int = 1
    #: Occurrence-counted injector faults (both backends).
    specs: tuple[FaultSpec, ...] = ()
    #: Backend-agnostic crash coordinate ``(rank, trace kind, nth)``.
    crash: tuple[int, str, int] | None = None
    #: Network model (asyncio backend only).
    model: ModelSpec | None = None
    label: str = ""
    #: Kernel watchdog period / asyncio wedge horizon knobs.
    watchdog_us: float = 50_000.0
    #: Ack the data path too (campaigns that fault data writes do).
    ft_ack_data: bool = False
    #: :class:`SccConfig` fields beyond the mesh that differ from the
    #: chip default, e.g. a campaign's contention mode; given as a dict,
    #: held as sorted ``(name, JSON value)`` pairs.
    config: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "mesh", tuple(self.mesh))
        object.__setattr__(self, "specs", tuple(self.specs))
        config = dict(self.config)
        reject_unknown_keys("schedule config", config, _CONFIG_FIELDS)
        object.__setattr__(self, "config", tuple(sorted(
            (k, getattr(v, "value", v)) for k, v in config.items()
        )))
        if self.crash is not None:
            object.__setattr__(self, "crash", tuple(self.crash))

    # -- derived geometry ---------------------------------------------------

    @property
    def nranks(self) -> int:
        cols, rows = self.mesh
        return 2 * cols * rows

    @property
    def chunks(self) -> int:
        return -(-self.cache_lines // DEFAULT_CHUNK_LINES)

    @property
    def nbytes(self) -> int:
        return self.cache_lines * CACHE_LINE

    @property
    def length(self) -> str:  # "2ch" for whole chunks, "100CL" otherwise
        n, rest = divmod(self.cache_lines, DEFAULT_CHUNK_LINES)
        return f"{self.cache_lines}CL" if rest else f"{n}ch"

    def scc_config(self) -> SccConfig:
        config = dict(self.config)
        if "contention_mode" in config:  # held by its JSON name
            config["contention_mode"] = ContentionMode(config["contention_mode"])
        cols, rows = self.mesh
        return SccConfig(mesh_cols=cols, mesh_rows=rows, **config)

    @property
    def n_events(self) -> int:
        """Composite size: injector specs + crash + lossy network model."""
        n = len(self.specs)
        if self.crash is not None:
            n += 1
        if self.model is not None and self.model.faulty:
            n += 1
        return n

    # -- validity -----------------------------------------------------------

    def validate(self) -> FaultPlan:
        """Full validity check; returns the (validated) fault plan.

        Layered on :class:`FaultPlan`'s rules: backend/mode membership,
        geometry sanity, core-primitive kinds pinned to the SCC backend,
        adversary kinds pinned to the Byzantine mode, crash coordinates
        inside the communicator, and network models pinned to the
        asyncio backend with in-range partition groups.
        """
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        cols, rows = self.mesh
        if cols < 1 or rows < 1 or self.nranks < 2:
            raise ValueError(f"degenerate mesh {self.mesh}")
        if self.cache_lines < 1:
            raise ValueError("cache_lines must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.config and self.backend != "scc":
            raise ValueError(
                "chip-config overrides only exist on the scc backend"
            )
        self.scc_config()  # the chip's own value checks
        for spec in self.specs:
            if self.backend != "scc" and spec.kind in SCC_ONLY_KINDS:
                raise ValueError(
                    f"{spec.kind.value} hooks core primitives, which only "
                    f"exist on the scc backend (use a crash coordinate on "
                    f"{self.backend})"
                )
            if spec.kind in ADVERSARY_KINDS and self.mode != "byz":
                raise ValueError(
                    f"{spec.kind.value} needs mode='byz': only the "
                    f"Byzantine-tolerant service consults adversary hooks"
                )
            if spec.core is not None and not 0 <= spec.core < self.nranks:
                raise ValueError(
                    f"spec {spec.site} targets core {spec.core} outside "
                    f"the {self.nranks}-rank communicator"
                )
        if self.crash is not None:
            rank, kind, nth = self.crash
            if not 0 <= rank < self.nranks:
                raise ValueError(
                    f"crash rank {rank} outside the {self.nranks}-rank "
                    f"communicator"
                )
            if not kind or nth < 1:
                raise ValueError(f"bad crash coordinate {self.crash!r}")
        if self.model is not None:
            if self.backend != "asyncio":
                raise ValueError(
                    "network models only exist on the asyncio backend"
                )
            for group in self.model.groups:
                for rank in group:
                    if not 0 <= rank < self.nranks:
                        raise ValueError(
                            f"partition group names rank {rank} outside "
                            f"the {self.nranks}-rank communicator"
                        )
        return FaultPlan(
            self.specs, label=self.label or self.describe(),
            num_cores=self.nranks,
        )

    # -- helpers ------------------------------------------------------------

    def crash_hook(self) -> CrashOnEvent | None:
        if self.crash is None:
            return None
        rank, kind, nth = self.crash
        return CrashOnEvent(rank, kind, nth=nth)

    def describe(self) -> str:
        parts = [s.site for s in self.specs]
        if self.crash is not None:
            rank, kind, nth = self.crash
            parts.append(f"crash@rank{rank}:{kind}#{nth}")
        if self.model is not None and self.model.name != "none":
            parts.append(self.model.describe())
        body = " + ".join(parts) if parts else "fault-free"
        chip = "".join(f" {k}={v}" for k, v in self.config)
        return (
            f"{self.backend}/{self.mode} {self.mesh[0]}x{self.mesh[1]} "
            f"({self.nranks}r) {self.length}{chip} seed={self.seed}: {body}"
        )

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": SCHEDULE_VERSION,
            "backend": self.backend,
            "mesh": list(self.mesh),
            "cache_lines": self.cache_lines,
            "config": dict(self.config),
            "mode": self.mode,
            "seed": self.seed,
            "label": self.label,
            "watchdog_us": self.watchdog_us,
            "ft_ack_data": self.ft_ack_data,
            "specs": [
                {
                    "kind": s.kind.value, "nth": s.nth,
                    "core": s.core, "duration": s.duration,
                    "period": s.period, "duty": s.duty, "cycles": s.cycles,
                }
                for s in self.specs
            ],
            "crash": list(self.crash) if self.crash is not None else None,
            "model": self.model.to_dict() if self.model is not None else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ChaosSchedule":
        version = d.get("version", SCHEDULE_VERSION)
        if version != SCHEDULE_VERSION:
            raise ValueError(
                f"unsupported schedule version {version!r} "
                f"(this build reads version {SCHEDULE_VERSION})"
            )
        known = [f.name for f in fields(cls)]
        reject_unknown_keys(
            "schedule", d, ("version", "chunks", *known, *_RETIRED_KEYS)
        )
        for key, value in _RETIRED_KEYS.items():
            if d.get(key, value) != value:
                raise ValueError(
                    f"schedule: {key!r} is the constant {value} "
                    f"(got {d[key]!r})"
                )
        # Absent keys take the constructor's defaults.
        given = {key: d[key] for key in known if key in d}
        if "chunks" in d:  # the length as schedules wrote it until now
            if "cache_lines" in d:
                raise ValueError("schedule: give 'chunks' or 'cache_lines'")
            given["cache_lines"] = d["chunks"] * DEFAULT_CHUNK_LINES
        spec_keys = [f.name for f in fields(FaultSpec)]
        specs = []
        for spec in given.get("specs", ()):
            reject_unknown_keys("fault spec", spec, spec_keys)
            specs.append(FaultSpec(**{**spec, "kind": FaultKind(spec["kind"])}))
        given["specs"] = specs
        if given.get("model") is not None:
            given["model"] = ModelSpec.from_dict(given["model"])
        return cls(**given)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ChaosSchedule":
        return cls.from_dict(json.loads(text))

    # -- shrink support -----------------------------------------------------

    def without_event(self, index: int) -> "ChaosSchedule":
        """Drop one composite event: indexes ``0..len(specs)-1`` name
        injector specs, then the crash coordinate, then the network
        model (shrinker vocabulary)."""
        n = len(self.specs)
        if index < n:
            specs = self.specs[:index] + self.specs[index + 1:]
            return replace(self, specs=specs)
        index -= n
        if self.crash is not None:
            if index == 0:
                return replace(self, crash=None)
            index -= 1
        if self.model is not None and self.model.faulty and index == 0:
            return replace(self, model=None)
        raise IndexError(f"no composite event at index {index}")
