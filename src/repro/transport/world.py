"""Running a body on a world: the one experiment shape, written once.

Fault campaigns, churn campaigns, the chaos runner and the differential
scenarios all perform the paper's experiment (Section 6): build a fresh
world, every rank allocates a buffer, the root fills it, all ranks call
the broadcast, the harness reads back who holds what.  This module owns
the three decisions that shape shares and nothing else:

1. **How a fresh world is armed** -- :func:`scc_world` (-> ``Comm``) and
   :func:`asyncio_world` (-> ``AsyncioNetwork``).  ``plan=None`` means
   no injector at all (an attached one, even with an empty plan,
   switches ``Core.scripts_lines`` and ``Core.scripts_stores`` off);
   ``FaultPlan()`` attaches one that only counts candidate sites.
2. **How a run ends** -- :func:`run_world` -> :class:`WorldRun`, and
   what the ranks decided -- :meth:`Verdict.of`, judged once.
3. **The per-rank broadcast body** -- :func:`bcast_body`, with the one
   ``mode -> OcBcastConfig`` mapping (:func:`mode_config`) and the one
   seeded payload (:func:`seeded_payload`).

Callers keep what is their own: plan drawing, the *words* each harness
prints for a :class:`Verdict`, metric harvest.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Any, Callable, Generator

import numpy as np

from ..core.ocbcast import OcBcast, OcBcastConfig
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..member.heartbeat import MembershipConfig
from ..member.service import DEFAULT_SERVICE_OC, OcBcastService
from ..rcce.comm import Comm
from ..scc.chip import SccChip, run_spmd
from ..scc.config import SccConfig
from ..sim.errors import (
    DeadlockError, FaultInjected, SimError, WatchdogError,
    TimeoutError as SimTimeoutError,
)
from ..sim.trace import TraceRecord, Tracer
from .asyncio_backend import AsyncioNetwork

#: Virtual-time horizon of an asyncio world (the analogue of the SCC
#: kernel watchdog): a blocked rank with no event before this wall is a
#: wedge, reported as DeadlockError.
ASYNCIO_TIME_LIMIT = 1_000_000.0


def seeded_payload(seed: int, nbytes: int) -> bytes:
    """The broadcast payload the fault campaigns, the chaos runner and
    the sweep harness derive from a seed.  *Not* the payload of
    :func:`repro.transport.scenarios.payload_for` or of
    ``ChurnCampaign._payloads``: those draw differently and their bytes
    feed pinned digests, so they stay as they are rather than unify."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()


def mode_config(mode: str, *, ft_ack_data: bool = False) -> OcBcastConfig:
    """The OC-Bcast configuration of one protocol mode: ``baseline``
    (plain), ``ft``, ``service`` (crash-surviving) or ``byz``
    (RBC-hardened service), at the paper's fan-out, chunk and buffer
    count.  ``ft_ack_data`` only applies to the two bare modes -- the
    service's integrity layer covers data writes."""
    if mode in ("service", "byz"):
        return replace(DEFAULT_SERVICE_OC, byz=(mode == "byz"))
    if mode not in ("baseline", "ft"):
        raise ValueError(f"unknown mode {mode!r}")
    return OcBcastConfig(ft=(mode == "ft"), ft_ack_data=ft_ack_data)


# -- (1) arming a fresh world -------------------------------------------------


def scc_world(
    config: SccConfig | None = None,
    *,
    plan: FaultPlan | None = None,
    trace: bool = False,
    metrics: Any | None = None,
    crash_hook: Any | None = None,
    watchdog_us: float | None = None,
) -> Comm:
    """A fresh chip and its all-cores communicator.  The watchdog is
    armed here, before :func:`run_world` creates the core processes."""
    chip = SccChip(
        config,
        tracer=Tracer(enabled=trace),
        faults=FaultInjector(plan) if plan is not None else None,
        metrics=metrics,
    )
    if watchdog_us is not None:
        chip.sim.start_watchdog(watchdog_us)
    comm = Comm(chip)
    comm.transport_faults = crash_hook
    return comm


def asyncio_world(
    nranks: int,
    *,
    plan: FaultPlan | None = None,
    model: Any | None = None,
    seed: int = 0,
    crash_hook: Any | None = None,
) -> AsyncioNetwork:
    """A fresh asyncio network (it always traces)."""
    net = AsyncioNetwork(
        nranks, model=model, seed=seed, plan=plan,
        time_limit=ASYNCIO_TIME_LIMIT,
    )
    net.transport_faults = crash_hook
    return net


def world_tracer(world) -> Tracer:
    """The world's tracer: the chip's on SCC, the network's on asyncio."""
    return world.chip.tracer if isinstance(world, Comm) else world.tracer


# -- (2) how a run ends -------------------------------------------------------


@dataclass(frozen=True)
class WorldRun:
    """One body run to its end on one world."""

    #: Per-rank return values in rank order; empty unless ``status == ""``.
    values: tuple
    #: ``""`` (every rank returned), ``"deadlock"``, ``"timeout"`` or
    #: ``"crashed"``.
    status: str
    #: Makespan (us).  0.0 for an SCC run that did not finish; an
    #: asyncio run reports its clock at the wedge.
    latency: float
    world: Any
    #: The causal exception of a non-empty ``status``.
    error: BaseException | None = None

    @property
    def detail(self) -> str:
        return "" if self.error is None else str(self.error)

    @property
    def faults(self) -> FaultInjector | None:
        """The world's injector (``None`` when built with ``plan=None``)."""
        return self.world.chip.faults

    @property
    def records(self) -> list[TraceRecord]:
        return world_tracer(self.world).records

    def check(self) -> "WorldRun":
        """This run -- or its causal error, for callers to whom a run
        that did not finish is a failure, not a classification."""
        if self.error is not None:
            raise self.error
        return self


def _ending(exc: BaseException) -> str | None:
    """The run status an exception stands for (None: not ours)."""
    if isinstance(exc, (WatchdogError, DeadlockError)):
        return "deadlock"
    if isinstance(exc, SimTimeoutError):
        return "timeout"
    if isinstance(exc, FaultInjected):
        return "crashed"
    return None


def run_world(world, body: Callable[[Any], Generator]) -> WorldRun:
    """Run ``body(cc)`` on every rank of a fresh ``world``.

    SCC: the kernel stops at the first exception escaping a process and
    wraps it in ``SimError(...) from cause``; the *cause* decides the
    status.  asyncio: every rank runs to its own end, so the per-rank
    results are ranked -- a wedge (the termination oracle) beats an
    exhausted poll budget, and a rank's own escaped
    :class:`FaultInjected` is just that rank's value ``"crashed"``.  On
    both, an exception that is none of the three endings re-raises: it
    is a harness or protocol bug, never an outcome.
    """
    if isinstance(world, Comm):
        chip = world.chip
        start = chip.now
        try:
            res = run_spmd(chip, lambda core: body(world.attach(core)))
        except SimError as exc:
            cause = exc if exc.__cause__ is None else exc.__cause__
            status = _ending(cause)
            if status is None:
                raise
            return WorldRun((), status, 0.0, world, cause)
        return WorldRun(res.values, "", res.end_time - start, world)

    start = world.now
    results = world.run(body, return_exceptions=True)
    latency = world.now - start
    errors = [r for r in results if isinstance(r, BaseException)]
    for exc in errors:
        if _ending(exc) is None:
            raise exc
    for status in ("deadlock", "timeout"):
        for exc in errors:
            if _ending(exc) == status:
                return WorldRun((), status, latency, world, exc)
    values = tuple(
        "crashed" if isinstance(r, FaultInjected) else r for r in results
    )
    return WorldRun(values, "", latency, world)


@dataclass(frozen=True)
class Verdict:
    """What one broadcast run decided, judged once for every harness:
    counts over *honest* ranks (a Byzantine run's adversaries are
    excluded), which each harness words in its own vocabulary."""

    ending: str  # WorldRun.status: "" when every rank returned
    crcs: frozenset  # distinct payload crcs honest ranks delivered
    n_ok: int  # delivered the source crc
    n_wrong: int  # delivered another crc
    n_aborted: int
    n_detected: int
    n_crashed: int
    n_evicted: int
    n_self_evicted: int
    n_other: int  # returned none of the above
    n_injected: int
    #: A Byzantine run's compromised ranks (``None``: not a byz run).
    adversary: frozenset | None = None

    @classmethod
    def of(
        cls, ending: str, values: tuple, *, src_crc: int, n_injected: int,
        adversary: frozenset | None = None,
    ) -> "Verdict":
        """Judge per-rank :func:`bcast_body` values; ``adversary`` is a
        Byzantine run's compromised ranks, ``None`` in every other mode."""
        honest = [v for r, v in enumerate(values) if r not in (adversary or ())]
        crcs = [v[1] for v in honest if isinstance(v, tuple)]
        n_ok = crcs.count(src_crc)
        counts = [honest.count(s) for s in (
            "aborted", "detected", "crashed", "evicted", "self_evicted",
        )]
        return cls(ending, frozenset(crcs), n_ok, len(crcs) - n_ok, *counts,
                   len(honest) - len(crcs) - sum(counts), n_injected, adversary)

    @property
    def n_delivered(self) -> int:
        return self.n_ok + self.n_wrong

    @property
    def n_refused(self) -> int:
        return self.n_aborted + self.n_detected

    @property
    def n_honest(self) -> int:
        return self.n_delivered + self.n_refused + self.n_crashed \
            + self.n_evicted + self.n_self_evicted + self.n_other

    def survivors(self, n_evicted: int) -> str:
        """``"1 crashed, 2 evicted, survivors delivered"`` -- or ``""``
        (each harness counts its own evicted members)."""
        parts = [f"{n} {what}" for what, n in (
            ("crashed", self.n_crashed), ("evicted", n_evicted)) if n]
        return ", ".join(parts) + ", survivors delivered" if parts else ""

    @property
    def agreement(self) -> bool:
        """At most one crc delivered, and no refuser beside a deliverer."""
        return len(self.crcs) <= 1 and not (self.n_delivered and self.n_refused)

    @property
    def validity(self) -> bool:
        """Every delivered crc is the source's -- exempt, as in I7, when
        the source (rank 0) is compromised."""
        return not self.n_wrong or 0 in (self.adversary or ())

    @property
    def violation(self) -> bool:
        """A safety or termination promise broke.  An exhausted retry
        budget (``timeout``) or a uniform refusal declined instead."""
        if self.ending:
            return self.ending != "timeout"
        return bool(self.n_other) or not (self.agreement and self.validity) \
            or not (self.n_delivered or self.n_refused)


# -- (3) the per-rank broadcast body ------------------------------------------


def bcast_body(
    world,
    oc_config: OcBcastConfig,
    payload: bytes,
    *,
    root: int = 0,
    member_config: MembershipConfig | None = None,
) -> Callable[[Any], Generator]:
    """One broadcast of ``payload`` from ``root``: the service when
    ``oc_config.service``, a bare OC-Bcast otherwise.  Each rank returns
    ``"crashed"`` (a fault killed it mid-call), the service's non-ok
    status (``"evicted"`` / ``"aborted"`` / ``"detected"``), or
    ``("ok", crc32 of the bytes it now holds)``."""
    nbytes = len(payload)
    if oc_config.service:
        svc = OcBcastService(
            world, root=root, oc_config=oc_config, member_config=member_config
        )

        def bcast(cc, buf) -> Generator:
            return svc.bcast(cc, buf, nbytes)
    else:
        oc = OcBcast(world, oc_config)

        def bcast(cc, buf) -> Generator:
            return oc.bcast(cc, root, buf, nbytes)

    def body(cc) -> Generator:
        buf = cc.alloc(nbytes)
        if cc.rank == root:
            buf.write(payload)
        try:
            status = yield from bcast(cc, buf)
        except FaultInjected:
            return "crashed"
        if status not in (None, "ok"):  # a bare OC-Bcast returns None
            return status
        return ("ok", zlib.crc32(buf.read()))

    return body
