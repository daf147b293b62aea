"""Chip configuration and timing constants.

All times are in microseconds, matching the paper's Table 1.  The default
values ARE Table 1; the extra microarchitectural constants (port service
time, link occupancy, poll cost, jitter) are the calibration knobs that
make the *emergent* behaviours (Figure 4 contention knees, notification
polling overheads) come out at the paper's scale.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any

#: Bytes per cache line -- the unit of every SCC mesh transaction.
CACHE_LINE = 32

#: MPB size per core in bytes (16 KB per tile, split between the 2 cores).
MPB_BYTES = 8192

#: MPB size per core in cache lines.
MPB_LINES = MPB_BYTES // CACHE_LINE  # 256


class ContentionMode(enum.Enum):
    """Fidelity of MPB-port / mesh-link contention modeling.

    EXACT
        Every cache line of a transfer arbitrates for the target MPB port
        individually (and for mesh links when link modeling is on).  Most
        faithful; O(message lines) events per transfer.  Used for the
        Figure 4 contention study.
    BATCH
        A transfer acquires the target MPB port once and holds it for
        ``lines * t_mpb_port``.  Preserves saturation knees and ordering
        effects at a fraction of the event count.  The default.
    IDEAL
        No port or link queueing at all; timing is exactly the analytic
        Formulas 1-12.  Used to cross-validate the LogP model.
    ANALYTIC
        IDEAL timing evaluated *without the event kernel*: benchmark and
        campaign entry points that recognise this mode hand whole
        broadcasts (or whole batches of them) to
        :class:`repro.scc.analytic.AnalyticEngine`, which replays the
        protocol's closed-form recurrence in numpy -- bit-identical to
        an IDEAL simulation, orders of magnitude faster.  Code that
        *does* run the event kernel under this mode (e.g. a fault-plan
        replay inside an adaptive-fidelity campaign) gets IDEAL
        per-primitive timing.
    """

    EXACT = "exact"
    BATCH = "batch"
    IDEAL = "ideal"
    ANALYTIC = "analytic"


def resolve_contention_mode(name: "str | ContentionMode") -> ContentionMode:
    """The one place mode strings become :class:`ContentionMode`.

    Accepts an existing enum member or any case-insensitive value string
    (``"exact"``, ``"batch"``, ``"ideal"``, ``"analytic"``); every CLI
    subcommand and config loader resolves through here so the accepted
    spellings (and the error message) cannot drift apart.
    """
    if isinstance(name, ContentionMode):
        return name
    try:
        return ContentionMode(str(name).strip().lower())
    except ValueError:
        choices = "/".join(m.value for m in ContentionMode)
        raise ValueError(
            f"unknown contention mode {name!r}: expected one of {choices}"
        ) from None


@dataclass(frozen=True)
class SccConfig:
    """Full parameterisation of the simulated chip.

    The defaults describe the real SCC with the paper's measured constants;
    ``mesh_cols``/``mesh_rows`` may be raised for many-core scaling studies
    (cores = 2 * cols * rows).
    """

    # --- geometry ---------------------------------------------------------
    mesh_cols: int = 6
    mesh_rows: int = 4
    cores_per_tile: int = 2
    mpb_bytes: int = MPB_BYTES
    #: Private off-chip memory per core (bytes); grows on demand.
    private_mem_bytes: int = 16 * 1024 * 1024

    # --- Table 1 constants (microseconds) ----------------------------------
    #: Per-router traversal time of one cache-line packet.
    l_hop: float = 0.005
    #: Core overhead of one cache-line MPB read or write.
    o_mpb: float = 0.126
    #: Overhead of writing one cache line to off-chip memory.
    o_mem_w: float = 0.461
    #: Overhead of reading one cache line from off-chip memory.
    o_mem_r: float = 0.208
    #: Fixed call overhead of put() with an MPB source.
    o_put_mpb: float = 0.069
    #: Fixed call overhead of get() with an MPB destination.
    o_get_mpb: float = 0.33
    #: Fixed call overhead of put() with an off-chip source.
    o_put_mem: float = 0.19
    #: Fixed call overhead of get() with an off-chip destination.
    o_get_mem: float = 0.095

    # --- microarchitectural calibration knobs -------------------------------
    #: Time one cache-line *read* occupies the target MPB's port.  The
    #: default puts the saturation knee of 128-CL concurrent gets at ~24
    #: accessors, where the paper first measures contention (Section 3.3).
    t_mpb_port: float = 0.0126
    #: Time one cache-line *write* occupies the target MPB's port (commit
    #: plus acknowledgment generation).  Writes hold the port longer,
    #: which is why Figure 4b's concurrent 1-line puts show a stronger
    #: knee and >4x unfairness at 48 cores.
    t_mpb_port_write: float = 0.016
    #: Retry amplification per hop: a request that lost port arbitration
    #: is NACKed and retried over the mesh, so its effective extra delay
    #: is its queueing delay scaled by ``t_retry_per_hop * distance``
    #: (EXACT mode only).  Source of Figure 4's >4x put unfairness.
    t_retry_per_hop: float = 0.25
    #: Time one cache-line packet occupies a mesh link (32 B at ~16 GB/s).
    #: Small enough that the mesh never saturates at SCC scale (Section 3.3).
    t_link: float = 0.002
    #: Cost of polling one flag (an L1-invalidate plus local-MPB cache-line
    #: read, so roughly two o_mpb).  A core waiting on n flags notices a
    #: newly set flag only at its next sweep, i.e. up to ``n * t_poll``
    #: late -- the paper's "k=47 polling" effect.
    t_poll: float = 0.25
    #: L1 hit cost per cache line for private-memory reads (approximately
    #: zero in the paper's Formula 14 cache refinement).
    t_l1_hit: float = 0.005
    #: L1 capacity in cache lines (16 KB data cache on the P54C).
    l1_lines: int = 512
    #: Uniform jitter (+/- fraction) applied to per-transfer core overheads
    #: to desynchronise lock-step SPMD loops, as real cores desynchronise.
    #: 0 disables jitter; benches that average over iterations enable it.
    jitter: float = 0.0
    #: Seed for the jitter RNG (determinism).
    seed: int = 0x5CC

    # --- behaviour switches -------------------------------------------------
    contention_mode: ContentionMode = ContentionMode.BATCH
    #: Model per-link occupancy (needed only for the mesh stress test).
    model_links: bool = False
    #: EXACT mode only: run cache-line accesses -- up to a whole put/get
    #: between an MPB and private memory -- as leg scripts, one wake-up
    #: instead of per-line generator churn and no event per line while
    #: the port stays idle.  Bit-identical to the per-line loop, which
    #: off selects for A/B determinism checks.  Has no effect in
    #: BATCH/IDEAL modes or with ``model_links`` or jitter, nor on runs
    #: of one-line stores (``Core.scripts_stores``); a fault injector
    #: switches a script off only where one of its occurrences is armed
    #: (``Core.claim_lines``).
    exact_coalescing: bool = True

    def __post_init__(self) -> None:
        if self.mesh_cols < 1 or self.mesh_rows < 1:
            raise ValueError("mesh must be at least 1x1")
        if self.cores_per_tile < 1:
            raise ValueError("cores_per_tile must be >= 1")
        if self.mpb_bytes % CACHE_LINE:
            raise ValueError("MPB size must be a multiple of the cache line")
        for name in (
            "l_hop", "o_mpb", "o_mem_w", "o_mem_r", "o_put_mpb",
            "o_get_mpb", "o_put_mem", "o_get_mem", "t_mpb_port",
            "t_mpb_port_write", "t_retry_per_hop", "t_link", "t_poll", "t_l1_hit",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    # --- derived ------------------------------------------------------------

    @property
    def num_tiles(self) -> int:
        return self.mesh_cols * self.mesh_rows

    @property
    def num_cores(self) -> int:
        return self.num_tiles * self.cores_per_tile

    @property
    def mpb_lines(self) -> int:
        return self.mpb_bytes // CACHE_LINE

    def with_(self, **changes: Any) -> "SccConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


#: The configuration used throughout the paper's experiments.
DEFAULT_CONFIG = SccConfig()
