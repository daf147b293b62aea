"""A P54C core: the timed cache-line primitives everything builds on.

The core executes one memory transaction at a time (the paper notes the
P54C cannot overlap them -- why LogP's ``g`` is unnecessary).  All timed
operations are generators driven with ``yield from``; their durations
implement Formulas 1-6 with the configured Table 1 constants, plus
queueing at the target MPB's port and (optionally) on mesh links.

Primitives:

- :meth:`mpb_access` -- read or write ``n`` cache lines of some core's MPB.
- :meth:`mem_read` / :meth:`mem_write` -- off-chip private memory, through
  the L1 model.
- :meth:`compute` -- plain local work.

Byte movement is done by the RCCE layer after/els alongside the timing;
the core layer deals in durations and arbitration only.

Every timed primitive is a fault-injector occurrence: one ``core_op``,
plus one ``mpb_access`` per :meth:`Core.mpb_access`.  The core counts
them itself (``ops`` / ``accesses``) and enters the injector only at an
armed occurrence (``ops_arm`` / ``accesses_arm``; see
:mod:`repro.faults.injector`, "Countdowns").

EXACT mode runs its per-line arbitration one of two ways.  Where the
per-line hooks are inert (:attr:`Core.scripts_lines`: no link walk, no
jitter draw, every per-line duration positive, and no armed occurrence
among the ones the script replaces) an access -- or a whole
MPB<->private-memory transfer (:meth:`Core.transfer_script`) -- is one
:class:`repro.sim.LegScript`: kernel callbacks make the port holds and
timers while the rank sleeps, and the script's opening stretch runs
virtually while the port is idle.  Everywhere else the per-line
generator loop of :meth:`Core.mpb_access` runs; it is also the
``exact_coalescing=False`` reference the script is tested against.

A run of one-line register-sourced writes -- an RBC vote fan-out, one
write into every member's MPB -- is one leg script in every contention
mode where the per-access hooks are inert (:attr:`Core.scripts_stores`):
:meth:`Core.store_script`, whose landings deposit each line where the
per-write loop's resumption would.  Nothing else about a store is
mode-specific, so only the store leg differs by mode
(:meth:`Core.store_leg`).

A script consumes the injector occurrences of the per-op path it
replaces in bulk, when none of them is armed (:meth:`Core.claim_lines`,
:meth:`Core.claim_stores`):

=========================================  ===========  ==============
scripted op                                ``core_op``  ``mpb_access``
=========================================  ===========  ==============
:meth:`Core.mpb_access` (any ``n``)        1            1
1-line :meth:`Core.mpb_call`               2            1
MPB<->MPB put or get of ``m`` lines        1 + 2m       2m
:meth:`Core.transfer_script` of ``m``      2m + 1       m
store run of ``n`` (:meth:`store_script`)  2n           n
=========================================  ===========  ==============
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Sequence

import numpy as np

from ..faults.plan import NEVER
from ..sim import Event, LegScript
from ..sim.resources import Leg
from . import costs
from .config import CACHE_LINE, ContentionMode, SccConfig
from .memory import L1Cache, MemRef, PrivateMemory

if TYPE_CHECKING:  # pragma: no cover
    from .chip import SccChip


def lines_of(nbytes: int) -> int:
    """Number of cache-line packets needed for ``nbytes`` of payload."""
    return -(-nbytes // CACHE_LINE)


class CoreStats:
    """Per-core virtual-time accounting, accrued by the timed primitives.

    Pure float/int accruals -- no events, no branching on configuration --
    so keeping them always-on cannot perturb the schedule.  Harvested by
    :func:`repro.obs.collect_chip_metrics` after a run.
    """

    __slots__ = (
        "compute_time", "mpb_lines", "mpb_time",
        "mem_lines", "mem_time", "polls", "poll_time",
    )

    def __init__(self) -> None:
        self.compute_time = 0.0  # local work (Core.compute)
        self.mpb_lines = 0       # cache lines moved through any MPB port
        self.mpb_time = 0.0      # elapsed virtual time inside mpb_access
        self.mem_lines = 0       # off-chip lines read or written
        self.mem_time = 0.0      # elapsed virtual time in mem_read/mem_write
        self.polls = 0           # flag-poll detections (rcce.flags)
        self.poll_time = 0.0     # charged polling-sweep time

    def as_dict(self) -> dict[str, float]:
        return {name: float(getattr(self, name)) for name in self.__slots__}


class Core:
    """One core of the simulated chip."""

    def __init__(self, chip: "SccChip", core_id: int) -> None:
        self.chip = chip
        self.sim = chip.sim
        self.config: SccConfig = chip.config
        self.id = core_id
        self.tile = chip.mesh.tile_of_core(core_id)
        self.mpb = chip.mpbs[core_id]
        self.mem = PrivateMemory(chip.config, core_id)
        self.l1 = L1Cache(chip.config.l1_lines)
        self.mem_dist = chip.mesh.mem_distance(core_id)
        # Independent, reproducible jitter stream per core.
        self.rng = np.random.default_rng(np.random.SeedSequence([chip.config.seed, core_id]))
        # Constant per-core costs, precomputed once (Formulas 5/6 depend
        # only on the core's memory-controller distance, fixed at build).
        cfg = chip.config
        self._mem_read_cost = costs.mem_read_line(cfg, self.mem_dist)
        self._mem_write_cost = costs.mem_write_line(cfg, self.mem_dist)
        #: Lazy per-target cache of (hop distance, uncontended MPB line
        #: cost) pairs (Formulas 2/3); fixed after construction.
        self._line_cost_to: dict[int, tuple[int, float]] = {}
        #: Virtual-time accounting (always on; see CoreStats).
        self.stats = CoreStats()
        #: Fault-injector occurrences of this core -- timed primitives and
        #: MPB transactions -- and the occurrence numbers at which the
        #: injector must be entered (set by FaultInjector.attach; NEVER
        #: without one).
        self.ops = self.accesses = 0
        self.ops_arm = self.accesses_arm = NEVER
        # The configuration half of the script predicate (the other half,
        # "no armed occurrence among the script's", is claim_lines').  A
        # script skips the per-access hooks, so those must be inert: no
        # link walk, no jitter draw.  It has no way to *not* yield for a
        # zero duration, so every leg duration must be positive (at
        # distance 0 the rest of a line transaction is shortest).
        self._inert = (
            not cfg.model_links
            and cfg.jitter == 0.0
            and cfg.o_mpb > max(cfg.t_mpb_port, cfg.t_mpb_port_write)
            and min(
                cfg.t_mpb_port, cfg.t_mpb_port_write,
                cfg.o_put_mpb, cfg.o_get_mpb, cfg.o_put_mem, cfg.o_get_mem,
                self._mem_read_cost, self._mem_write_cost, cfg.t_l1_hit,
            ) > 0.0
        )
        self._scriptable = (
            self._inert
            and cfg.exact_coalescing
            and cfg.contention_mode is ContentionMode.EXACT
        )
        #: Lazy per-(target, write) cache of hold legs (see hold_leg).
        self._hold_legs: dict[tuple[int, bool], tuple] = {}
        #: Lazy per-targets cache of store-run legs (see store_script).
        self._store_runs: dict[tuple[int, ...], tuple[Leg, ...]] = {}

    # -- cost helpers --------------------------------------------------------

    def mpb_line_cost(self, d: int) -> float:
        """Round-trip cost of one cache-line MPB access at distance ``d``
        (Formulas 2/3: read and write-completion are both o_mpb + 2d*Lhop)."""
        return costs.mpb_line(self.config, d)

    def _distance_and_line_cost(self, target_core: int) -> tuple[int, float]:
        """Hop distance to ``target_core``'s MPB and the uncontended cost
        of one cache-line access there (cached per target)."""
        cached = self._line_cost_to.get(target_core)
        if cached is None:
            d = self.chip.mesh.core_distance(self.id, target_core)
            cached = self._line_cost_to[target_core] = (d, self.mpb_line_cost(d))
        return cached

    def mem_read_line_cost(self) -> float:
        """Off-chip read of one line, L1 miss (Formula 6)."""
        return self._mem_read_cost

    def mem_write_line_cost(self) -> float:
        """Off-chip write completion of one line (Formula 5)."""
        return self._mem_write_cost

    def jittered(self, t: float) -> float:
        """Apply the configured core-overhead jitter to a duration."""
        j = self.config.jitter
        if j <= 0.0 or t <= 0.0:
            return t
        return t * (1.0 + self.rng.uniform(-j, j))

    # -- timed primitives ------------------------------------------------------
    #
    # Each opens with its injector countdown(s): count the occurrence, or
    # -- at an armed one -- let the injector count it, which returns the
    # extra pause (CORE_PAUSE) or mesh stall (LINK_STALL, storms) and
    # raises :class:`repro.sim.FaultInjected` once this core is crashed.

    def compute(self, duration: float) -> Event:
        """Local work for ``duration`` microseconds (no arbitration)."""
        d = self.jittered(duration)
        n = self.ops + 1
        if n < self.ops_arm:
            self.ops = n
        else:
            d += self.chip.faults.core_op(self.id)
        self.stats.compute_time += d
        return self.sim.timeout(d)

    def mpb_access(
        self,
        target_core: int,
        n_lines: int,
        *,
        write: bool = False,
    ) -> Generator[Event, object, None]:
        """Access ``n_lines`` cache lines of ``target_core``'s MPB.

        Charges ``n * (o_mpb + 2d*Lhop)`` and arbitrates the target MPB's
        port according to the contention mode.  Reads and writes have the
        same *completion cost* in the model (Formulas 2-3) but writes
        occupy the target port longer; callers move the bytes.
        """
        if n_lines <= 0:
            return
        cfg = self.config
        sim = self.sim
        stats = self.stats
        stats.mpb_lines += n_lines
        t0 = sim.now
        if self.claim_lines(1, 1):
            # EXACT with inert per-line hooks: one script of one-line
            # holds, virtual while the port stays idle.
            yield LegScript(sim, (self.hold_leg(target_core, write),) * n_lines)
            stats.mpb_time += sim.now - t0
            return
        stall = 0.0
        n = self.ops + 1
        if n < self.ops_arm:
            self.ops = n
        else:
            stall = self.chip.faults.core_op(self.id)
        n = self.accesses + 1
        if n < self.accesses_arm:
            self.accesses = n
        else:
            stall += self.chip.faults.link_stall(self.id, target_core)
        if stall > 0.0:
            yield sim.timeout(stall)
        d, line_cost = self._distance_and_line_cost(target_core)
        per_line = self.jittered(line_cost)
        service = cfg.t_mpb_port_write if write else cfg.t_mpb_port
        mode = cfg.contention_mode
        if mode is ContentionMode.IDEAL or mode is ContentionMode.ANALYTIC:
            # ANALYTIC runs that reach the kernel (fault replays inside an
            # adaptive-fidelity campaign) use IDEAL per-primitive timing;
            # the analytic engine replays exactly this arithmetic.
            yield sim.timeout(n_lines * per_line)
            stats.mpb_time += sim.now - t0
            return
        port = self.chip.mpbs[target_core].port
        if mode is ContentionMode.BATCH:
            # Inline of port.serve (one generator frame less per transfer).
            yield port.acquire()
            try:
                hold = n_lines * service
                if hold > 0:
                    yield sim.timeout(hold)
            finally:
                port.release()
            rest = n_lines * (per_line - service)
            if rest > 0:
                yield sim.timeout(rest)
            stats.mpb_time += sim.now - t0
            return
        # EXACT: per-line arbitration (and per-line link occupancy).  The
        # port arbiter structurally favours mesh-closer requesters -- the
        # source of the persistent per-core unfairness of Figure 4.
        walk_links = cfg.model_links
        rest = max(0.0, per_line - service)
        retry_factor = cfg.t_retry_per_hop * d
        priority = float(d)
        if walk_links:
            src_tile = self.tile
            dst_tile = self.chip.mesh.tile_of_core(target_core)
        for _ in range(n_lines):
            if walk_links:
                # Occupy links on the data-carrying direction.
                yield from self.chip.mesh.transfer_packet(src_tile, dst_tile)
            # Inline of port.serve(service, priority) -- saves a generator
            # frame per cache line on the hottest path in the simulator.
            waited = yield port.acquire(priority)
            try:
                if service > 0:
                    yield sim.timeout(service)
            finally:
                port.release()
            if waited > 0.0 and retry_factor > 0.0:
                # A request that lost arbitration was NACKed and retried
                # over the full mesh path: the farther the core, the more
                # each lost race costs (Figure 4's distance unfairness).
                yield sim.timeout(waited * retry_factor)
            if rest > 0:
                yield sim.timeout(rest)
        stats.mpb_time += sim.now - t0

    @property
    def scripts_lines(self) -> bool:
        """Whether EXACT cache-line accesses run as leg scripts
        (:meth:`scripted`) instead of one generator step per timer:
        ``exact_coalescing``, no link model, no jitter, strictly positive
        per-line durations, and the next timed primitive and MPB
        transaction of this core unarmed (:meth:`claim_lines` without
        the counting)."""
        return (
            self._scriptable
            and self.ops + 1 < self.ops_arm
            and self.accesses + 1 < self.accesses_arm
        )

    def claim_lines(self, ops: int, accesses: int) -> bool:
        """:attr:`scripts_lines` for a line script replacing ``ops`` timed
        primitives and ``accesses`` MPB transactions of the per-op path
        (the table in the module docstring): True -- and they are
        counted now, in bulk -- if the configuration allows scripts and
        none of them is armed, i.e. the per-op path would enter the
        injector at none of them.  False: nothing is counted."""
        if not self._scriptable:
            return False
        ops += self.ops
        accesses += self.accesses
        if ops < self.ops_arm and accesses < self.accesses_arm:
            self.ops, self.accesses = ops, accesses
            return True
        return False

    def hold_leg(self, target_core: int, write: bool = False) -> tuple:
        """The :class:`~repro.sim.LegScript` hold leg of one cache-line
        access to ``target_core``'s MPB: what the EXACT per-line loop of
        :meth:`mpb_access` does for one line (requires
        :meth:`claim_lines`)."""
        key = (target_core, write)
        leg = self._hold_legs.get(key)
        if leg is None:
            cfg = self.config
            d, line_cost = self._distance_and_line_cost(target_core)
            service = cfg.t_mpb_port_write if write else cfg.t_mpb_port
            leg = self._hold_legs[key] = (
                self.chip.mpbs[target_core].port,
                service,
                line_cost - service,
                float(d),
                cfg.t_retry_per_hop * d,
            )
        return leg

    def scripted(
        self, legs: Sequence, overhead: float = 0.0
    ) -> Generator[Event, object, None]:
        """Sleep through ``overhead`` of local work (a put/get call
        overhead; 0.0 for none) and then ``legs`` -- hold legs from
        :meth:`hold_leg` for MPB lines, bare numbers for one-line private
        memory accesses of that cost -- as one leg script: one wake-up
        instead of two or three per line (requires :meth:`claim_lines`).

        :class:`CoreStats` is replayed on wake from the script's marks
        (virtual or real, they are the loop's instants) with the float
        additions the per-line primitives make, in their order; the
        caller replays the L1, as :meth:`transfer_script` does.
        """
        stats = self.stats
        t = self.sim.now
        if overhead:
            stats.compute_time += overhead
            marks = iter((yield LegScript(self.sim, (overhead, *legs))))
            t = next(marks)
        else:
            marks = iter((yield LegScript(self.sim, legs)))
        mpb_lines = 0
        mpb_time = stats.mpb_time
        mem_time = stats.mem_time
        for leg, end in zip(legs, marks):
            if type(leg) is tuple:
                mpb_lines += 1
                mpb_time += end - t
            else:
                mem_time += leg
            t = end
        stats.mpb_lines += mpb_lines
        stats.mem_lines += len(legs) - mpb_lines
        stats.mpb_time = mpb_time
        stats.mem_time = mem_time

    def mpb_call(
        self, overhead: float, target_core: int, n_lines: int, *, write: bool = False
    ) -> Generator[Event, object, None]:
        """A register-sourced/-destined MPB access: the put/get call
        ``overhead``, then :meth:`mpb_access`."""
        if n_lines == 1 and self.claim_lines(2, 1):
            yield from self.scripted((self.hold_leg(target_core, write),), overhead)
        else:
            yield self.compute(overhead)
            yield from self.mpb_access(target_core, n_lines, write=write)

    @property
    def scripts_stores(self) -> bool:
        """Whether a run of one-line register-sourced writes is one leg
        script (:meth:`store_script`): the per-access hooks are inert --
        no jitter, no link model, every leg duration positive, and the
        next write's timed primitives and MPB transaction unarmed
        (:meth:`claim_stores` without the counting).  In every
        contention mode alike."""
        return (
            self._inert
            and self.ops + 2 < self.ops_arm
            and self.accesses + 1 < self.accesses_arm
        )

    def claim_stores(self, n: int) -> bool:
        """:attr:`scripts_stores` for a run of ``n`` writes (``2n`` timed
        primitives, ``n`` MPB transactions), counting them as
        :meth:`claim_lines` does."""
        if not self._inert:
            return False
        ops = self.ops + 2 * n
        accesses = self.accesses + n
        if ops < self.ops_arm and accesses < self.accesses_arm:
            self.ops, self.accesses = ops, accesses
            return True
        return False

    def store_leg(self, target_core: int) -> Leg:
        """What :meth:`mpb_access` does for one written line of
        ``target_core``'s MPB, as one :class:`~repro.sim.LegScript` leg:
        the EXACT :meth:`hold_leg`, the BATCH port hold of one line and
        its rest, the IDEAL line cost (requires :meth:`claim_stores`)."""
        cfg = self.config
        mode = cfg.contention_mode
        if mode is ContentionMode.EXACT:
            return self.hold_leg(target_core, True)
        line_cost = self._distance_and_line_cost(target_core)[1]
        if mode is ContentionMode.BATCH:
            service = cfg.t_mpb_port_write
            return (
                self.chip.mpbs[target_core].port,
                service, line_cost - service, 0.0, 0.0,
            )
        return line_cost

    def store_script(
        self, targets: tuple[int, ...], land: Callable[[], object]
    ) -> Generator[Event, object, None]:
        """One-line register-sourced writes into each of ``targets``'
        MPBs, back to back -- the put call overhead, then
        :meth:`store_leg` -- as one leg script with landings (requires
        :meth:`claim_stores`).  ``land()`` deposits the next line: the
        script runs it in the hop that opens the following write, where
        the per-write loop's resumption deposits it, and the owner runs
        the last one on wake.  :class:`CoreStats` is replayed after the
        legs, from their marks, with the loop's float additions in the
        loop's order."""
        o_put = self.config.o_put_mpb
        legs = self._store_runs.get(targets)
        if legs is None:
            legs = self._store_runs[targets] = tuple(
                leg for target in targets for leg in (o_put, self.store_leg(target))
            )
        marks = yield LegScript(self.sim, legs, "stores", (None, land) * len(targets))
        stats = self.stats
        compute_time, mpb_time = stats.compute_time, stats.mpb_time
        ends = iter(marks)
        for called, stored in zip(ends, ends):
            compute_time += o_put
            mpb_time += stored - called
        stats.compute_time = compute_time
        stats.mpb_time = mpb_time
        stats.mpb_lines += len(targets)
        land()

    def claim_transfer(self, ref: MemRef, m: int) -> bool:
        """Whether an EXACT transfer of ``m`` lines between an MPB and
        ``ref`` runs as one :meth:`transfer_script`: one L1 line per
        32-byte step of ``ref``, and :meth:`claim_lines` of its ``2m+1``
        timed primitives and ``m`` MPB transactions."""
        return ref.offset % CACHE_LINE == 0 and self.claim_lines(2 * m + 1, m)

    def transfer_script(
        self, target_core: int, ref: MemRef, m: int, *, write: bool,
        overhead: float,
    ) -> Generator[Event, object, None]:
        """A whole EXACT put/get between ``target_core``'s MPB and ``ref``
        -- its call ``overhead``, then ``m`` lines -- as one leg script
        (requires :meth:`claim_transfer`): [port | mem_write] per line
        for a get, [mem_read | port] per line for a put.  While the port
        stays idle the lines run as one virtual stretch -- a few events
        for the whole transfer.  The L1 ends up as the per-line loop
        leaves it (same accesses, same order)."""
        hold = self.hold_leg(target_core, write)
        line0 = ref.offset // CACHE_LINE
        if not write:
            yield from self.scripted((hold, self._mem_write_cost) * m, overhead)
            self.l1.touch(range(line0, line0 + m))  # write-allocate, as mem_write does
            return
        # A read's length is its L1 outcome, and only this core touches
        # its L1: the reads are performed on it up front.
        miss = self._mem_read_cost
        hit = self.config.t_l1_hit
        legs: list = []
        for was_hit, count in self.l1.touch(range(line0, line0 + m)):
            legs += (hit if was_hit else miss, hold) * count
        yield from self.scripted(legs, overhead)

    def mem_read(self, ref: MemRef) -> Generator[Event, object, None]:
        """Read ``ref`` from private off-chip memory (through the L1)."""
        if ref.owner != self.id:
            raise ValueError(
                f"core {self.id} cannot access private memory of core {ref.owner}"
            )
        n = self.ops + 1
        if n < self.ops_arm:
            self.ops = n
            total = 0.0
        else:
            total = self.chip.faults.core_op(self.id)
        lines = ref.line_addrs()  # computed once, reused below
        hit_cost = self.config.t_l1_hit
        miss_cost = self._mem_read_cost
        # One float addition per line, in line order: the sum is not
        # ``count * cost`` to the last bit.
        for was_hit, count in self.l1.touch(lines):
            cost = hit_cost if was_hit else miss_cost
            for _ in range(count):
                total += cost
        total = self.jittered(total)
        self.stats.mem_lines += len(lines)
        self.stats.mem_time += total
        if total > 0:
            yield self.sim.timeout(total)

    def mem_write(self, ref: MemRef) -> Generator[Event, object, None]:
        """Write ``ref`` to private off-chip memory (write-allocate)."""
        if ref.owner != self.id:
            raise ValueError(
                f"core {self.id} cannot access private memory of core {ref.owner}"
            )
        lines = ref.line_addrs()  # computed once, reused below
        self.l1.touch(lines)
        total = len(lines) * self._mem_write_cost
        n = self.ops + 1
        if n < self.ops_arm:
            self.ops = n
        else:
            total += self.chip.faults.core_op(self.id)
        total = self.jittered(total)
        self.stats.mem_lines += len(lines)
        self.stats.mem_time += total
        if total > 0:
            yield self.sim.timeout(total)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Core {self.id} tile={self.tile}>"
