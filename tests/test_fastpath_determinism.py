"""Determinism contract of the simulator fast path.

The EXACT fast path (``SccConfig.exact_coalescing``: leg scripts whose
opening stretch runs virtually while the port is idle) must be
*bit-identical* to the per-line EXACT loop -- same traces, same latencies,
contended or not, faults armed or not.  These tests run every workload
twice (coalescing on / off) and compare exactly; see docs/PERFORMANCE.md
for why equality (not approximate closeness) is the contract.
"""

import random
from typing import Generator

import pytest

from repro.bench import (
    BcastSpec,
    FaultCampaign,
    concurrent_access,
    run_broadcast,
    sweep_broadcast,
)
from repro.bench.parallel import parallel_map
from repro.faults import FaultKind
from repro.rcce import Comm
from repro.rcce.onesided import get, put
from repro.scc import ContentionMode, SccChip, SccConfig, run_spmd
from repro.scc.config import CACHE_LINE
from repro.sim import Resource, Simulator, Tracer


def _exact_config(coalesce: bool, **overrides) -> SccConfig:
    return SccConfig(
        contention_mode=ContentionMode.EXACT,
        exact_coalescing=coalesce,
        **overrides,
    )


def _traced_broadcast(cfg: SccConfig, nbytes: int = 24 * CACHE_LINE):
    """One OC broadcast on a traced chip; returns (records, makespan)."""
    tracer = Tracer(enabled=True)
    chip = SccChip(cfg, tracer=tracer)
    comm = Comm(chip)
    bcast = BcastSpec("oc", k=7).build(comm)
    payload = bytes(range(256)) * (nbytes // 256 + 1)

    def program(core) -> Generator:
        cc = comm.attach(core)
        buf = cc.alloc(nbytes)
        if cc.rank == 0:
            buf.write(payload[:nbytes])
        yield from bcast(cc, 0, buf, nbytes)
        assert buf.read() == payload[:nbytes]
        return None

    res = run_spmd(chip, program)
    return tuple(tracer.records), res.end_time


class TestCoalescingBitIdentity:
    def test_uncontended_broadcast_traces_identical(self):
        on = _traced_broadcast(_exact_config(True))
        off = _traced_broadcast(_exact_config(False))
        assert on == off

    def test_uncontended_broadcast_with_jitter(self):
        on = _traced_broadcast(_exact_config(True, jitter=0.02))
        off = _traced_broadcast(_exact_config(False, jitter=0.02))
        assert on == off

    @pytest.mark.parametrize("nbytes", [CACHE_LINE, 7 * CACHE_LINE, 192 * CACHE_LINE])
    def test_broadcast_latencies_identical(self, nbytes):
        def latencies(coalesce):
            return run_broadcast(
                BcastSpec("oc", k=7), nbytes,
                config=_exact_config(coalesce), iters=2, warmup=1,
            ).latencies

        assert latencies(True) == latencies(False)

    @pytest.mark.parametrize("op,n_cores", [("get", 8), ("get", 24), ("put", 24)])
    def test_contended_figure4_identical(self, op, n_cores):
        """At and past the Figure 4 knee every access intrudes on someone's
        run -- the hardest case for the fall-back reconstruction."""
        def result(coalesce):
            res = concurrent_access(
                op, n_cores, 32 if op == "get" else 1,
                config=_exact_config(coalesce), iters=3,
            )
            return res.per_core_mean

        assert result(True) == result(False)

    @pytest.mark.parametrize(
        "kind", [FaultKind.DROP_FLAG_WRITE, FaultKind.LINK_STALL]
    )
    def test_fault_campaign_identical(self, kind):
        """Fault hooks fire outside the per-line loop, so armed plans must
        not perturb the coalesced schedule either."""
        def result(coalesce):
            return FaultCampaign(
                trials=3, seed=11, kinds=(kind,),
                nbytes=24 * CACHE_LINE,
                config=_exact_config(coalesce),
                compare_baseline=False,
            ).run()

        assert result(True) == result(False)


def _random_ab_cases(n=50, seed=0x5CC2012):
    """``n`` seeded random workload configurations for the A/B sweep.

    Geometry, algorithm, tuning and message size all vary; meshes stay
    small (4-24 cores) and messages short (<= 64 cache lines) so the
    whole sweep stays in tier-1 time.  The seed is fixed: the cases are
    random once, then stable forever (reproducible failures).
    """
    rng = random.Random(seed)
    cases = []
    for i in range(n):
        cols = rng.randint(1, 3)
        rows = rng.randint(2, 4)
        algo = rng.choice(["oc", "oc", "oc", "binomial", "scatter_allgather"])
        k = rng.choice([2, 3, 7, 12])
        chunk_lines = rng.choice([8, 16, 32, 96])
        num_buffers = rng.choice([2, 3])
        if num_buffers * chunk_lines + k + 1 > 256:  # must fit the MPB
            num_buffers = 2
        spec = BcastSpec(
            algo,
            k=k,
            chunk_lines=chunk_lines,
            num_buffers=num_buffers,
            notify_degree=rng.choice([1, 2, 3]),
            leaf_direct_to_memory=rng.random() < 0.25,
        )
        nbytes = rng.randint(1, 64 * CACHE_LINE)
        jitter = rng.choice([0.0, 0.0, 0.02, 0.05])
        cases.append(pytest.param(
            spec, nbytes, cols, rows, jitter,
            id=f"cfg{i:02d}-{algo}-{2 * cols * rows}cores",
        ))
    return cases


def _extended_ab_cases(n=24, seed=0x5CC2013):
    """Cases aimed at whole-transfer scripts: no jitter (so the virtual
    stretch engages), the send/recv-based algorithms as often as
    OC-Bcast, sizes that are no multiple of the chunk (nor, mostly, of a
    cache line), and every third buffer off the cache-line grid (which
    must fall back to the per-line loop)."""
    rng = random.Random(seed)
    cases = []
    for i in range(n):
        cols = rng.randint(1, 3)
        rows = rng.randint(2, 4)
        algo = ["oc", "binomial", "scatter_allgather"][i % 3]
        chunk_lines = rng.choice([8, 16, 32])
        spec = BcastSpec(
            algo,
            k=rng.choice([2, 3, 7]),
            chunk_lines=chunk_lines,
            leaf_direct_to_memory=rng.random() < 0.25,
        )
        nbytes = (
            rng.randint(1, 4) * chunk_lines * CACHE_LINE
            + rng.randint(1, chunk_lines * CACHE_LINE - 1)
        )
        misalign = 8 if i % 3 == 2 - i // 3 % 3 else 0
        cases.append(pytest.param(
            spec, nbytes, cols, rows, 0.0, misalign,
            id=f"ext{i:02d}-{algo}-{2 * cols * rows}cores-off{misalign}",
        ))
    return cases


def _ab_state(cfg: SccConfig, spec: BcastSpec, nbytes: int, misalign: int = 0):
    """Two back-to-back traced broadcasts of one buffer (the second finds
    it L1-resident); returns ``(exact, busy)``: everything that must be
    bit-equal with coalescing on or off, and the per-port busy times,
    whose float sum is re-associated by a virtual stretch."""
    tracer = Tracer(enabled=True)
    chip = SccChip(cfg, tracer=tracer)
    comm = Comm(chip)
    bcast = spec.build(comm)
    payload = bytes(i * 7 % 256 for i in range(nbytes))

    def program(core) -> Generator:
        cc = comm.attach(core)
        buf = cc.alloc(nbytes + CACHE_LINE).sub(misalign, nbytes)
        if cc.rank == 0:
            buf.write(payload)
        for _ in range(2):
            yield from bcast(cc, 0, buf, nbytes)
        assert buf.read() == payload
        return None

    res = run_spmd(chip, program)
    return _chip_state(chip, res, tracer), [m.port.busy_time for m in chip.mpbs]


def _chip_state(chip, res, tracer=None):
    return {
        "trace": tuple(tracer.records) if tracer is not None else (),
        "finish": res.finish_times,
        "stats": [c.stats.as_dict() for c in chip.cores],
        "l1": [(c.l1.hits, c.l1.misses, tuple(c.l1.resident_lines())) for c in chip.cores],
        "ports": [
            (m.port.total_acquisitions, m.port.total_wait_time,
             m.port.queue_time)
            for m in chip.mpbs
        ],
        "max_queue": [m.port.max_queue for m in chip.mpbs],
    }


def _assert_ab_equal(on, off):
    (exact_on, busy_on), (exact_off, busy_off) = on, off
    for key in exact_off:
        assert exact_on[key] == exact_off[key], key
    assert busy_on == pytest.approx(busy_off, rel=1e-9, abs=0.0)


class TestRandomizedAbSweep:
    """Satellite of the bit-identity contract: seeded random
    configurations, each run with ``exact_coalescing`` on and off, must
    produce byte-equal traces, finish times, ``CoreStats``, L1 contents
    and port arbitration counters.  The targeted tests around it pick
    known hard spots; this sweep guards the configuration space between
    them."""

    @pytest.mark.parametrize(
        "spec,nbytes,cols,rows,jitter,misalign",
        [pytest.param(*c.values, 0, id=c.id) for c in _random_ab_cases()]
        + _extended_ab_cases(),
    )
    def test_latencies_identical(self, spec, nbytes, cols, rows, jitter, misalign):
        def state(coalesce):
            cfg = _exact_config(
                coalesce, mesh_cols=cols, mesh_rows=rows, jitter=jitter
            )
            return _ab_state(cfg, spec, nbytes, misalign)

        _assert_ab_equal(state(True), state(False))


def _transfer_world(coalesce, op, *, lines, t_intrude=None, port=None, **overrides):
    """Core 0 moves ``lines`` cache lines between core 2's MPB and its
    private memory (a few of them already L1-resident) while, optionally,
    core 5 makes one 1-line access to the same MPB at ``t_intrude``."""
    chip = SccChip(_exact_config(coalesce, mesh_cols=2, mesh_rows=2, **overrides))
    if port is not None:
        chip.mpbs[2].port = port(chip.sim, name="mpb2.port")
    nbytes = lines * CACHE_LINE

    def program(core) -> Generator:
        if core.id == 5:
            yield core.sim.timeout(t_intrude)
            yield from core.mpb_access(2, 1)
            return None
        buf = core.mem.alloc(nbytes)
        if lines > 6:
            yield from core.mem_read(buf.sub(3 * CACHE_LINE, 3 * CACHE_LINE))
        if op == "get":
            yield from get(core, 2, 0, buf, nbytes)
        else:
            yield from put(core, 2, 0, buf, nbytes)
        return None

    res = run_spmd(chip, program, core_ids=[0] if t_intrude is None else [0, 5])
    return chip, res


class _RecordingPort(Resource):
    """Logs when the per-line loop takes and frees the port."""

    __slots__ = ("taken", "freed")

    def __init__(self, sim, name):
        super().__init__(sim, name=name)
        self.taken: list[float] = []
        self.freed: list[float] = []

    def acquire(self, priority=0.0):
        self.taken.append(self.sim.now)
        return super().acquire(priority)

    def release(self):
        self.freed.append(self.sim.now)
        super().release()


#: A small L1 so the put's up-front reads evict, and a cycle in the
#: middle of the 12-line transfer.
_INTRUSION = dict(lines=12, l1_lines=8)
_CYCLE = 5


def _intrusion_instants(op):
    """Where cycle ``_CYCLE`` of the undisturbed per-line transfer has its
    service window, rest leg and memory leg -- taken from the simulation
    itself, so the boundary instants are the exact floats."""
    chip, _ = _transfer_world(False, op, port=_RecordingPort, **_INTRUSION)
    port = chip.mpbs[2].port
    core = chip.cores[0]
    service = chip.config.t_mpb_port_write if op == "put" else chip.config.t_mpb_port
    taken, freed = port.taken[_CYCLE], port.freed[_CYCLE]
    rest_end = freed + (core.mpb_line_cost(chip.mesh.core_distance(0, 2)) - service)
    cycle_end = port.taken[_CYCLE + 1]
    assert taken < freed < rest_end < cycle_end
    return {
        "service-window": (taken + freed) / 2,
        "rest-leg": (freed + rest_end) / 2,
        "memory-leg": (rest_end + cycle_end) / 2,
        "service-rest-boundary": freed,
        "rest-memory-boundary": rest_end,
        "cycle-boundary": cycle_end,
    }


class TestMultiLegRun:
    """Whole-transfer scripts: an EXACT put/get between an MPB and
    private memory is one leg script of [port | rest, memory] cycles,
    virtual while the port is idle, and an intruder anywhere in a cycle
    of that stretch leaves every observable as the per-line loop
    would."""

    @pytest.mark.parametrize("op", ["get", "put"])
    @pytest.mark.parametrize("where", [
        "service-window", "rest-leg", "memory-leg",
        "service-rest-boundary", "rest-memory-boundary", "cycle-boundary",
    ])
    def test_intrusion_identical(self, op, where):
        t_intrude = _intrusion_instants(op)[where]

        def state(coalesce):
            chip, res = _transfer_world(
                coalesce, op, t_intrude=t_intrude, **_INTRUSION
            )
            port = chip.mpbs[2].port
            if coalesce:
                # The stretch engaged and the intruder ended it; the rest
                # of the script is real holds (a new stretch under
                # contention would end a cycle later), not a second one.
                assert port.coalesced_runs == 1
                assert _CYCLE < port.coalesced_cycles < _INTRUSION["lines"]
            state = _chip_state(chip, res)
            if where == "service-rest-boundary":
                # The documented residual of a *virtual* stretch: a
                # request landing exactly on its service window's end is
                # granted at once, where the loop queues it for zero time.
                del state["max_queue"]
            return state, [port.busy_time]

        _assert_ab_equal(state(True), state(False))

    @pytest.mark.parametrize("op", ["get", "put"])
    def test_uncontended_transfer_is_one_run(self, op):
        """``coalesced_runs`` counts virtual stretches, so cycles / runs
        is the mean stretch length -- here the whole transfer."""
        chip, res = _transfer_world(True, op, lines=96)
        port = chip.mpbs[2].port
        assert (port.coalesced_runs, port.coalesced_cycles) == (1, 96)
        assert port.total_acquisitions == 96
        ref_chip, ref = _transfer_world(False, op, lines=96)
        assert _chip_state(chip, res) == _chip_state(ref_chip, ref)

    @pytest.mark.parametrize("op", ["get", "put"])
    @pytest.mark.parametrize("overrides", [
        dict(jitter=0.02), dict(model_links=True),
    ], ids=["jitter", "links"])
    def test_ineligible_configs_fall_back(self, op, overrides):
        """Where a per-line hook is live (jitter draw, link walk) the
        per-line loop runs: no virtual stretch engages."""
        chip, res = _transfer_world(True, op, lines=12, **overrides)
        port = chip.mpbs[2].port
        assert (port.coalesced_runs, port.coalesced_cycles) == (0, 0)
        ref_chip, ref = _transfer_world(False, op, lines=12, **overrides)
        assert _chip_state(chip, res) == _chip_state(ref_chip, ref)

    def test_empty_leg_refuses_the_run(self):
        """A free L1 hit would be a zero-length memory leg, which the
        per-line loop does not yield for and a script cannot express:
        the put is the per-line loop throughout."""
        chip, res = _transfer_world(True, "put", lines=12, t_l1_hit=0.0)
        assert not chip.cores[0].scripts_lines
        port = chip.mpbs[2].port
        assert (port.coalesced_runs, port.coalesced_cycles) == (0, 0)
        ref_chip, ref = _transfer_world(False, "put", lines=12, t_l1_hit=0.0)
        assert _chip_state(chip, res) == _chip_state(ref_chip, ref)


class TestRunUntilDrain:
    def test_now_advances_to_until_when_heap_drains(self):
        sim = Simulator()

        def p():
            yield sim.timeout(3.0)

        sim.process(p())
        assert sim.run(until=10.0) == 10.0
        assert sim.now == 10.0

    def test_now_stays_at_until_when_events_remain(self):
        sim = Simulator()

        def p():
            yield sim.timeout(3.0)
            yield sim.timeout(30.0)

        sim.process(p())
        assert sim.run(until=10.0) == 10.0
        assert sim.now == 10.0
        sim.run()
        assert sim.now == 33.0

    def test_empty_sim_run_until(self):
        sim = Simulator()
        assert sim.run(until=5.0) == 5.0
        assert sim.now == 5.0


class TestParallelRunner:
    def test_parallel_map_orders_results(self):
        assert parallel_map(_square, [3, 1, 2], jobs=2) == [9, 1, 4]
        assert parallel_map(_square, [3, 1, 2], jobs=1) == [9, 1, 4]
        assert parallel_map(_square, [], jobs=4) == []

    def test_sweep_matches_serial(self):
        specs = [BcastSpec("oc", k=7), BcastSpec("binomial")]
        sizes = [1, 16]
        serial = sweep_broadcast(specs, sizes, iters=1, warmup=0)
        fanned = sweep_broadcast(specs, sizes, iters=1, warmup=0, jobs=2)
        assert serial == fanned

    def test_campaign_matches_serial(self):
        campaign = FaultCampaign(trials=4, seed=5, compare_baseline=False)
        serial = campaign.run()
        fanned = campaign.run_trials(jobs=2)
        assert serial == fanned
        assert fanned.timeline  # first injected trial's timeline survived


def _square(x: int) -> int:
    return x * x
