"""Per-layer host probes: one fixed micro-workload per layer.

Each probe drives one layer's public API with the layers above it
removed, so a regression names its layer.  The probes do not depend on
the workload or the seed -- every traced run measures the same fixed
programs -- which makes a probe comparable across workloads and commits.
Host times are medians over a few repetitions; rates are work divided by
the median time.

The deterministic ratios (``member.service_tax_pct`` ... ) are simulated
quantities recomputed here the way ``benchmarks/perf_check.py`` computes
them, for continuity with ``BENCH_simulator.json``.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Generator

from repro.bench import BcastSpec, ChurnCampaign, FaultCampaign, run_broadcast
from repro.chaos import profile_counts, run_schedule
from repro.chaos.generate import ScheduleGenerator
from repro.collectives import binomial_bcast, scatter_allgather_bcast
from repro.core import OcBcast, OcBcastConfig
from repro.faults import FaultKind, FaultPlan
from repro.model import ModelParams
from repro.model.broadcast import ocbcast_latency_complete
from repro.obs import InvariantChecker, MetricsRegistry, collect_chip_metrics
from repro.rcce import Comm
from repro.rcce.flags import FlagSlotArray, FlagValue
from repro.resilience import DetectorConfig, PhiAccrualDetector, RetryPolicy
from repro.scc import ContentionMode, SccChip, SccConfig, run_spmd
from repro.scc.analytic import AnalyticEngine
from repro.scc.config import CACHE_LINE
from repro.sim import Resource, Simulator, Tracer
from repro.transport import AsyncioNetwork, UniformDelay, make_scc_world
from repro.transport.scenarios import run_asyncio, run_scc

from workloads import SERVICE_SCENARIOS, chaos_structure

_OC_BYTES = 96 * CACHE_LINE


def _time_s(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _median_s(fn: Callable[[], object], reps: int) -> float:
    return statistics.median(_time_s(fn) for _ in range(reps))


def _median_ms(fn: Callable[[], object], reps: int) -> float:
    return 1e3 * _median_s(fn, reps)


def _timed_run(prepare: Callable[[], Callable[[], object]], reps: int) -> float:
    """Median ms of ``run()`` where ``run = prepare()`` is rebuilt, untimed,
    for every repetition (a chip runs once)."""
    return 1e3 * statistics.median(_time_s(prepare()) for _ in range(reps))


# -- sim ---------------------------------------------------------------------

def probe_sim() -> dict[str, float]:
    def kernel() -> None:
        sim = Simulator()

        def ticker() -> Generator:
            for _ in range(5_000):
                yield sim.timeout(0.001)

        for _ in range(4):
            sim.process(ticker())
        sim.run()

    # One timer event plus one process resumption per timeout.
    kernel_events = 4 * 5_000 * 2

    rounds = 100

    def contended() -> None:
        sim = Simulator()
        port = Resource(sim, name="probe.port")

        def requester() -> Generator:
            for _ in range(rounds):
                yield from port.serve(0.0126)

        for _ in range(48):
            sim.process(requester())
        sim.run()

    runs, cycles = 400, 96

    def coalesced() -> None:
        sim = Simulator()
        port = Resource(sim, name="probe.port")

        def owner() -> Generator:
            for _ in range(runs):
                yield port.try_begin_run(cycles, 0.0126, 0.1)

        sim.process(owner())
        sim.run()

    return {
        "sim.events_per_s": kernel_events / _median_s(kernel, 5),
        "sim.resource_grants_per_s": 48 * rounds / _median_s(contended, 5),
        "sim.coalesced_cycles_per_s": runs * cycles / _median_s(coalesced, 5),
    }


# -- scc, transport world construction ---------------------------------------

def probe_builds() -> dict[str, float]:
    engine = AnalyticEngine(k=7)
    sizes = [(i % 192 + 1) * CACHE_LINE for i in range(128)]
    return {
        "scc.chip_build_ms": _median_ms(lambda: SccChip(SccConfig()), 5),
        "transport.asyncio_build_ms": _median_ms(lambda: AsyncioNetwork(48), 5),
        "scc.analytic_build_ms": _median_ms(lambda: AnalyticEngine(k=7), 5),
        "scc.analytic_points_per_s": len(sizes) / _median_s(
            lambda: engine.evaluate_batch(sizes, iters=1), 5
        ),
    }


# -- rcce ----------------------------------------------------------------------

def probe_rcce() -> dict[str, float]:
    line_counts = (1, 8, 32, 96) * 8
    total_lines = sum(line_counts)

    def transfer(get: bool) -> Callable[[], Callable[[], object]]:
        def prepare() -> Callable[[], object]:
            chip = SccChip()
            comm = Comm(chip)
            region = comm.layout.alloc_lines(96)

            def program(core) -> Generator:
                cc = comm.attach(core)
                if cc.rank != 0:
                    return
                buf = cc.alloc(96 * CACHE_LINE)
                for n in line_counts:
                    if get:
                        yield from cc.get(1, region.offset, buf, n * CACHE_LINE)
                    else:
                        yield from cc.put(1, region.offset, buf, n * CACHE_LINE)

            return lambda: run_spmd(chip, program, core_ids=(0, 1))
        return prepare

    pairs = 200

    def flags() -> Callable[[], object]:
        chip = SccChip()
        comm = Comm(chip)
        ping, pong = comm.flag("probe.ping"), comm.flag("probe.pong")

        def program(core) -> Generator:
            cc = comm.attach(core)
            mine, theirs = (ping, pong) if cc.rank == 0 else (pong, ping)
            for seq in range(1, pairs + 1):
                value = FlagValue(1, seq)
                if cc.rank == 0:
                    yield from cc.flag_set(1, theirs, value)
                    yield from cc.wait_flag_equals(mine, value)
                else:
                    yield from cc.wait_flag_equals(mine, value)
                    yield from cc.flag_set(0, theirs, value)

        return lambda: run_spmd(chip, program, core_ids=(0, 1))

    return {
        "rcce.put_lines_per_s": total_lines / (_timed_run(transfer(False), 5) / 1e3),
        "rcce.get_lines_per_s": total_lines / (_timed_run(transfer(True), 5) / 1e3),
        # One set plus one wait on each side of every round trip.
        "rcce.flag_ops_per_s": 4 * pairs / (_timed_run(flags, 5) / 1e3),
    }


# -- core, collectives: one 96-line broadcast, run_spmd only -------------------

def _prepared_bcast(
    mode: ContentionMode, make_bcast: Callable[[Comm], Callable]
) -> Callable[[], Callable[[], object]]:
    def prepare() -> Callable[[], object]:
        chip = SccChip(SccConfig(contention_mode=mode))
        comm = Comm(chip)
        bcast = make_bcast(comm)

        def program(core) -> Generator:
            cc = comm.attach(core)
            buf = cc.alloc(_OC_BYTES)
            if cc.rank == 0:
                buf.write(bytes(_OC_BYTES))
            yield from bcast(cc, 0, buf, _OC_BYTES)

        return lambda: run_spmd(chip, program)
    return prepare


def probe_core() -> dict[str, float]:
    def oc(ft: bool = False) -> Callable[[Comm], Callable]:
        return lambda comm: OcBcast(comm, OcBcastConfig(k=7, ft=ft)).bcast

    return {
        "core.oc_ms.ideal": _timed_run(_prepared_bcast(ContentionMode.IDEAL, oc()), 3),
        "core.oc_ms.batch": _timed_run(_prepared_bcast(ContentionMode.BATCH, oc()), 3),
        "core.oc_ms.exact": _timed_run(_prepared_bcast(ContentionMode.EXACT, oc()), 3),
        "core.oc_ft_ms.batch": _timed_run(
            _prepared_bcast(ContentionMode.BATCH, oc(ft=True)), 3
        ),
        "collectives.binomial_ms.exact": _timed_run(
            _prepared_bcast(ContentionMode.EXACT, lambda comm: binomial_bcast), 1
        ),
        "collectives.sag_ms.exact": _timed_run(
            _prepared_bcast(ContentionMode.EXACT, lambda comm: scatter_allgather_bcast), 1
        ),
    }


# -- model ----------------------------------------------------------------------

def probe_model() -> dict[str, float]:
    params = ModelParams.from_config(SccConfig())

    def formulas() -> None:
        for m in range(1, 193):
            ocbcast_latency_complete(48, m, 7, params)

    return {"model.formula_evals_per_s": 192 / _median_s(formulas, 5)}


# -- member ----------------------------------------------------------------------

def probe_member() -> dict[str, float]:
    plain, byz = SERVICE_SCENARIOS[0], SERVICE_SCENARIOS[1]
    out = {
        "member.svc_ms.plain.scc": _median_ms(lambda: run_scc(plain, 1), 3),
        "member.svc_ms.byz.scc": _median_ms(lambda: run_scc(byz, 1), 3),
        "member.svc_ms.plain.asyncio": _median_ms(lambda: run_asyncio(plain, 1), 3),
        "member.svc_ms.byz.asyncio": _median_ms(lambda: run_asyncio(byz, 1), 3),
    }
    # The three deterministic (simulated-time) taxes of perf_check.py.
    three_chunks = FaultCampaign(trials=1, nbytes=3 * _OC_BYTES)
    base = three_chunks.run_one(FaultPlan(), ft=False)[0].latency
    out["member.service_tax_pct"] = (
        three_chunks.service_latency_once() / base - 1.0
    ) * 100.0
    one_chunk = FaultCampaign(trials=1, nbytes=_OC_BYTES, byz=True)
    out["member.rbc_tax_pct"] = (
        one_chunk.byz_latency_once() / one_chunk.service_latency_once() - 1.0
    ) * 100.0
    churn = ChurnCampaign(trials=1, broadcasts=3)
    out["resilience.tax_pct"] = (
        churn.latency_once(adaptive=True) / churn.latency_once(adaptive=False)
        - 1.0
    ) * 100.0
    return out


# -- transport: one fixed 8-rank RMA program through each backend -----------------

_RMA_ROUNDS = 25
_RMA_OPS = 8 * _RMA_ROUNDS * 4


def _rma_body(world) -> Callable:
    """put / get / acked flag / acked slot to the next rank, every round.
    ``world`` is the Comm or AsyncioNetwork; both allocate identically."""
    size = 8
    region = world.layout.alloc_lines(4)
    flag = world.flag("probe.rma")
    slots = FlagSlotArray(
        world.layout.alloc_lines(FlagSlotArray.lines_needed(size)), size,
        name="probe.slots",
    )

    def body(cc) -> Generator:
        buf = cc.alloc(4 * CACHE_LINE)
        peer = (cc.rank + 1) % size
        for seq in range(1, _RMA_ROUNDS + 1):
            yield from cc.put(peer, region.offset, buf, 4 * CACHE_LINE)
            yield from cc.get(peer, region.offset, buf, 4 * CACHE_LINE)
            yield from cc.flag_set_acked(peer, flag, FlagValue(cc.rank, seq))
            yield from cc.slot_write_acked(slots, peer, cc.rank, seq)

    return body


def probe_transport() -> dict[str, float]:
    def scc() -> Callable[[], object]:
        chip, comm = make_scc_world(8, mesh=(2, 2))
        body = _rma_body(comm)
        return lambda: run_spmd(chip, lambda core: body(comm.attach(core)))

    def asyncio_() -> Callable[[], object]:
        net = AsyncioNetwork(8, model=UniformDelay(0.05, 5.0), seed=1)
        body = _rma_body(net)
        return lambda: net.run(body)

    return {
        "transport.scc_rma_ops_per_s": _RMA_OPS / (_timed_run(scc, 5) / 1e3),
        "transport.asyncio_rma_ops_per_s": _RMA_OPS / (_timed_run(asyncio_, 5) / 1e3),
    }


# -- faults, bench campaigns -------------------------------------------------------

def probe_faults() -> dict[str, float]:
    nbytes = 3 * _OC_BYTES

    def campaign(kind: FaultKind, **kw) -> FaultCampaign:
        return FaultCampaign(
            trials=3, seed=1, nbytes=nbytes, kinds=(kind,),
            compare_baseline=False, **kw,
        )

    out: dict[str, float] = {}
    drop = campaign(FaultKind.DROP_FLAG_WRITE)
    out["faults.plan_draw_ms"] = _median_ms(drop.trial_plans, 3)

    def trial_ms(c: FaultCampaign, plans, **kw) -> float:
        return 1e3 * statistics.median(
            _time_s(lambda: c.run_one(plan, ft=True, **kw)) for plan in plans
        )

    out["faults.trial_ms.clean"] = trial_ms(drop, [FaultPlan()] * 3)
    out["faults.trial_ms.drop_flag"] = trial_ms(drop, drop.trial_plans())
    corrupt = campaign(FaultKind.CORRUPT_FLAG_WRITE)
    out["faults.trial_ms.corrupt_flag"] = trial_ms(corrupt, corrupt.trial_plans())
    crash = campaign(FaultKind.CORE_CRASH)
    out["faults.trial_ms.crash"] = trial_ms(crash, crash.trial_plans())
    service = campaign(
        FaultKind.CORE_CRASH, service=True, crash_site="interior",
        mid_stream=True,
    )
    out["faults.trial_ms.service"] = trial_ms(
        service, service.trial_plans(), service=True
    )

    # Continuity with BENCH_simulator.json: the same three campaigns
    # perf_report.py times, at the same trial counts.
    four = FaultCampaign(trials=4, seed=1, compare_baseline=False)
    t_four = _median_s(four.run, 1)
    out["bench.kernel_trials_per_s"] = 4 / t_four
    one_trial_s = statistics.median(
        _time_s(lambda: four.run_one(plan, ft=True))
        for plan in four.trial_plans()
    )
    # What a campaign pays beyond its trials: site profiling, the
    # fault-free reference runs and classification.
    out["bench.campaign_fixed_ms"] = 1e3 * (t_four - 4 * one_trial_s)
    adaptive = FaultCampaign(
        trials=1024, seed=1, compare_baseline=False, fault_rate=0.0,
        fidelity="adaptive",
    )
    out["bench.adaptive_trials_per_s"] = 1024 / _median_s(adaptive.run, 1)
    mixed = FaultCampaign(
        trials=64, seed=1, compare_baseline=False, fault_rate=0.25,
        fidelity="adaptive",
    ).run().fidelity
    out["bench.adaptive_served_share"] = mixed["n_analytic"] / (
        mixed["n_analytic"] + mixed["n_replayed"]
    )
    return out


# -- resilience ----------------------------------------------------------------------

def probe_resilience() -> dict[str, float]:
    n = 2_000

    def phi() -> None:
        det = PhiAccrualDetector(DetectorConfig())
        for i in range(n):
            det.observe(i % 48, 100.0 + (i % 7))
            det.timeout(i % 48, 6_000.0)

    policy = RetryPolicy.backoff(
        max_retries=6, base=40.0, factor=2.0, cap=600.0, jitter=0.1, seed=20
    )

    def delays() -> None:
        for i in range(n):
            policy.delays(i % 48, f"probe.site{i}")

    return {
        "resilience.phi_timeouts_per_s": n / _median_s(phi, 3),
        "resilience.policy_delays_per_s": n / _median_s(delays, 3),
    }


# -- obs ------------------------------------------------------------------------------

def probe_obs() -> dict[str, float]:
    config = SccConfig(contention_mode=ContentionMode.BATCH)
    spec = BcastSpec("oc", k=7)

    def checked_tracer() -> Tracer:
        tracer = Tracer(enabled=True)
        tracer.add_listener(InvariantChecker().feed)
        return tracer

    # name -> the observability attached to the run (built fresh per run).
    variants: dict[str, Callable[[], dict]] = {
        "bare": dict,
        "tracer": lambda: {"tracer": Tracer(enabled=True)},
        "metrics": lambda: {"metrics": MetricsRegistry()},
        "invariants": lambda: {"tracer": checked_tracer()},
    }
    # Interleave the variants so drift hits all of them alike.
    samples: dict[str, list[float]] = {name: [] for name in variants}
    for _ in range(5):
        for name, attach in variants.items():
            kw = attach()
            samples[name].append(_time_s(lambda: run_broadcast(
                spec, _OC_BYTES, config=config, iters=1, warmup=0, **kw
            )))
    med = {name: statistics.median(ts) for name, ts in samples.items()}
    out = {
        f"obs.{name}_overhead_pct": (med[name] / med["bare"] - 1.0) * 100.0
        for name in ("tracer", "metrics", "invariants")
    }

    def harvested_chip() -> Callable[[], object]:
        chip = SccChip(config, metrics=MetricsRegistry())
        comm = Comm(chip)
        bcast = OcBcast(comm, OcBcastConfig(k=7)).bcast

        def program(core) -> Generator:
            cc = comm.attach(core)
            buf = cc.alloc(_OC_BYTES)
            yield from bcast(cc, 0, buf, _OC_BYTES)

        run_spmd(chip, program)
        return lambda: collect_chip_metrics(chip)

    out["obs.harvest_ms"] = _timed_run(harvested_chip, 5)
    return out


# -- chaos -----------------------------------------------------------------------------

_CHAOS_PROBE_SCHEDULES = 30


def probe_chaos() -> dict[str, float]:
    def generate() -> None:
        # Cold: the generator's per-coordinate site profiles are part of
        # what a soak pays to draw its first schedules.
        profile_counts.cache_clear()
        ScheduleGenerator(seed=1).generate(60)

    out = {"chaos.generate_ms_per_schedule": _median_ms(generate, 1) / 60}
    by_group: dict[str, list[float]] = {}
    for schedule in chaos_structure()[:_CHAOS_PROBE_SCHEDULES]:
        t = _time_s(lambda: run_schedule(schedule))
        for group in (schedule.backend, schedule.mode):
            by_group.setdefault(group, []).append(1e3 * t)
    for group in ("scc", "asyncio", "ft", "service", "byz"):
        out[f"chaos.run_ms_p50.{group}"] = statistics.median(by_group[group])
    return out


PROBES = (
    probe_sim, probe_builds, probe_rcce, probe_core, probe_model,
    probe_member, probe_transport, probe_faults, probe_resilience,
    probe_obs, probe_chaos,
)


def run_probes() -> dict[str, float]:
    out: dict[str, float] = {}
    for probe in PROBES:
        out.update(probe())
    return out
