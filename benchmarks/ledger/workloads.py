"""The seven workloads: each a fixed, seeded multiset of operations.

A workload turns the seed into a list of :class:`Op` -- payload seeds,
fault plans, chaos schedules, delay-model seeds -- and the program only
ever receives those generated inputs.  One *pass* runs every op of the
list once; a run repeats the pass a fixed number of times (frozen in
``catalogue.WORKLOADS``).  The multiset never depends on elapsed time, so
two runs execute the same operations.

Each op calls only public functions of ``repro`` and returns an
:class:`Outcome`: whether the output check passed, the simulated time the
operation took, and the payload bytes it delivered.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.bench import BcastSpec, FaultCampaign, run_broadcast
from repro.chaos import ScheduleGenerator, run_schedule
from repro.faults import FaultKind
from repro.model import ModelParams
from repro.model.broadcast import (
    binomial_latency_complete,
    ocbcast_latency_complete,
    ocbcast_throughput_complete,
)
from repro.scc import ContentionMode, SccConfig
from repro.scc.analytic import AnalyticEngine
from repro.scc.config import CACHE_LINE
from repro.transport.scenarios import Scenario, run_asyncio, run_scc

import checks
from spans import SpanRecorder, span
from stepwise import stepwise_broadcast


@dataclass
class Outcome:
    ok: bool
    #: Simulated completion latency of the op (us of the modelled chip).
    sim_us: float
    #: Payload bytes the op delivered, and the simulated time over which
    #: it delivered them (defaults to ``sim_us``).
    nbytes: int
    span_us: float | None = None
    #: Relative error against the repo's reference, for ops that have one.
    ref_err: float | None = None
    #: How many comparisons with the reference ``ref_err`` summarises.
    ref_ops: int = 0
    #: Work counts only the op can know (outcome classes, injections).
    facts: dict[str, float] = field(default_factory=dict)


@dataclass
class Op:
    #: Everything that determines the op's input, as text (``--list-ops``).
    label: str
    run: Callable[[SpanRecorder | None], Outcome]


def _seeds(workload: str, seed: int, n: int) -> list[int]:
    """``n`` input seeds for one workload, a function of ``--seed`` only
    (a str seed is hashed with sha512, so PYTHONHASHSEED does not matter)."""
    rng = random.Random(f"ledger:{workload}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(n)]


# -- paper_exact / stream_batch ----------------------------------------------

_P = 48
_K = 7
_PAPER_POINTS = (
    ("oc", 1), ("oc", 96), ("oc", 97), ("oc", 192),
    ("binomial", 1), ("binomial", 96), ("scatter_allgather", 96),
)


def _bcast_op(
    spec: BcastSpec, ncl: int, config: SccConfig, *, iters: int, warmup: int,
    seed: int, ref_latency: float | None = None,
    ref_throughput: float | None = None,
) -> Op:
    nbytes = ncl * CACHE_LINE
    kw = dict(config=config, iters=iters, warmup=warmup, seed=seed)

    def run(rec: SpanRecorder | None) -> Outcome:
        if rec is None:
            res = run_broadcast(spec, nbytes, verify=True, **kw)
        else:
            res = stepwise_broadcast(spec, nbytes, rec, **kw)
        ref_err = None
        if ref_latency is not None:
            ref_err = abs(res.mean_latency - ref_latency) / ref_latency
        elif ref_throughput is not None:
            ref_err = (
                abs(res.steady_throughput_mb_s - ref_throughput) / ref_throughput
            )
        return Outcome(
            ok=checks.bcast_verified(res),
            sim_us=res.mean_latency,
            nbytes=iters * nbytes,
            span_us=res.measured_span,
            ref_err=ref_err,
            ref_ops=0 if ref_err is None else 1,
        )

    return Op(
        f"{spec.label} {ncl}CL {config.contention_mode.value} "
        f"iters={iters} warmup={warmup} seed={seed}",
        run,
    )


def build_paper_exact(seed: int) -> list[Op]:
    config = SccConfig(contention_mode=ContentionMode.EXACT)
    params = ModelParams.from_config(config)
    seeds = _seeds("paper_exact", seed, len(_PAPER_POINTS))
    ops = []
    for (algo, ncl), s in zip(_PAPER_POINTS, seeds):
        ref = None
        if algo == "oc":
            ref = ocbcast_latency_complete(_P, ncl, _K, params)
        elif algo == "binomial":
            ref = binomial_latency_complete(_P, ncl, params)
        ops.append(_bcast_op(
            BcastSpec(algo, k=_K), ncl, config, iters=1, warmup=0, seed=s,
            ref_latency=ref,
        ))
    return ops


def build_stream_batch(seed: int) -> list[Op]:
    config = SccConfig(contention_mode=ContentionMode.BATCH)
    params = ModelParams.from_config(config)
    (s,) = _seeds("stream_batch", seed, 1)
    return [_bcast_op(
        BcastSpec("oc", k=_K), 1024, config, iters=2, warmup=1, seed=s,
        ref_throughput=ocbcast_throughput_complete(params, _K),
    )]


# -- analytic_fastpath -------------------------------------------------------

_ANALYTIC_KS = (2, 7, 47)
#: 128 sizes spread over 1..192 cache lines.
_ANALYTIC_LINES = tuple(1 + (i * 191) // 127 for i in range(128))
#: Batch indices cross-checked against an IDEAL event-kernel run.
_SPOT_INDICES = (0, 127)


def build_analytic_fastpath(seed: int) -> list[Op]:
    # The sizes are the paper's Figure 8 axis and do not depend on the
    # seed; the seed only picks the payloads of the IDEAL spot runs.
    sizes = [ncl * CACHE_LINE for ncl in _ANALYTIC_LINES]
    ideal_cfg = SccConfig(contention_mode=ContentionMode.IDEAL)
    seeds = _seeds("analytic_fastpath", seed, len(_ANALYTIC_KS))
    ops = []
    for k, s in zip(_ANALYTIC_KS, seeds):
        first = tuple(
            r.mean_latency
            for r in AnalyticEngine(k=k).evaluate_batch(sizes, iters=1)
        )
        spots = {
            i: run_broadcast(
                BcastSpec("oc", k=k), sizes[i], config=ideal_cfg,
                iters=1, warmup=0, seed=s,
            ).mean_latency
            for i in _SPOT_INDICES
        }

        def run(rec, k=k, first=first, spots=spots) -> Outcome:
            with span(rec, "scc.analytic.build"):
                engine = AnalyticEngine(k=k)
            with span(rec, "scc.analytic.evaluate_batch"):
                batch = engine.evaluate_batch(sizes, iters=1)
            lat = tuple(r.mean_latency for r in batch)
            total = sum(lat)
            return Outcome(
                ok=checks.analytic_repeats(lat, first)
                and checks.analytic_matches_ideal(lat, spots),
                sim_us=total / len(lat),
                nbytes=sum(sizes),
                span_us=total,
                ref_err=max(
                    abs(lat[i] - ideal) / ideal for i, ideal in spots.items()
                ),
                ref_ops=len(spots),
            )

        ops.append(Op(
            f"AnalyticEngine(k={k}) evaluate_batch 128 sizes "
            f"{_ANALYTIC_LINES[0]}..{_ANALYTIC_LINES[-1]}CL spot-seed={s}",
            run,
        ))
    return ops


# -- service_scc / service_asyncio -------------------------------------------

_MESH = (6, 4)
SERVICE_SCENARIOS = (
    Scenario("ledger_plain", _P, _MESH, chunks=3),
    Scenario("ledger_byz", _P, _MESH, chunks=1, byz=True),
    Scenario("ledger_adaptive", _P, _MESH, chunks=3, adaptive=True),
    Scenario("ledger_crash", _P, _MESH, chunks=3,
             crash=(7, "oc.chunk.begin", 2)),
)
_BACKENDS = {"scc": run_scc, "asyncio": run_asyncio}


def _expected_outcomes(sc: Scenario) -> tuple:
    crashed = sc.crash[0] if sc.crash is not None else None
    return tuple(
        "crashed" if r == crashed else "ok" for r in range(sc.nranks)
    )


def _build_service(backend: str, seed: int) -> list[Op]:
    # Both service workloads draw from one stream, so they run the same
    # scenarios with the same seeds and each can be the other's oracle.
    seeds = _seeds("service", seed, len(SERVICE_SCENARIOS))
    runner = _BACKENDS[backend]
    other = _BACKENDS["asyncio" if backend == "scc" else "scc"]
    ops = []
    for sc, s in zip(SERVICE_SCENARIOS, seeds):
        oracle = other(sc, s).digest
        expected = _expected_outcomes(sc)

        def run(rec, sc=sc, s=s, oracle=oracle, expected=expected) -> Outcome:
            with span(rec, "transport.run_backend"):
                res = runner(sc, s)
            return Outcome(
                ok=checks.service_agrees(res, oracle, expected),
                sim_us=res.records[-1].time,
                nbytes=sc.nbytes,
                facts={"transport.digest_mismatches":
                       float(res.digest != oracle)},
            )

        ops.append(Op(
            f"run_{backend} {sc.name} {sc.nranks}r {sc.chunks}ch "
            f"byz={sc.byz} adaptive={sc.adaptive} crash={sc.crash} seed={s}",
            run,
        ))
    return ops


def build_service_scc(seed: int) -> list[Op]:
    return _build_service("scc", seed)


def build_service_asyncio(seed: int) -> list[Op]:
    return _build_service("asyncio", seed)


# -- fault_campaign ----------------------------------------------------------

_CAMPAIGN_NBYTES = 288 * CACHE_LINE
_FT_TRIALS = 40
_SERVICE_TRIALS = 10


def build_fault_campaign(seed: int) -> list[Op]:
    s_ft, s_svc = _seeds("fault_campaign", seed, 2)
    ft = FaultCampaign(
        trials=_FT_TRIALS, seed=s_ft, nbytes=_CAMPAIGN_NBYTES,
        kinds=(FaultKind.DROP_FLAG_WRITE, FaultKind.CORRUPT_FLAG_WRITE,
               FaultKind.CORE_CRASH),
        compare_baseline=False,
    )
    svc = FaultCampaign(
        trials=_SERVICE_TRIALS, seed=s_svc, nbytes=_CAMPAIGN_NBYTES,
        service=True,
        kinds=(FaultKind.CORE_CRASH, FaultKind.CORRUPT_DATA_WRITE),
        crash_site="interior", mid_stream=True, faults_per_trial=2,
        compare_baseline=False,
    )
    ops = []
    for campaign, service in ((ft, False), (svc, True)):
        for plan in campaign.trial_plans():
            def run(rec, campaign=campaign, plan=plan, service=service):
                with span(rec, "bench.run_one"):
                    trial, _ = campaign.run_one(plan, ft=True, service=service)
                delivered = trial.outcome in checks.FT_OUTCOMES
                return Outcome(
                    ok=checks.trial_survived(trial, service=service),
                    sim_us=trial.latency,
                    nbytes=campaign.nbytes if delivered else 0,
                    facts={
                        "faults.injected": float(trial.n_injected),
                        "faults.recovered": float(trial.n_recovered),
                    },
                )

            ops.append(Op(
                f"run_one {'service' if service else 'ft'} "
                f"campaign-seed={campaign.seed} {plan.describe()}",
                run,
            ))
    return ops


# -- chaos_mixed -------------------------------------------------------------

#: The 60 schedules -- backend, mesh, mode, which faults where, and the
#: asyncio network models' delay/drop seeds -- come from this pinned
#: generator seed; ``--seed`` re-draws the payload of every schedule whose
#: simulated behaviour cannot depend on it (SCC backend, or no network
#: model).  Drawing the schedules from ``--seed`` moved host and simulated
#: time by 30-37 % between seeds (one more crash schedule is one more 6 ms
#: suspicion timeout) and re-drawing only the network seeds still moved
#: simulated time by 3 %; neither can be told from a regression, and one
#: generator seed in ten drew a ``violation`` -- see README, "Deviations".
CHAOS_STRUCTURE_SEED = 1
_CHAOS_SCHEDULES = 60


def chaos_structure() -> list:
    return ScheduleGenerator(seed=CHAOS_STRUCTURE_SEED).generate(_CHAOS_SCHEDULES)


def build_chaos_mixed(seed: int) -> list[Op]:
    seeds = _seeds("chaos_mixed", seed, _CHAOS_SCHEDULES)
    ops = []
    for base, s in zip(chaos_structure(), seeds):
        seed_is_payload_only = base.backend == "scc" or (
            base.model is None or base.model.name == "none"
        )
        schedule = replace(base, seed=s) if seed_is_payload_only else base

        def run(rec, schedule=schedule) -> Outcome:
            with span(rec, "chaos.run_schedule"):
                out = run_schedule(schedule)
            return Outcome(
                ok=checks.chaos_held(out),
                sim_us=out.latency,
                nbytes=schedule.nbytes
                if out.classification == "tolerated" else 0,
                facts={
                    f"chaos.{out.classification}": 1.0,
                    "chaos.injected": float(out.n_injected),
                },
            )

        ops.append(Op(f"run_schedule {schedule.describe()}", run))
    return ops


#: workload name (catalogue.WORKLOADS) -> its op-list builder.
BUILDERS: dict[str, Callable[[int], list[Op]]] = {
    "paper_exact": build_paper_exact,
    "stream_batch": build_stream_batch,
    "analytic_fastpath": build_analytic_fastpath,
    "service_scc": build_service_scc,
    "service_asyncio": build_service_asyncio,
    "fault_campaign": build_fault_campaign,
    "chaos_mixed": build_chaos_mixed,
}
