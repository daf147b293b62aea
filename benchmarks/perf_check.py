"""Deterministic performance guards: simulated-time taxes and work counts.

Every check here is exact -- simulated time and event/run/bytecode
counts do not depend on the host -- so there is no tolerance and no
committed baseline.  Host time (events/s, broadcasts/s, trials/s) is
measured by the ledger, ``python benchmarks/ledger/run.py`` (``make
perf``), against per-metric noise bounds.  The call counts
(``sys.setprofile`` ``call`` events, C calls printed beside them) are
exact for one interpreter version; the values below are CPython 3.11's
(3.12 inlines comprehensions and can only read lower).  Each guard, in
the order it prints -- what it counts, its value now, its ceiling, and
what trips it:

- *service tax*: fault-free simulated latency of the election-enabled
  service over the bare baseline broadcast, 48 cores, three chunks.
  2.71 %, ceiling 5 % (``--max-service-tax``).  Trips when membership
  or election bookkeeping leaks onto the fault-free path.
- *rbc tax*: fault-free Byzantine mode over the crash-only service,
  one chunk (one echo/ready round per message, nothing amortises).
  13.90 %, ceiling 15 % (``--max-rbc-tax``).  Trips when the quorum
  rounds get costlier.
- *resilience tax*: the adaptive configuration (phi-accrual detection
  plus paced retry policies) over the fixed-deadline service on one
  seeded three-broadcast stream.  0.00 %, ceiling 5 %
  (``--max-resilience-tax``).  Pauses fire only on re-sends, so any
  cost on a fault-free run trips it.
- *exact binomial events*: ``Simulator.events_scheduled`` of one
  binomial 96-cache-line EXACT broadcast on 48 cores, where every MPB
  port is idle and each put/get's leg script runs as one virtual
  stretch (per-port stretches / cycles printed beside it).  1,392
  (94 / 9,024), ceiling 1,521; the count may only fall.  Trips when
  the stretch stops engaging (one run per cache line is ~55k events).
- *exact scatter-allgather events*: the same for one
  scatter-allgather broadcast, the same traffic cut into two-cycle
  stretches.  58,403 (4,606 / 9,521), ceiling 65,237.
- *exact oc-bcast calls*: Python calls of one warmed, contended EXACT
  OC-Bcast (k = 7, 96 cache lines): seven children fetch each chunk
  from one MPB, so every line is a real port hold made by a leg script
  (``repro.sim.LegScript``) while its rank sleeps.  121,657 (93,928 C
  calls, 24,143 events), ceiling 131,200.  A per-line generator step
  costs ~9k calls per sibling and trips it.
- *stream l1 runs per core*: the most address runs any core's
  run-length L1 (``repro.scc.memory``) holds after a streamed
  1,024-cache-line BATCH OC-Bcast.  1, ceiling 2 (one per buffer it
  streamed).  Trips when the L1 fragments.
- *fragmented l1 ops/access*: bytecode instructions per point access on
  an L1 fragmented into ``l1_lines`` single-line runs (512).  261,
  ceiling 64 per doubling of the run count (576).  The run lookup is a
  bisection; a scan of the runs trips it.
- *analytic replay steps*: ``AnalyticEngine.replay_steps`` per chunk,
  which follows the tree's critical path, never the core count: 12 at
  most over k = 2 / 7 / 47 on 48 cores (ceiling 16), 34 for k = 7 on
  the 1,024-core 32x16 mesh (ceiling 48).  Trips when the replay walks
  ranks again.
- *analytic op calls*: Python calls of one warm ``AnalyticEngine(k=7)
  .evaluate_batch`` over the ledger's 128 sizes, construction included
  (an engine is a copy of a memoised plan; results are built without a
  Python call per lane).  170 (498 C calls), ceiling 178.  A plan
  rebuilt per engine (~1,600 calls) or a call per lane (128) trips it.
- *asyncio service calls*: Python calls of one warmed 48-rank,
  three-chunk service run on the asyncio backend's own scheduler
  (``repro.transport.asyncio_backend``), where a blocking rank costs
  one generator step.  53,860 (20,322 C calls), ceiling 57,100.  A
  per-step hop costs ~11k calls and trips it; protocol edits of a few
  hundred calls do not.
- *scc byz service calls*: Python calls of one warmed 48-rank,
  one-chunk Byzantine service run on the SCC backend
  (``Scenario("guard_byz", 48, (6, 4), chunks=1, byz=True)``, seed 1),
  whose cost is the RBC's n-squared vote writes; each rank's vote
  fan-out is one leg script with landings (``Endpoint.vote_cast``).
  203,826 (144,077 C calls), ceiling 215,700.  A per-write wake-up
  costs ~60 calls per vote, ~278k per run, and trips it.
- *faulted byz calls*: Python calls of one warmed SCC ``byz`` chaos
  schedule (4x3 mesh, two chunks, two lying voters, a chip-wide
  dropped flag write, invariant checker on).  An attached injector is
  entered only at an armed occurrence and a quiet one leaves the leg
  scripts on (``repro.faults.injector``, "Countdowns").  88,051
  (60,034 C calls), ceiling 92,400.  A per-operation hook call or a
  switched-off vote cast costs ~40k calls and trips it.
- *empty-plan event tax* (BATCH and EXACT): the kernel events of one
  fault-free 48-core ``ft`` OC-Bcast (k = 7, 96 cache lines) with a
  ``FaultPlan()`` injector must equal those without one: 2,592 and
  24,418 both ways, an equality with no ceiling.  An empty injector
  that adds an event, or switches the leg scripts off, trips it.
- *analytic fast path*: a 1,024-trial all-fault-free
  ``fidelity="adaptive"`` campaign must serve every trial from the
  memoised reference: 1,024 served, 0 replayed through the kernel, not
  degraded.  Any replay or degradation trips it.

Usage::

    PYTHONPATH=src python benchmarks/perf_check.py
"""

from __future__ import annotations

import argparse
import math
import sys


def service_tax_pct() -> float:
    """Fault-free election-enabled service latency overhead (percent)
    over the bare baseline broadcast, on the 48-core chip with the
    three-chunk adversarial message size.  Deterministic."""
    from repro.bench import FaultCampaign
    from repro.faults import FaultPlan
    from repro.scc.config import CACHE_LINE

    campaign = FaultCampaign(trials=1, nbytes=3 * 96 * CACHE_LINE)
    base = campaign.run_one(FaultPlan(), ft=False)[0].latency
    svc = campaign.service_latency_once()
    return (svc / base - 1.0) * 100.0


def rbc_tax_pct() -> float:
    """Fault-free Byzantine-mode latency overhead (percent) over the
    crash-only service, on the 48-core chip with the single-chunk
    message size -- the worst case for the RBC rounds (one echo/ready
    vote per message, so nothing amortises).  Deterministic."""
    from repro.bench import FaultCampaign
    from repro.scc.config import CACHE_LINE

    campaign = FaultCampaign(trials=1, nbytes=96 * CACHE_LINE, byz=True)
    svc = campaign.service_latency_once()
    byz = campaign.byz_latency_once()
    return (byz / svc - 1.0) * 100.0


def resilience_tax_pct() -> float:
    """Fault-free adaptive-configuration latency overhead (percent)
    over the fixed-deadline service: phi-accrual bookkeeping plus the
    paced retry policies, measured on the same seeded multi-broadcast
    stream.  Policy pauses only fire on actual re-sends, so a clean run
    should price the whole resilience layer at (near) zero.
    Deterministic."""
    from repro.bench import ChurnCampaign

    campaign = ChurnCampaign(trials=1, broadcasts=3)
    fixed = campaign.latency_once(adaptive=False)
    adaptive = campaign.latency_once(adaptive=True)
    return (adaptive / fixed - 1.0) * 100.0


def _broadcast_once(algo: str, cache_lines: int, mode_name: str):
    """One broadcast of a fresh ``cache_lines``-line buffer from core 0 on
    the 48-core chip (OC-Bcast with k=7); returns the chip afterwards."""
    from repro.bench import BcastSpec
    from repro.rcce import Comm
    from repro.scc import ContentionMode, SccChip, SccConfig, run_spmd
    from repro.scc.config import CACHE_LINE

    nbytes = cache_lines * CACHE_LINE
    chip = SccChip(SccConfig(contention_mode=ContentionMode[mode_name]))
    comm = Comm(chip)
    bcast = BcastSpec(algo, k=7).build(comm)

    def program(core):
        cc = comm.attach(core)
        yield from bcast(cc, 0, cc.alloc(nbytes), nbytes)

    run_spmd(chip, program)
    return chip


def _stretches(chip) -> str:
    """The chip's per-port ``coalesced_runs / coalesced_cycles`` totals:
    how many virtual stretches its leg scripts ran, over how many holds."""
    runs = sum(mpb.port.coalesced_runs for mpb in chip.mpbs)
    cycles = sum(mpb.port.coalesced_cycles for mpb in chip.mpbs)
    return f"{runs} / {cycles} stretches / cycles"


#: Ceiling on kernel events for the uncontended EXACT broadcast below
#: (1,392 now); it may only fall.
MAX_EXACT_BINOMIAL_EVENTS = 1_521


def exact_binomial_events() -> tuple[int, str]:
    """``Simulator.events_scheduled`` of one binomial 96-cache-line EXACT
    broadcast on the 48-core chip, and its stretches.  Deterministic."""
    chip = _broadcast_once("binomial", 96, "EXACT")
    return chip.sim.events_scheduled, _stretches(chip)


#: Ceiling on kernel events for the EXACT scatter-allgather below
#: (58,403 now); it may only fall.
MAX_EXACT_SAG_EVENTS = 65_237


def exact_sag_events() -> tuple[int, str]:
    """``Simulator.events_scheduled`` of one scatter-allgather
    96-cache-line EXACT broadcast on the 48-core chip, and its
    stretches.  Deterministic."""
    chip = _broadcast_once("scatter_allgather", 96, "EXACT")
    return chip.sim.events_scheduled, _stretches(chip)


#: Ceiling on Python-level calls of the contended EXACT broadcast below
#: (121,657 now on CPython 3.11).
MAX_EXACT_OC_CALLS = 131_200


def _count_calls(fn, *args) -> tuple[int, int, object]:
    """``(Python calls, C calls, result)`` of one ``fn(*args)``, by
    ``sys.setprofile``.  Deterministic for one interpreter version."""
    counts = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(count)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"], result


def exact_oc_calls() -> tuple[int, int, int, str]:
    """``(Python calls, C calls, kernel events, stretches)`` of one
    warmed OC-Bcast (k=7) of 96 cache lines in EXACT mode on the 48-core
    chip."""
    _broadcast_once("oc", 96, "EXACT")  # warm: imports, lru caches
    calls, c_calls, chip = _count_calls(_broadcast_once, "oc", 96, "EXACT")
    return calls, c_calls, chip.sim.events_scheduled, _stretches(chip)


#: Ceiling on resident runs per core after the streamed broadcast below.
MAX_STREAM_L1_RUNS = 2


def stream_l1_runs() -> int:
    """The most runs any core's L1 holds after one 1,024-cache-line BATCH
    OC-Bcast (k=7) on the 48-core chip.  Deterministic."""
    chip = _broadcast_once("oc", 1024, "BATCH")
    return max(len(core.l1.resident_runs()) for core in chip.cores)


#: Bytecode instructions allowed per point access, per doubling of the
#: run count (an access costs ~300 whatever the fragmentation; scanning
#: the runs in Python would cost several per run).
L1_OPS_PER_LOG2_RUNS = 64


def fragmented_l1_ops_per_access() -> tuple[int, float]:
    """Fragment a default-sized L1 into single-line runs with a stride-2
    sweep over ``2 * l1_lines`` addresses, then count the bytecode
    instructions of a second sweep that misses (each access evicts one
    run and inserts another) and a third that hits (each access moves a
    run to the MRU end).  Returns ``(runs, instructions per access)``.
    Deterministic for one interpreter version."""
    from repro.scc import L1Cache, SccConfig

    cap = SccConfig().l1_lines
    l1 = L1Cache(cap)

    def sweep(first: int) -> None:
        for line in range(first, first + 2 * cap, 2):
            l1.access(line)

    ops = 0

    def count(frame, event, arg):
        nonlocal ops
        frame.f_trace_opcodes = True
        if event == "opcode":
            ops += 1
        return count

    sweep(0)
    sys.settrace(count)
    try:
        sweep(2 * cap)
        sweep(2 * cap)
    finally:
        sys.settrace(None)
    return len(l1.resident_runs()), ops / (2 * cap)


#: Ceilings on ``AnalyticEngine.replay_steps``: the 48-core chip (any
#: fan-out) and the 1,024-core 32x16 mesh at k=7.
MAX_REPLAY_STEPS_48 = 16
MAX_REPLAY_STEPS_1024 = 48


def analytic_replay_steps() -> tuple[int, int]:
    """Data-parallel steps per chunk of the analytic replay: the most
    over k in {2, 7, 47} on the 48-core chip, and k=7 on the 32x16
    mesh.  Fixed by the tree alone.  Deterministic."""
    from repro.scc import AnalyticEngine, SccConfig

    manycore = SccConfig(mesh_cols=32, mesh_rows=16)
    return (
        max(AnalyticEngine(k=k).replay_steps for k in (2, 7, 47)),
        AnalyticEngine(manycore, k=7).replay_steps,
    )


#: Ceiling on Python-level calls of the warm analytic op below (170 now
#: on CPython 3.11).
MAX_ANALYTIC_OP_CALLS = 178


def analytic_op_calls() -> tuple[int, int]:
    """``(Python calls, C calls)`` of one warm ``AnalyticEngine(k=7)
    .evaluate_batch`` over the ledger's 128 sizes (1..192 cache lines)
    on the 48-core chip, the engine's construction included.
    Deterministic for one interpreter version."""
    from repro.scc import AnalyticEngine
    from repro.scc.config import CACHE_LINE

    sizes = [(1 + (i * 191) // 127) * CACHE_LINE for i in range(128)]

    def op():
        return AnalyticEngine(k=7).evaluate_batch(sizes, iters=1)

    op()  # warm: imports, the plan cache
    calls, c_calls, _ = _count_calls(op)
    return calls, c_calls


#: Ceiling on Python-level calls of the asyncio service run below
#: (53,860 now on CPython 3.11).
MAX_ASYNCIO_SERVICE_CALLS = 57_100


def asyncio_service_calls() -> tuple[int, int]:
    """``(Python calls, C calls)`` of one warmed fault-free service
    broadcast (48 ranks, three chunks, seed 1) on the asyncio backend.
    Deterministic for one interpreter version."""
    from repro.transport.scenarios import Scenario, run_asyncio

    scenario = Scenario("guard_plain", 48, (6, 4), chunks=3)
    run_asyncio(scenario, 1)  # warm: imports, lru caches
    calls, c_calls, _ = _count_calls(run_asyncio, scenario, 1)
    return calls, c_calls


#: Ceiling on Python-level calls of the SCC byz service run below
#: (203,826 now on CPython 3.11).
MAX_SCC_BYZ_SERVICE_CALLS = 215_700


def scc_byz_service_calls() -> tuple[int, int]:
    """``(Python calls, C calls)`` of one warmed fault-free Byzantine
    service broadcast (48 ranks, one chunk, seed 1) on the SCC backend.
    Deterministic for one interpreter version."""
    from repro.transport.scenarios import Scenario, run_scc

    scenario = Scenario("guard_byz", 48, (6, 4), chunks=1, byz=True)
    run_scc(scenario, 1)  # warm: imports, lru caches
    calls, c_calls, _ = _count_calls(run_scc, scenario, 1)
    return calls, c_calls


def empty_plan_events(mode_name: str) -> tuple[int, int]:
    """``Simulator.events_scheduled`` of one fault-free ``ft`` OC-Bcast
    (k=7, 96 cache lines) on the 48-core chip: without an injector, and
    with an empty-plan one.  Deterministic."""
    from repro.faults import FaultPlan
    from repro.scc import ContentionMode, SccConfig
    from repro.scc.config import CACHE_LINE
    from repro.transport.world import (
        bcast_body, mode_config, run_world, scc_world, seeded_payload,
    )

    payload = seeded_payload(1, 96 * CACHE_LINE)
    events = []
    for plan in (None, FaultPlan()):
        world = scc_world(
            SccConfig(contention_mode=ContentionMode[mode_name]), plan=plan
        )
        run_world(world, bcast_body(world, mode_config("ft"), payload)).check()
        events.append(world.chip.sim.events_scheduled)
    return events[0], events[1]


#: Ceiling on Python-level calls of the faulted byz chaos schedule below
#: (88,051 now on CPython 3.11).
MAX_FAULTED_BYZ_CALLS = 92_400


def faulted_byz_calls() -> tuple[int, int]:
    """``(Python calls, C calls)`` of one warmed SCC ``byz`` chaos
    schedule -- 4x3 mesh, two chunks, two lying voters and a chip-wide
    dropped flag write, invariant checker attached.  Deterministic for
    one interpreter version."""
    from repro.chaos import ChaosSchedule, run_schedule
    from repro.faults import FaultKind, FaultSpec

    schedule = ChaosSchedule(
        backend="scc", mesh=(4, 3), cache_lines=2 * 96, mode="byz", seed=1,
        specs=(
            FaultSpec(FaultKind.LIE_IN_QUORUM, core=8, nth=1),
            FaultSpec(FaultKind.DROP_FLAG_WRITE, nth=273),
            FaultSpec(FaultKind.LIE_IN_QUORUM, core=7, nth=1),
        ),
    )
    run_schedule(schedule)  # warm: imports, lru caches
    calls, c_calls, _ = _count_calls(run_schedule, schedule)
    return calls, c_calls


#: Trials of the all-fault-free adaptive campaign below.
ANALYTIC_TRIALS = 1024


def analytic_fastpath() -> dict:
    """The fidelity bookkeeping of a 1,024-trial ``fault_rate=0.0``
    adaptive campaign: every trial must come from the analytically
    cross-checked reference run.  Deterministic."""
    from repro.bench import FaultCampaign

    return FaultCampaign(
        trials=ANALYTIC_TRIALS, seed=1, compare_baseline=False,
        fault_rate=0.0, fidelity="adaptive",
    ).run().fidelity


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--max-service-tax", type=float, default=5.0,
        help="max fault-free service (election-enabled) latency overhead "
             "over the baseline broadcast, percent (default 5.0)",
    )
    ap.add_argument(
        "--max-rbc-tax", type=float, default=15.0,
        help="max fault-free Byzantine-mode (Bracha RBC) latency overhead "
             "over the crash-only service, percent (default 15.0)",
    )
    ap.add_argument(
        "--max-resilience-tax", type=float, default=5.0,
        help="max fault-free adaptive-configuration (phi accrual + retry "
             "policies) latency overhead over the fixed-deadline service, "
             "percent (default 5.0)",
    )
    args = ap.parse_args(argv)

    frag_runs, frag_ops = fragmented_l1_ops_per_access()
    steps_48, steps_1024 = analytic_replay_steps()
    ana_calls, ana_c_calls = analytic_op_calls()
    aio_calls, aio_c_calls = asyncio_service_calls()
    byz_calls, byz_c_calls = scc_byz_service_calls()
    fbyz_calls, fbyz_c_calls = faulted_byz_calls()
    oc_calls, oc_c_calls, oc_events, oc_stretches = exact_oc_calls()
    binomial_events, binomial_stretches = exact_binomial_events()
    sag_events, sag_stretches = exact_sag_events()
    # (name, measured, ceiling, unit)
    ceilings = [
        ("service tax", service_tax_pct(), args.max_service_tax, "%"),
        ("rbc tax", rbc_tax_pct(), args.max_rbc_tax, "%"),
        ("resilience tax", resilience_tax_pct(), args.max_resilience_tax, "%"),
        (f"exact binomial events ({binomial_stretches})", binomial_events,
         MAX_EXACT_BINOMIAL_EVENTS, ""),
        (f"exact scatter-allgather events ({sag_stretches})", sag_events,
         MAX_EXACT_SAG_EVENTS, ""),
        (f"exact oc-bcast calls ({oc_c_calls} C calls, {oc_events} events, "
         f"{oc_stretches})", oc_calls, MAX_EXACT_OC_CALLS, ""),
        ("stream l1 runs per core", stream_l1_runs(), MAX_STREAM_L1_RUNS, ""),
        (f"fragmented l1 ops/access ({frag_runs} runs)", frag_ops,
         L1_OPS_PER_LOG2_RUNS * math.log2(frag_runs), ""),
        ("analytic replay steps (48 cores)", steps_48,
         MAX_REPLAY_STEPS_48, ""),
        ("analytic replay steps (1024 cores)", steps_1024,
         MAX_REPLAY_STEPS_1024, ""),
        (f"analytic op calls ({ana_c_calls} C calls)", ana_calls,
         MAX_ANALYTIC_OP_CALLS, ""),
        (f"asyncio service calls ({aio_c_calls} C calls)", aio_calls,
         MAX_ASYNCIO_SERVICE_CALLS, ""),
        (f"scc byz service calls ({byz_c_calls} C calls)", byz_calls,
         MAX_SCC_BYZ_SERVICE_CALLS, ""),
        (f"faulted byz calls ({fbyz_c_calls} C calls)", fbyz_calls,
         MAX_FAULTED_BYZ_CALLS, ""),
    ]
    width = max(len(name) for name, *_ in ceilings)
    failed = []

    def report(name: str, text: str, ok: bool) -> None:
        if not ok:
            failed.append(name)
        print(f"{name:<{width}}  {text}  {'ok' if ok else 'REGRESSED'}")

    for name, value, ceiling, unit in ceilings:
        report(
            name, f"{value:>12.2f}{unit}  vs {ceiling:>12.2f}{unit}",
            value <= ceiling,
        )
    for mode_name in ("BATCH", "EXACT"):
        bare, empty = empty_plan_events(mode_name)
        report(
            f"empty-plan event tax ({mode_name.lower()})",
            f"{empty:>12.2f}   == {bare:>12.2f}  ",
            empty == bare,
        )
    fid = analytic_fastpath()
    report(
        "analytic fast path",
        f"{fid['n_analytic']} of {ANALYTIC_TRIALS} trials served "
        f"analytically, {fid['n_replayed']} replayed, "
        f"degraded={fid['degraded']}",
        (fid["n_analytic"], fid["n_replayed"], fid["degraded"])
        == (ANALYTIC_TRIALS, 0, False),
    )
    if failed:
        print(f"\nFAIL: {len(failed)} guard(s) regressed: {', '.join(failed)}")
        return 1
    print("\nall deterministic guards hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
