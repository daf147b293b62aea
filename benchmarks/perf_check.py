"""Guard against simulator performance regressions.

Re-measures the engine benchmarks (quick mode) and compares each metric
against the committed ``current`` block of ``BENCH_simulator.json``.
Fails (exit 1) if any metric falls more than ``--tolerance`` below the
baseline; improvements always pass.  Wall-clock numbers on shared
machines are noisy, hence the generous default tolerance -- the guard
catches integer-factor regressions (a broken fast path), not percent
drift.

Also guards the *service tax*: the fault-free simulated-latency overhead
of the election-enabled broadcast service over the bare baseline
broadcast.  Simulated time is deterministic, so this check is exact --
it fails the moment membership/election bookkeeping leaks onto the
fault-free path.  The *rbc tax* check does the same for Byzantine mode:
the echo/ready quorum rounds must stay cheap relative to the crash-only
service they harden, and the *resilience tax* check prices the adaptive
configuration (phi-accrual detection + paced retry policies) against
the fixed-deadline service -- pauses only fire on actual re-sends, so
a fault-free run must stay under ``--max-resilience-tax`` percent.

The *EXACT event budget* is a work count, not a timing: one binomial
96-cache-line EXACT broadcast on 48 cores finds every MPB port idle, so
whole-transfer coalescing must keep it at a few events per put/get
(1,834 today; 55,414 with one run per cache line) -- exact, noise-free,
and it trips the moment the multi-leg run stops engaging.

Two more counts guard the run-length L1 (``repro.scc.memory``): a
streamed 1,024-cache-line BATCH OC-Bcast must leave every core's L1 as
at most two address runs (one per buffer it streamed), and on an L1
fragmented into ``l1_lines`` single-line runs a point access must cost a
bounded number of interpreter steps -- the run lookup is a bisection,
never a scan of the runs.

Usage::

    PYTHONPATH=src python benchmarks/perf_check.py
    PYTHONPATH=src python benchmarks/perf_check.py --tolerance 0.5
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from perf_report import RESULTS_PATH, measure


def service_tax_pct() -> float:
    """Fault-free election-enabled service latency overhead (percent)
    over the bare baseline broadcast, on the 48-core chip with the
    three-chunk adversarial message size.  Deterministic."""
    from repro.bench import FaultCampaign
    from repro.scc import SccChip
    from repro.scc.config import CACHE_LINE

    campaign = FaultCampaign(trials=1, nbytes=3 * 96 * CACHE_LINE)
    base = campaign._bcast_once(SccChip(campaign.config), ft=False)
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


#: Ceiling on kernel events for the uncontended EXACT broadcast below.
MAX_EXACT_BINOMIAL_EVENTS = 5_000


def exact_binomial_events() -> int:
    """``Simulator.events_scheduled`` of one binomial 96-cache-line EXACT
    broadcast on the 48-core chip.  Deterministic."""
    return _broadcast_once("binomial", 96, "EXACT").sim.events_scheduled


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional shortfall per metric (default 0.30)",
    )
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
    ap.add_argument(
        "--min-analytic-speedup", type=float, default=20.0,
        help="min ratio of adaptive-fidelity fault-free campaign "
             "throughput over the committed kernel campaign throughput "
             "(default 20.0 -- the ANALYTIC mode's raison d'etre)",
    )
    ap.add_argument("--baseline", default=RESULTS_PATH)
    args = ap.parse_args(argv)

    try:
        with open(args.baseline) as fh:
            doc = json.load(fh)
        committed = doc["current"]
    except (OSError, KeyError) as exc:
        print(f"no committed 'current' baseline in {args.baseline}: {exc}")
        print("run `make perf` first to record one")
        return 2

    fresh = measure(quick=True)
    failed = []
    width = max(len(k) for k in fresh)
    for key, value in fresh.items():
        base = committed.get(key)
        if not isinstance(base, (int, float)) or base <= 0:
            continue
        ratio = value / base
        verdict = "ok" if ratio >= 1.0 - args.tolerance else "REGRESSED"
        if verdict != "ok":
            failed.append(key)
        print(f"{key:<{width}}  {value:>12.3f}  vs {base:>12.3f}  "
              f"({ratio:5.2f}x)  {verdict}")

    tax = service_tax_pct()
    tax_ok = tax < args.max_service_tax
    print(f"{'service tax':<{width}}  {tax:>11.2f}%  vs "
          f"{args.max_service_tax:>11.2f}%  "
          f"{'ok' if tax_ok else 'REGRESSED'}")
    if not tax_ok:
        failed.append("service_tax")

    rbc = rbc_tax_pct()
    rbc_ok = rbc < args.max_rbc_tax
    print(f"{'rbc tax':<{width}}  {rbc:>11.2f}%  vs "
          f"{args.max_rbc_tax:>11.2f}%  "
          f"{'ok' if rbc_ok else 'REGRESSED'}")
    if not rbc_ok:
        failed.append("rbc_tax")

    res = resilience_tax_pct()
    res_ok = res < args.max_resilience_tax
    print(f"{'resilience tax':<{width}}  {res:>11.2f}%  vs "
          f"{args.max_resilience_tax:>11.2f}%  "
          f"{'ok' if res_ok else 'REGRESSED'}")
    if not res_ok:
        failed.append("resilience_tax")

    events = exact_binomial_events()
    events_ok = events <= MAX_EXACT_BINOMIAL_EVENTS
    print(f"{'exact binomial events':<{width}}  {events:>12d}  vs "
          f"{MAX_EXACT_BINOMIAL_EVENTS:>12d}  "
          f"{'ok' if events_ok else 'REGRESSED'}")
    if not events_ok:
        failed.append("exact_binomial_events")

    runs = stream_l1_runs()
    runs_ok = runs <= MAX_STREAM_L1_RUNS
    print(f"{'stream l1 runs per core':<{width}}  {runs:>12d}  vs "
          f"{MAX_STREAM_L1_RUNS:>12d}  "
          f"{'ok' if runs_ok else 'REGRESSED'}")
    if not runs_ok:
        failed.append("stream_l1_runs")

    frag_runs, frag_ops = fragmented_l1_ops_per_access()
    frag_budget = L1_OPS_PER_LOG2_RUNS * math.log2(frag_runs)
    frag_ok = frag_ops <= frag_budget
    print(f"{'fragmented l1 ops/access':<{width}}  {frag_ops:>12.1f}  vs "
          f"{frag_budget:>12.1f}  "
          f"{'ok' if frag_ok else 'REGRESSED'}  ({frag_runs} runs)")
    if not frag_ok:
        failed.append("fragmented_l1_ops")

    # Structural guard: the whole point of ANALYTIC mode is integer-factor
    # campaign speedups, so the adaptive fault-free path must stay >= 20x
    # the committed kernel campaign throughput (both are trials/sec; the
    # committed figure is the fault-free sweep path this PR accelerated).
    kernel_tps = committed.get("campaign_trials_per_sec", 0)
    ana_tps = fresh.get("campaign_trials_per_sec_analytic", 0)
    if kernel_tps and ana_tps:
        speedup = ana_tps / kernel_tps
        speedup_ok = speedup >= args.min_analytic_speedup
        print(f"{'analytic speedup':<{width}}  {speedup:>11.1f}x  vs "
              f"{args.min_analytic_speedup:>11.1f}x  "
              f"{'ok' if speedup_ok else 'REGRESSED'}")
        if not speedup_ok:
            failed.append("analytic_speedup")

    if failed:
        print(f"\nFAIL: {len(failed)} metric(s) regressed beyond "
              f"{args.tolerance:.0%}: {', '.join(failed)}")
        return 1
    print("\nall engine benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
