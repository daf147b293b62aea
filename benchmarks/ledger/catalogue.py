"""Every metric the ledger prints: name, unit, which way is better.

One table, read by the driver (to print units), by ``--check`` (bounds),
by the self-tests (names and limits) and mirrored by ``BENCHMARK.json``.

*Host* units (``s``, ``ms``, ``ns``, ``1/s``, ``MiB``) are wall or CPU
time of the simulator process.  ``us_sim`` and ``MB/s_sim`` are time and
rate on the modelled chip's clock: deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Measured seconds the frozen pass counts were sized for on the 2-core
#: sandbox; equals ``run_seconds`` in BENCHMARK.json.  ``--seconds``
#: scales the pass counts linearly from here.
RUN_SECONDS = 10


@dataclass(frozen=True)
class WorkloadInfo:
    name: str
    #: Why the workload exists (BENCHMARK.json's ``why``).
    why: str
    #: Timed passes over the op multiset in ``RUN_SECONDS`` -- a fixed
    #: count, never a time budget, so two runs execute the same ops.
    passes: int


#: Names are final: every later performance claim refers to them.
WORKLOADS = (
    WorkloadInfo(
        "paper_exact",
        "Figure 8a/8b points at EXACT fidelity: per-cache-line MPB-port "
        "arbitration makes sim.resources, sim.kernel, scc and rcce do the work",
        9,
    ),
    WorkloadInfo(
        "stream_batch",
        "1024-line OC-Bcast in BATCH mode: whole-transfer port holds and the "
        "double-buffered pipeline; per-line arbitration does little (Table 2)",
        30,
    ),
    WorkloadInfo(
        "analytic_fastpath",
        "scc.analytic and numpy only; the event kernel, rcce and core are "
        "bypassed, so kernel or protocol changes must not move it",
        500,
    ),
    WorkloadInfo(
        "service_scc",
        "48-rank membership service, RBC and adaptive retry over SccTransport: "
        "protocol bookkeeping, vote writes and tracing outweigh data movement",
        30,
    ),
    WorkloadInfo(
        "service_asyncio",
        "the same four scenarios and seeds on the asyncio backend: "
        "transport.asyncio_backend does the work and the event kernel none",
        30,
    ),
    WorkloadInfo(
        "fault_campaign",
        "50 fault-bearing trials that must replay through the kernel: "
        "injector, FT re-notify, fresh world per trial and classification",
        5,
    ),
    WorkloadInfo(
        "chaos_mixed",
        "the soak's traffic mix: 60 small heterogeneous worlds on both "
        "backends with the online invariant checker always attached",
        8,
    ),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: End-to-end only: relative worsening that counts as a regression.
    bound: float | None = None


#: The end-to-end metrics every workload reports with tracing off; this
#: list is BENCHMARK.json's ``end_to_end``.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.15),
    Metric("op_ms_p50", "ms", "lower", 0.20),
    Metric("cpu_ms_per_op", "ms", "lower", 0.15),
    Metric("peak_rss_mb", "MiB", "lower", 0.15),
    Metric("sim_us_per_op", "us_sim", "lower", 0.03),
    Metric("sim_mb_per_s", "MB/s_sim", "higher", 0.03),
)

#: The two end-to-end metrics that cannot be BENCHMARK.json ``end_to_end``
#: entries -- ``failed_share`` is 0 on a healthy tree and ``ref_err_pct``
#: exists on three workloads only, and the contract wants metrics that
#: are never 0 and present on every workload.  The one command prints
#: them with the seven above; in the contract output ``failed_share`` is
#: ``failed``/``attempted`` and ``ref_err_pct`` is the per-layer
#: ``model.ref_err_pct`` (with ``model.ref_ops`` saying how many
#: comparisons it rests on).  Both must repeat exactly between sets.
LEDGER_ONLY = (
    Metric("failed_share", "ratio", "lower", 0.0),
    Metric("ref_err_pct", "%", "lower", 0.0),
)

#: Metrics that must agree to the last bit between two runs of one seed.
EXACT = frozenset({"sim_us_per_op", "sim_mb_per_s", "failed_share", "ref_err_pct"})


def _m(unit: str, better: str, *names: str) -> tuple[Metric, ...]:
    return tuple(Metric(n, unit, better) for n in names)


#: Fixed host probes (probes.py): same program in every traced run.
PROBE_METRICS = (
    *_m("1/s", "higher",
        "sim.events_per_s", "sim.resource_grants_per_s",
        "sim.coalesced_cycles_per_s", "scc.analytic_points_per_s",
        "rcce.put_lines_per_s", "rcce.get_lines_per_s", "rcce.flag_ops_per_s",
        "model.formula_evals_per_s",
        "transport.scc_rma_ops_per_s", "transport.asyncio_rma_ops_per_s",
        "bench.kernel_trials_per_s", "bench.adaptive_trials_per_s",
        "resilience.phi_timeouts_per_s", "resilience.policy_delays_per_s"),
    *_m("ms", "lower",
        "scc.chip_build_ms", "transport.asyncio_build_ms",
        "scc.analytic_build_ms",
        "core.oc_ms.ideal", "core.oc_ms.batch", "core.oc_ms.exact",
        "core.oc_ft_ms.batch",
        "collectives.binomial_ms.exact", "collectives.sag_ms.exact",
        "member.svc_ms.plain.scc", "member.svc_ms.byz.scc",
        "member.svc_ms.plain.asyncio", "member.svc_ms.byz.asyncio",
        "faults.plan_draw_ms", "bench.campaign_fixed_ms",
        "faults.trial_ms.clean", "faults.trial_ms.drop_flag",
        "faults.trial_ms.corrupt_flag", "faults.trial_ms.crash",
        "faults.trial_ms.service",
        "obs.harvest_ms", "chaos.generate_ms_per_schedule",
        "chaos.run_ms_p50.scc", "chaos.run_ms_p50.asyncio",
        "chaos.run_ms_p50.ft", "chaos.run_ms_p50.service",
        "chaos.run_ms_p50.byz"),
    *_m("%", "lower",
        "member.service_tax_pct", "member.rbc_tax_pct", "resilience.tax_pct",
        "obs.tracer_overhead_pct", "obs.metrics_overhead_pct",
        "obs.invariants_overhead_pct"),
    *_m("ratio", "higher", "bench.adaptive_served_share"),
)

#: Exact work counts and simulated times of one traced pass (harvest.py);
#: 0 means the layer did no work on that workload.
COUNT_METRICS = (
    *_m("count", "lower",
        "sim.events_scheduled",
        "scc.mpb_lines", "scc.mem_lines", "scc.polls",
        "rcce.puts", "rcce.gets", "rcce.put_bytes", "rcce.get_bytes",
        "rcce.flag_writes",
        "core.oc_chunks", "core.oc_bytes", "core.ft_renotifies",
        "member.hb", "member.view_installs", "member.suspects",
        "member.vote_writes", "member.commit_rounds",
        "transport.trace_records", "transport.digest_mismatches",
        "faults.injected", "resilience.backoffs",
        "chaos.refused", "chaos.violation", "chaos.injected"),
    *_m("count", "higher",
        "faults.recovered", "resilience.retry_ok", "chaos.tolerated",
        "model.ref_ops"),
    *_m("us_sim", "lower",
        "scc.port_wait_us", "scc.port_busy_us", "scc.core_mpb_us",
        "scc.core_mem_us", "scc.core_poll_us", "scc.core_idle_us"),
    *_m("ratio", "higher", "sim.coalesced_share", "faults.recovered_share"),
    *_m("ratio", "lower", "member.attempts_per_outcome"),
    *_m("%", "lower", "model.ref_err_pct"),
)

#: span name -> the per-layer metric carrying its self time per op.
SPAN_METRICS = {
    "scc.build": "scc.self_ms.build",
    "rcce.build": "rcce.self_ms.build",
    "core.build": "core.self_ms.build",
    "sim.run": "sim.self_ms.run",
    "bench.payload": "bench.self_ms.payload",
    "bench.verify": "bench.self_ms.verify",
    "obs.harvest": "obs.self_ms.harvest",
    "scc.analytic.build": "scc.self_ms.analytic_build",
    "scc.analytic.evaluate_batch": "scc.self_ms.analytic_eval",
    "transport.run_backend": "transport.self_ms.run_backend",
    "bench.run_one": "faults.self_ms.run_one",
    "chaos.run_schedule": "chaos.self_ms.run_schedule",
    "bench.op": "bench.self_ms.op",
}

#: Host numbers of the traced run itself.
BENCH_METRICS = (
    *_m("ms", "lower", *SPAN_METRICS.values()),
    Metric("sim.host_ns_per_event", "ns", "lower"),
    Metric("bench.op_ms_tail", "ms", "lower"),
    Metric("bench.op_tail_pct", "pct", "higher"),
    Metric("bench.op_samples", "count", "higher"),
    Metric("bench.trace_overhead_pct", "%", "lower"),
)

PER_LAYER = (*PROBE_METRICS, *COUNT_METRICS, *BENCH_METRICS)

BY_NAME = {m.name: m for m in (*END_TO_END, *LEDGER_ONLY, *PER_LAYER)}
