"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro info
    python -m repro bcast --algo oc --k 7 --cache-lines 96
    python -m repro sweep --algos oc:7 oc:2 binomial --sizes 1 16 96 192
    python -m repro sweep --algos oc:7 scatter_allgather \\
        --sizes 16 96 1024 4096 --throughput --chart
    python -m repro bcast --cache-lines 96 --metrics
    python -m repro trace --algo oc --k 7 --cache-lines 96 -o trace.json
    python -m repro contention --op get --lines 128
    python -m repro faults --trials 50 --kinds drop_flag crash --timeline
    python -m repro faults --trials 20 --byz --adversaries 3 --timeline
    python -m repro faults --trials 500 --fault-rate 0.05 --fidelity adaptive
    python -m repro sweep --algos oc:7 --sizes 1 16 96 192 --mode analytic
    python -m repro fit
    python -m repro model --what table2
    python -m repro model --what fig6 --mode analytic

Every command builds a fresh simulated chip, runs on it, and prints
tables (optionally ASCII charts) to stdout.  Bad input -- whichever
layer rejects it -- ends as ``ERROR: <message>`` on stderr and exit
status 2 (:func:`main`), never as a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .bench import (
    BcastSpec,
    FaultCampaign,
    format_fault_timeline,
    format_series,
    format_table,
    default_jobs,
    run_broadcast,
    sweep_broadcast,
    sweep_putget,
)
from .bench.faultcampaign import parse_kinds
from .faults import CRASH_SITES
from .bench.ascii_plot import ascii_chart
from .bench.contention import contention_sweep
from .model import TABLE_1, broadcast as model_bcast, fitting
from .scc import (
    AnalyticEngine,
    AnalyticUnsupported,
    ContentionMode,
    SccConfig,
    resolve_contention_mode,
)
from .scc.config import CACHE_LINE


def _parse_spec(text: str) -> BcastSpec:
    """'oc:7' -> OC-Bcast with k=7; 'binomial' / 'scatter_allgather' as-is."""
    if text.startswith("oc"):
        k = int(text.split(":", 1)[1]) if ":" in text else 7
        return BcastSpec("oc", k=k)
    return BcastSpec(text)


def _config(args: argparse.Namespace) -> SccConfig:
    # Subcommands without --mode fall back to the chip default (batch).
    return SccConfig(
        mesh_cols=args.mesh_cols,
        mesh_rows=args.mesh_rows,
        contention_mode=resolve_contention_mode(getattr(args, "mode", "batch")),
    )


def _add_mesh_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mesh-cols", type=int, default=6, help="mesh columns (default 6)")
    p.add_argument("--mesh-rows", type=int, default=4, help="mesh rows (default 4)")


def _add_mode_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--mode", default="batch",
        choices=[m.value for m in ContentionMode],
        help="contention fidelity: exact = per-line port arbitration, "
             "batch = whole-transfer port holds (default), ideal = no "
             "queueing, analytic = closed-form numpy replay of the "
             "IDEAL protocol without the event kernel (OC-Bcast only)",
    )


def _add_jobs_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for independent runs (0 = one per CPU core, "
             "default 1 = in-process); results are identical for any N",
    )


def cmd_info(args: argparse.Namespace) -> int:
    cfg = _config(args)
    rows = [
        ["cores", cfg.num_cores],
        ["tiles", f"{cfg.mesh_cols}x{cfg.mesh_rows}"],
        ["MPB per core", f"{cfg.mpb_bytes} B ({cfg.mpb_lines} lines)"],
        ["cache line", f"{CACHE_LINE} B"],
        ["L_hop", f"{cfg.l_hop} us"],
        ["o_mpb", f"{cfg.o_mpb} us"],
        ["o_mem_r / o_mem_w", f"{cfg.o_mem_r} / {cfg.o_mem_w} us"],
        ["contention mode", cfg.contention_mode.value],
    ]
    print(format_table(["property", "value"], rows, title="Simulated chip"))
    return 0


#: Headline metrics shown by ``bcast --metrics`` (the full registry goes
#: to ``--metrics-out``); everything else is in docs/OBSERVABILITY.md.
_HEADLINE_METRICS = (
    "sim.events_scheduled",
    "trace.records",
    "mpb.port.acquisitions.total",
    "mpb.port.wait_time.total",
    "mpb.port.utilisation.max",
    "mpb.port.max_queue.max",
    "mpb.port.coalesced_cycles.total",
    "core.compute_time.total",
    "core.mpb_time.total",
    "core.mem_time.total",
    "core.poll_time.total",
    "core.idle_time.total",
)


def _metrics_report(metrics, out_path: str | None) -> None:
    flat = metrics.flat()
    rows = [[k, f"{flat[k]:.4g}"] for k in _HEADLINE_METRICS if k in flat]
    if not rows:  # analytic runs have protocol counters, no kernel stats
        rows = [[k, f"{flat[k]:.4g}"] for k in sorted(flat)]
    print()
    print(format_table(["metric", "value"], rows, title="Metrics"))
    if out_path:
        payload = (
            metrics.to_csv() if out_path.endswith(".csv") else metrics.to_json() + "\n"
        )
        with open(out_path, "w") as fh:
            fh.write(payload)
        print(f"full registry ({len(metrics)} metrics) written to {out_path}")


def cmd_bcast(args: argparse.Namespace) -> int:
    spec = _parse_spec(args.algo if args.algo != "oc" else f"oc:{args.k}")
    metrics = None
    if args.metrics or args.metrics_out:
        from .obs import MetricsRegistry

        metrics = MetricsRegistry()
    res = run_broadcast(
        spec,
        args.cache_lines * CACHE_LINE,
        config=_config(args),
        root=args.root,
        iters=args.iters,
        warmup=args.warmup,
        metrics=metrics,
    )
    if not res.verified:
        print("ERROR: payload verification failed", file=sys.stderr)
        return 1
    rows = [
        ["algorithm", spec.label],
        ["message", f"{args.cache_lines} cache lines ({res.nbytes} B)"],
        ["mean latency", f"{res.mean_latency:.2f} us"],
        ["per-iteration", ", ".join(f"{v:.2f}" for v in res.latencies)],
        ["latency throughput", f"{res.throughput_mb_s:.2f} MB/s"],
        ["steady throughput", f"{res.steady_throughput_mb_s:.2f} MB/s"],
    ]
    print(format_table(["metric", "value"], rows, title="Broadcast"))
    if metrics is not None:
        _metrics_report(metrics, args.metrics_out)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs import (
        InvariantChecker,
        MetricsRegistry,
        to_chrome_trace,
        validate_chrome_trace,
    )
    from .sim import Tracer

    spec = _parse_spec(args.algo if args.algo != "oc" else f"oc:{args.k}")
    tracer = Tracer(enabled=True)
    metrics = MetricsRegistry()
    checker = InvariantChecker()
    tracer.add_listener(checker.feed)
    res = run_broadcast(
        spec,
        args.cache_lines * CACHE_LINE,
        config=_config(args),
        root=args.root,
        iters=args.iters,
        warmup=args.warmup,
        metrics=metrics,
        tracer=tracer,
    )
    doc = to_chrome_trace(tracer.records)
    validate_chrome_trace(doc)
    import json as _json

    with open(args.output, "w") as fh:
        _json.dump(doc, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    rows = [
        ["algorithm", spec.label],
        ["message", f"{args.cache_lines} cache lines ({res.nbytes} B)"],
        ["mean latency", f"{res.mean_latency:.2f} us"],
        ["trace records", len(tracer.records)],
        ["trace events", len(doc["traceEvents"])],
        ["invariants", "OK" if checker.ok else f"{len(checker.violations)} VIOLATED"],
        ["output", args.output],
    ]
    print(format_table(["metric", "value"], rows, title="Trace export"))
    print(f"load {args.output} in https://ui.perfetto.dev or chrome://tracing")
    if args.metrics_out:
        _metrics_report(metrics, args.metrics_out)
    if not checker.ok:
        print(f"\n{checker.violations[0]}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    specs = [_parse_spec(a) for a in args.algos]
    out = sweep_broadcast(
        specs, args.sizes, config=_config(args), iters=args.iters,
        warmup=args.warmup, jobs=args.jobs or default_jobs(),
    )
    if args.throughput:
        series = {
            label: [r.steady_throughput_mb_s for r in rows]
            for label, rows in out.items()
        }
        what = "steady throughput (MB/s)"
    else:
        series = {
            label: [r.mean_latency for r in rows] for label, rows in out.items()
        }
        what = "mean latency (us)"
    print(format_series("CL", list(args.sizes), series, title=f"Broadcast {what}"))
    if args.chart:
        print()
        print(
            ascii_chart(
                list(args.sizes),
                series,
                logx=max(args.sizes) / max(1, min(args.sizes)) > 50,
                title=f"Broadcast {what}",
                x_label="CL",
                y_label=what.split()[-1],
            )
        )
    return 0


def cmd_contention(args: argparse.Namespace) -> int:
    rows = contention_sweep(
        args.op, args.lines, counts=args.counts, config=_config(args), iters=args.iters
    )
    print(
        format_table(
            ["cores", "mean (us)", "fastest", "slowest", "slow/fast"],
            [[r.n_cores, r.mean, r.fastest, r.slowest, r.spread] for r in rows],
            title=f"Concurrent {args.op} of {args.lines} cache line(s)",
        )
    )
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    names = list(args.kinds)
    if args.burst and "link_down" not in names:
        names.append("link_down")
    campaign = FaultCampaign(
        trials=args.trials,
        seed=args.seed,
        kinds=parse_kinds(names),
        nbytes=args.cache_lines * CACHE_LINE,
        config=_config(args),
        compare_baseline=not args.no_baseline,
        service=args.service,
        faults_per_trial=args.faults_per_trial,
        crash_site=args.crash_site,
        mid_stream=args.mid_stream,
        link_down_duration=args.burst_duration,
        byz=args.byz,
        adversaries=args.adversaries,
        fault_rate=args.fault_rate,
        fidelity=args.fidelity,
    )
    result = campaign.run_trials(jobs=args.jobs or default_jobs())
    print(result.summary())
    if args.timeline:
        print()
        print(format_fault_timeline(result.timeline))
    # A campaign "fails" only if a hardened leg broke a safety or
    # termination promise (CampaignResult.lost); each such trial's own
    # schedule becomes a replayable chaos bundle with a one-line repro
    # command (docs/FAULTS.md §9), instead of just a counter bump.
    if args.bundle_dir:
        from .chaos import repro_command, write_campaign_bundles

        for path, leg, index in write_campaign_bundles(
            campaign, result, args.bundle_dir
        ):
            run = getattr(result.trials[index], leg)
            print(
                f"lost trial {index} ({leg}: {run.outcome}) -- repro: "
                f"{repro_command(path)}"
            )
    return 1 if result.lost() else 0


def cmd_churn(args: argparse.Namespace) -> int:
    from .bench import ChurnCampaign

    campaign = ChurnCampaign(
        trials=args.trials,
        seed=args.seed,
        broadcasts=args.broadcasts,
        flap_period=args.flap_period,
        flap_duty=args.flap_duty,
        crash=not args.no_crash,
        compare_fixed=not args.no_fixed,
        check_i8=not args.no_i8,
    )
    result = campaign.run()
    print(result.summary())
    # The campaign's promise is the ISSUE-10 acceptance bar: every
    # adaptive trial terminates cleanly with zero false evictions and
    # zero online I8 violations.
    failed = (result.termination_rate < 1.0
              or result.n_false_evictions
              or result.n_i8_violations)
    return 1 if failed else 0


def _parse_chaos_mesh(text: str) -> tuple[int, int]:
    """'3x2' -> (3, 2) mesh columns x rows."""
    try:
        cols, rows = text.lower().split("x", 1)
        return (int(cols), int(rows))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"mesh must look like COLSxROWS (e.g. 6x4), got {text!r}"
        ) from None


def cmd_chaos(args: argparse.Namespace) -> int:
    from .chaos import (
        ReproBundle, ScheduleGenerator, repro_command, run_soak, shrink,
    )

    if args.replay:
        failed = 0
        for path in args.replay:
            bundle = ReproBundle.load(path)
            outcome, mismatches = bundle.replay()
            tag = "OK" if not mismatches else "MISMATCH"
            print(f"[{tag}] {path}: {outcome.describe()}")
            if bundle.note:
                print(f"  note: {bundle.note}")
            for line in mismatches:
                print(f"  {line}")
                failed += 1
            if args.shrink and outcome.classification == "violation":
                result = shrink(outcome.schedule, max_runs=args.shrink_runs)
                print(f"  {result.describe()}")
                print(f"  minimal schedule: {result.schedule.describe()}")
        return 1 if failed else 0

    if args.trials is not None and args.trials < 1:
        raise ValueError("need at least one trial")
    if args.budget is not None and args.budget <= 0:
        raise ValueError("budget must be positive")
    generator = ScheduleGenerator(
        seed=args.seed,
        backends=tuple(args.backends),
        meshes=tuple(args.meshes),
        modes=tuple(args.modes),
        max_events=args.max_events,
        max_chunks=args.max_chunks,
        fragile=args.fragile,
    )
    metrics = None
    if args.metrics_out:
        from .obs import MetricsRegistry

        metrics = MetricsRegistry()
    result = run_soak(
        generator,
        trials=args.trials,
        budget=args.budget,
        jobs=args.jobs or default_jobs(),
        out_dir=args.out_dir,
        shrink_failures=not args.no_shrink,
        shrink_runs=args.shrink_runs,
        metrics=metrics,
        log=print if args.verbose else None,
    )
    print(result.summary())
    if metrics is not None:
        _metrics_report(metrics, args.metrics_out)
    return 0 if result.ok else 1


def cmd_fit(args: argparse.Namespace) -> int:
    obs = sweep_putget(_config(args), iters=args.iters)
    result = fitting.fit(obs)
    rows = [
        [name, fitted, ref, f"{rel * 100:.3f}%"]
        for name, (fitted, ref, rel) in result.compare(TABLE_1).items()
    ]
    print(
        format_table(
            ["parameter", "fitted (us)", "Table 1 (us)", "error"],
            rows,
            title=f"LogP fit over {result.n_observations} observations "
                  f"(residual RMS {result.residual_rms:.2e})",
            float_fmt="{:.4f}",
        )
    )
    return 0


def _model_mesh(cores: int) -> SccConfig:
    """A chip geometry with exactly ``cores`` cores for engine-backed
    model evaluation (48 -> the real 6x4 mesh; other even counts get the
    widest mesh that divides evenly)."""
    for rows in (4, 2, 1):
        if cores % (2 * rows) == 0:
            return SccConfig(mesh_cols=cores // (2 * rows), mesh_rows=rows)
    raise ValueError(f"engine evaluation needs an even core count, got {cores}")


def cmd_model(args: argparse.Namespace) -> int:
    analytic = resolve_contention_mode(args.mode) is ContentionMode.ANALYTIC
    if analytic:
        cfg = _model_mesh(args.cores)
    if args.what == "table2":
        if analytic:
            # Steady-state pipeline throughput from the engine's protocol
            # replay; scatter-allgather has no engine schedule, so its row
            # keeps the Formula 16 value.
            big = 8 * model_bcast.M_OC * CACHE_LINE
            rows: list[list] = []
            for k in (2, 7, min(47, args.cores - 1)):
                eng = AnalyticEngine(cfg, k=k)
                res = eng.evaluate(big, iters=3, warmup=1)
                rows.append([f"OC-Bcast k={k}", res.steady_throughput_mb_s])
            rows.append([
                "scatter-allgather (formula)",
                model_bcast.scatter_allgather_throughput_complete(args.cores, TABLE_1),
            ])
            title = f"Table 2 (engine replay), P={args.cores}"
        else:
            t2 = model_bcast.table2(args.cores, TABLE_1)
            rows = list(t2.as_dict().items())
            title = f"Table 2 (analytic), P={args.cores}"
        print(format_table(["algorithm", "peak throughput (MB/s)"], rows, title=title))
        return 0
    sizes = list(range(1, 193, 8))
    if analytic:
        series = {}
        for k in (2, 7):
            eng = AnalyticEngine(cfg, k=k)
            batch = eng.evaluate_batch([m * CACHE_LINE for m in sizes], iters=1)
            series[f"k={k}"] = [r.mean_latency for r in batch]
        series["binomial (formula)"] = model_bcast.binomial_latency_complete_batch(
            args.cores, sizes, TABLE_1
        ).tolist()
        title = f"Figure 6a (engine replay), P={args.cores}"
    else:
        series = {
            "k=2": model_bcast.ocbcast_latency_complete_batch(
                args.cores, sizes, 2, TABLE_1).tolist(),
            "k=7": model_bcast.ocbcast_latency_complete_batch(
                args.cores, sizes, 7, TABLE_1).tolist(),
            "binomial": model_bcast.binomial_latency_complete_batch(
                args.cores, sizes, TABLE_1).tolist(),
        }
        title = f"Figure 6a (analytic), P={args.cores}"
    print(ascii_chart(sizes, series, title=title, x_label="CL", y_label="us"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OC-Bcast on a simulated Intel SCC: run the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="describe the simulated chip")
    _add_mesh_args(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("bcast", help="run one broadcast and report latency")
    p.add_argument("--algo", default="oc",
                   choices=["oc", "binomial", "scatter_allgather", "osag"])
    p.add_argument("--k", type=int, default=7, help="OC-Bcast fan-out")
    p.add_argument("--cache-lines", type=int, default=96)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--iters", type=int, default=3)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--metrics", action="store_true",
                   help="collect and print headline metrics for the run")
    p.add_argument("--metrics-out", metavar="FILE", default=None,
                   help="also dump the full metric registry (.csv or .json)")
    _add_mesh_args(p)
    _add_mode_arg(p)
    p.set_defaults(fn=cmd_bcast)

    p = sub.add_parser(
        "trace",
        help="run one broadcast and export a Chrome/Perfetto trace",
    )
    p.add_argument("--algo", default="oc",
                   choices=["oc", "binomial", "scatter_allgather", "osag"])
    p.add_argument("--k", type=int, default=7, help="OC-Bcast fan-out")
    p.add_argument("--cache-lines", type=int, default=96)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--iters", type=int, default=1)
    p.add_argument("--warmup", type=int, default=0)
    p.add_argument("-o", "--output", default="trace.json",
                   help="trace-event JSON path (default trace.json)")
    p.add_argument("--metrics-out", metavar="FILE", default=None,
                   help="also dump the full metric registry (.csv or .json)")
    _add_mesh_args(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("sweep", help="latency/throughput sweep over sizes")
    p.add_argument("--algos", nargs="+", default=["oc:7", "binomial"],
                   help="e.g. oc:7 oc:2 binomial scatter_allgather")
    p.add_argument("--sizes", nargs="+", type=int, default=[1, 16, 96, 192],
                   help="message sizes in cache lines")
    p.add_argument("--iters", type=int, default=2)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--throughput", action="store_true",
                   help="report steady throughput instead of latency")
    p.add_argument("--chart", action="store_true", help="also draw an ASCII chart")
    _add_mesh_args(p)
    _add_mode_arg(p)
    _add_jobs_arg(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("contention", help="concurrent MPB access study (Fig. 4)")
    p.add_argument("--op", choices=["get", "put"], default="get")
    p.add_argument("--lines", type=int, default=128)
    p.add_argument("--counts", nargs="+", type=int,
                   default=[1, 8, 16, 24, 32, 47])
    p.add_argument("--iters", type=int, default=10)
    _add_mesh_args(p)
    p.set_defaults(fn=cmd_contention)

    p = sub.add_parser(
        "faults", help="seeded fault-injection campaign (FT vs baseline)"
    )
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--kinds", nargs="+", default=["drop_flag"],
        help="fault kinds: drop_flag corrupt_flag drop_data corrupt_data "
             "stall link_down pause crash; sustained regimes: flap "
             "(flapping_link) churn (repeated_crash) storm "
             "(congestion_storm); adversary kinds (--byz): "
             "equivocate forge_flag lie_quorum",
    )
    p.add_argument("--cache-lines", type=int, default=96,
                   help="message size (96 = one chunk, every flag write fatal)")
    p.add_argument("--no-baseline", action="store_true",
                   help="skip the (slow, deadlock-prone) baseline runs")
    p.add_argument("--timeline", action="store_true",
                   help="print the fault timeline of the first faulty trial")
    p.add_argument("--service", action="store_true",
                   help="also run every trial against the crash-surviving "
                        "broadcast service (membership + integrity)")
    p.add_argument("--burst", action="store_true",
                   help="add link_down correlated-burst faults to the mix")
    p.add_argument("--burst-duration", type=float, default=400.0,
                   help="link-down burst window in us (with --burst)")
    p.add_argument("--faults-per-trial", type=int, default=1,
                   help="faults injected per trial (kinds cycle within "
                        "each multi-fault plan)")
    p.add_argument("--crash-site", choices=list(CRASH_SITES),
                   default="leaf",
                   help="where crash faults strike (interior orphans a "
                        "subtree; root kills the source/coordinator -- "
                        "only the election-capable service survives)")
    p.add_argument("--mid-stream", action="store_true",
                   help="aim faults at the middle of the run (pair with a "
                        "multi-chunk --cache-lines)")
    p.add_argument("--byz", action="store_true",
                   help="Byzantine campaign: run every trial against the "
                        "RBC-hardened service (Bracha echo/ready quorums) "
                        "with compromised cores drawn per trial; --kinds "
                        "may name equivocate/forge_flag/lie_quorum (all "
                        "three when unset)")
    p.add_argument("--adversaries", type=int, default=1,
                   help="compromised cores per Byzantine trial (the RBC "
                        "guarantees hold up to f = (n-1)//3)")
    p.add_argument("--fault-rate", type=float, default=1.0,
                   help="fraction of trials that draw a fault plan; the "
                        "rest run fault-free (default 1.0 = every trial "
                        "faulty, the historical behaviour)")
    p.add_argument("--fidelity", choices=["exact", "adaptive"],
                   default="exact",
                   help="adaptive = serve fault-free trials from an "
                        "analytically cross-checked reference run and "
                        "replay only fault-bearing trials through the "
                        "event kernel (identical classifications, "
                        "orders of magnitude faster at low --fault-rate)")
    p.add_argument("--bundle-dir", metavar="DIR", default="chaos_bundles",
                   help="write each lost trial (a hardened leg that broke "
                        "safety or termination; a timeout is a refusal, "
                        "not a loss) here as the chaos schedule it ran "
                        "as, replayable bit-for-bit (empty string "
                        "disables; default chaos_bundles/)")
    _add_mesh_args(p)
    _add_mode_arg(p)
    _add_jobs_arg(p)
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser(
        "churn",
        help="sustained-regime survival campaign: adaptive (phi accrual "
             "+ paced retries) vs fixed-deadline membership under a "
             "continuously flapping link plus mid-stream crash",
    )
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--broadcasts", type=int, default=10,
                   help="consecutive service broadcasts per trial")
    p.add_argument("--flap-period", type=float, default=2_000.0,
                   help="flap cycle length in us")
    p.add_argument("--flap-duty", type=float, default=0.4,
                   help="fraction of each cycle the link is down")
    p.add_argument("--no-crash", action="store_true",
                   help="flapping only: skip the mid-stream core crash")
    p.add_argument("--no-fixed", action="store_true",
                   help="skip the fixed-deadline comparison leg")
    p.add_argument("--no-i8", action="store_true",
                   help="skip the online no-false-eviction (I8) checker")
    p.set_defaults(fn=cmd_churn)

    p = sub.add_parser(
        "chaos",
        help="randomized composite-fault search over both transport "
             "backends (soak, replay, shrink)",
    )
    p.add_argument("--trials", type=int, default=None,
                   help="number of schedules to run (default: 100, or "
                        "unbounded when --budget is given)")
    p.add_argument("--budget", type=float, default=None, metavar="SECS",
                   help="wall-clock budget in seconds (soak stops at "
                        "whichever of --trials/--budget hits first)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--backends", nargs="+", default=["scc", "asyncio"],
                   choices=["scc", "asyncio"],
                   help="transport backends to draw schedules over")
    p.add_argument("--modes", nargs="+",
                   default=["service", "service", "service", "byz", "ft"],
                   choices=["service", "byz", "ft", "baseline"],
                   help="protocol-mode mix, drawn uniformly (repeat a mode "
                        "to weight it; baseline needs --fragile)")
    p.add_argument("--meshes", nargs="+", type=_parse_chaos_mesh,
                   default=[(2, 2), (3, 2), (4, 3)], metavar="CxR",
                   help="mesh geometries, e.g. --meshes 2x2 6x4 "
                        "(cores = 2 x cols x rows)")
    p.add_argument("--max-events", type=int, default=3,
                   help="max composite fault events per schedule")
    p.add_argument("--max-chunks", type=int, default=3,
                   help="max message length in chunks")
    p.add_argument("--fragile", action="store_true",
                   help="admit the deliberately fragile baseline mode "
                        "(ft=False): schedules are expected to violate -- "
                        "counterexample/shrinker demo, not a soak")
    p.add_argument("--out-dir", metavar="DIR", default=None,
                   help="write a repro bundle for every violation here")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip delta-debugging minimisation of violations")
    p.add_argument("--shrink-runs", type=int, default=250,
                   help="schedule-execution budget per shrink")
    p.add_argument("--replay", nargs="+", metavar="BUNDLE", default=None,
                   help="replay repro bundle(s) and diff against their "
                        "recorded expectations (exit 1 on mismatch)")
    p.add_argument("--shrink", action="store_true",
                   help="with --replay: also minimise a replayed violation")
    p.add_argument("--verbose", action="store_true",
                   help="log per-batch soak progress")
    p.add_argument("--metrics-out", metavar="FILE", default=None,
                   help="dump chaos outcome metrics (.csv or .json)")
    _add_jobs_arg(p)
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("fit", help="recover Table 1 from simulated sweeps")
    p.add_argument("--iters", type=int, default=3)
    _add_mesh_args(p)
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("model", help="evaluate the analytic model")
    p.add_argument("--what", choices=["table2", "fig6"], default="table2")
    p.add_argument("--cores", type=int, default=48)
    p.add_argument(
        "--mode", default="batch",
        choices=[m.value for m in ContentionMode],
        help="analytic = evaluate via the AnalyticEngine protocol replay "
             "(bit-identical to an IDEAL simulation) instead of the "
             "closed-form Figure 7 formulas; other modes keep the formulas",
    )
    p.set_defaults(fn=cmd_model)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, MemoryError, AnalyticUnsupported) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
