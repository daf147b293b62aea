"""One workload in one fresh process (spawned by run.py).

Load shape: closed loop, one client, one thread -- the next operation
starts when the previous one returns.  The process does its set-up
(imports, op-list generation, one untimed warm-up pass), then a fixed
number of timed passes over the op list.  ``gc.collect()`` runs before
each pass and the collector stays on.  The result goes to stdout as one
JSON object; diagnostics go to stderr.

With ``--traced-passes N`` the process instead runs N untraced passes,
then N passes under the span recorder and the world capture (harvest.py),
then the fixed probes, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass

import stats
from catalogue import COUNT_METRICS, SPAN_METRICS
from spans import SpanRecorder, self_ms_by_name, span
from workloads import BUILDERS, Op, Outcome

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

_FAILED = Outcome(ok=False, sim_us=0.0, nbytes=0)


@dataclass
class Sample:
    wall_ns: int
    cpu_ns: int
    out: Outcome

    @property
    def sim(self) -> tuple:
        """What must repeat exactly whenever the op is run again."""
        o = self.out
        return (o.ok, o.sim_us, o.nbytes, o.span_us, o.ref_err)


def run_op(op: Op, rec: SpanRecorder | None) -> Sample:
    cpu0, wall0 = time.process_time_ns(), time.perf_counter_ns()
    try:
        if rec is None:
            out = op.run(None)
        else:
            with rec.op():
                out = op.run(rec)
    except Exception:  # an op that raises is a failed op, not a dead benchmark
        print(f"op raised: {op.label}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        out = _FAILED
    return Sample(
        time.perf_counter_ns() - wall0, time.process_time_ns() - cpu0, out
    )


def run_pass(ops: list[Op], rec: SpanRecorder | None = None) -> list[Sample]:
    gc.collect()
    with span(rec, "bench.pass"):
        return [run_op(op, rec) for op in ops]


def best_times(passes: list[list[Sample]]) -> tuple[list[int], list[int]]:
    """Per op of the multiset: its best (wall ns, cpu ns) over the passes.

    Disturbances on a shared sandbox are one-sided and last seconds: a
    neighbour slows some passes by 10-40 % and never speeds one up.  The
    best of an op's N repeats estimates what the op costs undisturbed,
    which is the quantity a code change moves; between identical runs it
    repeats within 1-4 %, where the per-op median moved 3-10 % and the
    plain total more (README, "Measured run-to-run spread")."""
    n_ops = len(passes[0])
    wall = [min(p[i].wall_ns for p in passes) for i in range(n_ops)]
    cpu = [min(p[i].cpu_ns for p in passes) for i in range(n_ops)]
    return wall, cpu


def count_failed(passes: list[list[Sample]], reference: list[Sample]) -> int:
    """Ops whose check failed, plus ops whose simulated result differs
    from the reference pass (the simulator must be deterministic)."""
    return sum(
        1
        for p in passes
        for s, ref in zip(p, reference)
        if not s.out.ok or s.sim != ref.sim
    )


def sim_metrics(first: list[Sample]) -> dict[str, float]:
    outs = [s.out for s in first]
    span_us = math.fsum(o.sim_us if o.span_us is None else o.span_us for o in outs)
    refs = [o.ref_err for o in outs if o.ref_err is not None]
    return {
        "sim_us_per_op": math.fsum(o.sim_us for o in outs) / len(outs),
        "sim_mb_per_s": sum(o.nbytes for o in outs) / span_us,
        "ref_ops": float(sum(o.ref_ops for o in outs)),
        "ref_err_pct": 100.0 * max(refs) if refs else None,
    }


def untraced_metrics(passes: list[list[Sample]]) -> dict:
    wall, cpu = best_times(passes)
    sim = sim_metrics(passes[0])
    return {
        "ops_per_s": len(wall) / (sum(wall) / 1e9),
        "op_ms_p50": statistics.median(wall) / 1e6,
        "cpu_ms_per_op": sum(cpu) / 1e6 / len(cpu),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_us_per_op": sim["sim_us_per_op"],
        "sim_mb_per_s": sim["sim_mb_per_s"],
        "ref_err_pct": sim["ref_err_pct"],
    }


def traced_metrics(
    plain: list[list[Sample]],
    traced: list[list[Sample]],
    counts: Counter,
    rec: SpanRecorder,
) -> dict[str, float]:
    n_ops = len(plain[0])
    plain_wall, plain_cpu = (sum(ns) for ns in best_times(plain))
    traced_wall = sum(best_times(traced)[0])
    sim = sim_metrics(plain[0])

    # Ops report their own facts (outcome classes, injections); the
    # worlds report the rest.  One traced pass, so the counts are per pass.
    for s in traced[0]:
        counts.update(s.out.facts)
    out = {m.name: float(counts.get(m.name, 0.0)) for m in COUNT_METRICS}
    acquisitions = counts["_port.coalesced_cycles"] + counts["_port.acquisitions"]
    out["sim.coalesced_share"] = (
        counts["_port.coalesced_cycles"] / acquisitions if acquisitions else 0.0
    )
    out["faults.recovered_share"] = (
        counts["faults.recovered"] / counts["faults.injected"]
        if counts["faults.injected"] else 0.0
    )
    out["member.attempts_per_outcome"] = (
        counts["_svc.attempts"] / counts["_svc.outcomes"]
        if counts["_svc.outcomes"] else 0.0
    )
    out["model.ref_ops"] = sim["ref_ops"]
    out["model.ref_err_pct"] = sim["ref_err_pct"] or 0.0

    events = out["sim.events_scheduled"]
    out["sim.host_ns_per_event"] = plain_cpu / events if events else 0.0

    self_ms = self_ms_by_name(rec.spans)
    traced_ops = n_ops * len(traced)
    for span_name, metric in SPAN_METRICS.items():
        out[metric] = self_ms.get(span_name, 0.0) / traced_ops

    walls = [s.wall_ns / 1e6 for p in plain for s in p]
    pct, value = stats.tail(walls)
    out["bench.op_ms_tail"] = value
    out["bench.op_tail_pct"] = float(pct)
    out["bench.op_samples"] = float(len(walls))
    out["bench.trace_overhead_pct"] = (traced_wall / plain_wall - 1.0) * 100.0
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--traced-passes", type=int, default=0)
    ap.add_argument("--t0", type=float, default=None,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--list-ops", action="store_true")
    args = ap.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()

    rec = SpanRecorder() if args.traced_passes else None
    with span(rec, "bench.setup"):
        ops = BUILDERS[args.workload](args.seed)
        if args.list_ops:
            for op in ops:
                print(op.label)
            return 0
        warm = run_pass(ops)
    result: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_pass": len(ops),
        "setup_s": time.monotonic() - t0,
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    n_plain = args.traced_passes or args.passes
    t_start = time.perf_counter()
    plain = [run_pass(ops) for _ in range(n_plain)]
    result["measured_s"] = time.perf_counter() - t_start
    # The warm-up pass is the reference: a timed pass that disagrees with
    # it (or a traced pass that disagrees) broke determinism or passivity.
    result["failed"] = count_failed(plain, warm)
    result["attempted"] = n_plain * len(ops)
    result["passes"] = n_plain

    if rec is None:
        result["metrics"] = untraced_metrics(plain)
    else:
        # Imported here so that an untraced run (and its setup_s) never
        # loads the capture or the probes.
        from harvest import WorldCapture
        from probes import run_probes

        # Every traced pass runs under the capture (so all cost the same);
        # the counts are per pass and deterministic, so the first is kept.
        traced: list[list[Sample]] = []
        with WorldCapture() as capture:
            traced.append(run_pass(ops, rec))
            counts = capture.drain()
            for _ in range(args.traced_passes - 1):
                traced.append(run_pass(ops, rec))
                capture.worlds.clear()
        result["failed"] += count_failed(traced, warm)
        result["attempted"] += len(traced) * len(ops)
        metrics = traced_metrics(plain, traced, counts, rec)
        metrics.update(run_probes())
        result["metrics"] = metrics
        os.makedirs(OUT_DIR, exist_ok=True)
        rec.write_jsonl(os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
