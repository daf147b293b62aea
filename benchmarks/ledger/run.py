"""The layered performance ledger: one command, every metric by name.

    PYTHONPATH=src python benchmarks/ledger/run.py            # all workloads
    python benchmarks/ledger/run.py --workload paper_exact --traced
    python benchmarks/ledger/run.py --sets 2 --check          # repeatability gate
    python benchmarks/ledger/run.py --quick                   # CI smoke, gates nothing
    python benchmarks/ledger/run.py --list-ops --seed 2       # the frozen op multisets

Each workload runs in its own fresh subprocess (worker.py) with
``PYTHONHASHSEED=0`` and single-threaded numerics, so peak RSS and the
program's ``lru_cache``s are per workload.  ``--seed`` is the only source
of randomness.  The exit code is non-zero when any operation's output
check failed, or when ``--check`` finds two sets disagreeing by more than
a metric's bound.

With ``--trace 0|1`` (the acceptance driver's form, which also passes
``--workload``, ``--seed`` and ``--seconds``) the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``); everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import stats  # noqa: E402  (needs HERE on the path)
from catalogue import (  # noqa: E402
    BY_NAME, END_TO_END, EXACT, LEDGER_ONLY, PER_LAYER, RUN_SECONDS, WORKLOADS,
)

WORKLOAD_PASSES = {w.name: w.passes for w in WORKLOADS}
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_RUNS = 3
#: Share of the untraced pass count a traced run spends on each of its
#: two halves (untraced passes, then traced passes); the probes take the
#: rest of the run.
TRACED_SHARE = 0.25
WORKER_TIMEOUT_S = 170


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(WORKLOAD_PASSES[workload] * seconds / RUN_SECONDS))


def spawn_worker(workload: str, seed: int, *extra: str) -> dict | str:
    """Run worker.py in a fresh interpreter; returns its JSON result (or
    its raw stdout for ``--list-ops``)."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--t0", repr(time.monotonic()), *extra,
    ]
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    if "--list-ops" in extra:
        return proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_untraced(workload: str, seed: int, passes: int, setup_runs: int) -> dict:
    result = spawn_worker(workload, seed, "--passes", str(passes))
    setups = [result["setup_s"]] + [
        spawn_worker(workload, seed, "--setup-only")["setup_s"]
        for _ in range(setup_runs - 1)
    ]
    metrics = result["metrics"]
    metrics["setup_s"] = statistics.median(setups)
    metrics["failed_share"] = result["failed"] / result["attempted"]
    result["setups"] = setups
    return result


def run_traced(workload: str, seed: int, passes: int) -> dict:
    n = max(1, round(passes * TRACED_SHARE))
    return spawn_worker(workload, seed, "--traced-passes", str(n))


# -- the acceptance driver's form -------------------------------------------------

def contract_main(args: argparse.Namespace) -> int:
    if args.workload is None or len(args.workload) != 1:
        print("--trace needs exactly one --workload", file=sys.stderr)
        return 2
    (workload,) = args.workload
    passes = passes_for(workload, args.seconds)
    if args.trace:
        result = run_traced(workload, args.seed, passes)
        names = [m.name for m in PER_LAYER]
    else:
        result = run_untraced(workload, args.seed, passes, SETUP_RUNS)
        names = [m.name for m in END_TO_END]
    metrics = {
        name: {"value": result["metrics"][name], "unit": BY_NAME[name].unit}
        for name in names
    }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


# -- the one command ---------------------------------------------------------------

def fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_block(workload: str, result: dict, traced: dict | None) -> None:
    m = result["metrics"]
    samples = result["attempted"]
    print(
        f"== {workload}: seed {result['seed']}, {result['passes']} passes x "
        f"{result['ops_per_pass']} ops = {samples} samples, "
        f"{result['measured_s']:.1f} s measured =="
    )
    notes = {
        "setup_s": f"median of {len(result['setups'])} set-ups",
        "op_ms_p50": f"{samples} samples",
        "failed_share": f"{result['failed']} of {samples} ops",
    }
    for metric in (*END_TO_END, *LEDGER_ONLY):
        note = notes.get(metric.name)
        print(
            f"  {metric.name:<36} {fmt(m[metric.name]):>14} {metric.unit:<9}"
            + (f" ({note})" if note else "")
        )
    if traced is not None:
        t = traced["metrics"]
        print(
            f"  -- per layer (traced run: {traced['passes']} untraced + "
            f"{traced['passes']} traced passes, then probes) --"
        )
        for metric in PER_LAYER:
            print(f"  {metric.name:<36} {fmt(t[metric.name]):>14} {metric.unit}")
    print()


def disagreement(name: str, values: list[float | None]) -> float:
    """How far apart the sets are: exact metrics by any difference,
    the rest by (max - min) as a share of the median."""
    if any(v is None for v in values):
        return 0.0 if all(v is None for v in values) else float("inf")
    if name in EXACT or BY_NAME[name].unit in ("count", "us_sim"):
        return 0.0 if len(set(values)) == 1 else float("inf")
    med = statistics.median(values)
    return (max(values) - min(values)) / med if med else 0.0


def print_sets(workload: str, runs: list[dict], traced: list[dict]) -> list[str]:
    """Per metric: each set's value, median, quartiles; returns the names
    of end-to-end metrics (and counts) that disagree beyond their bound."""
    bad: list[str] = []
    print(f"== {workload}: {len(runs)} sets ==")
    for metric in (*END_TO_END, *LEDGER_ONLY):
        values = [r["metrics"][metric.name] for r in runs]
        row = "  ".join(fmt(v) for v in values)
        line = f"  {metric.name:<22} {metric.unit:<9} sets: {row}"
        if all(v is not None for v in values):
            q1, med, q3 = stats.quartiles(values)
            line += f"  median {fmt(med)}  q1 {fmt(q1)}  q3 {fmt(q3)}"
        gap = disagreement(metric.name, values)
        exact = metric.name in EXACT
        ok = gap == 0 if exact else gap <= metric.bound
        limit = "must be exact" if exact else f"spread {gap:.3f} vs bound {metric.bound:g}"
        line += f"  {limit} {'ok' if ok else 'DISAGREE'}"
        if not ok:
            bad.append(f"{workload}:{metric.name}")
        print(line)
    for metric in PER_LAYER if traced else ():
        if metric.unit not in ("count", "us_sim"):
            continue
        values = [t["metrics"][metric.name] for t in traced]
        if disagreement(metric.name, values):
            print(f"  {metric.name:<36} sets: {values}  DISAGREE (must be exact)")
            bad.append(f"{workload}:{metric.name}")
    print()
    return bad


def ledger_main(args: argparse.Namespace) -> int:
    workloads = args.workload or list(WORKLOAD_PASSES)
    if args.list_ops:
        for w in workloads:
            print(f"== {w} (seed {args.seed}) ==")
            print(spawn_worker(w, args.seed, "--list-ops"), end="")
        return 0

    sets = 1 if args.quick else args.sets
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    traced: dict[str, list[dict]] = {w: [] for w in workloads}
    for _ in range(sets):
        for w in workloads:
            passes = 1 if args.quick else passes_for(w, args.seconds)
            result = run_untraced(w, args.seed, passes, 1 if args.quick else SETUP_RUNS)
            runs[w].append(result)
            t = None
            if args.traced:
                t = run_traced(w, args.seed, passes)
                traced[w].append(t)
            print_block(w, result, t)

    failed = [
        w for w in workloads
        if any(r["failed"] for r in runs[w] + traced[w])
    ]
    disagree: list[str] = []
    if sets > 1:
        for w in workloads:
            disagree += print_sets(w, runs[w], traced[w])
    if failed:
        print(f"FAILED output checks on: {', '.join(failed)}")
    if args.quick:
        print("--quick: one pass per workload; the numbers gate nothing")
    if args.check and disagree:
        print(f"--check: sets disagree beyond the bound on: {', '.join(disagree)}")
    return 1 if failed or (args.check and disagree) else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__,
    )
    ap.add_argument("--workload", action="append", choices=list(WORKLOAD_PASSES),
                    help="run only this workload (repeatable; default: all seven)")
    ap.add_argument("--seed", type=int, default=1,
                    help="the only source of randomness (default 1; 2 is held out)")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="measured seconds the pass counts are scaled to "
                         f"(default {RUN_SECONDS}, for which they were frozen)")
    ap.add_argument("--traced", action="store_true",
                    help="also make the traced run and print the per-layer metrics")
    ap.add_argument("--sets", type=int, default=1,
                    help="repeat the full set K times and print medians and quartiles")
    ap.add_argument("--check", action="store_true",
                    help="with --sets: exit non-zero when sets disagree beyond a bound "
                         "(implies --sets 2 when --sets is not given)")
    ap.add_argument("--quick", action="store_true",
                    help="one pass per workload and one set-up: a smoke run")
    ap.add_argument("--list-ops", action="store_true",
                    help="print the frozen op multiset of each workload and exit")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="acceptance-driver form: print one JSON result line")
    args = ap.parse_args(argv)
    if args.check and args.sets < 2:
        args.sets = 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    if args.trace is not None:
        return contract_main(args)
    return ledger_main(args)


if __name__ == "__main__":
    sys.exit(main())
