"""Self-tests of the ledger benchmark.

    python -m pytest benchmarks/ledger -q

``testpaths = ["tests"]`` keeps these out of the tier-1 run: they spawn
the benchmark's own worker processes and take about a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import catalogue  # noqa: E402
import run as ledger_run  # noqa: E402
import stats  # noqa: E402
from spans import Span, SpanRecorder, self_ms_by_name, self_times_ns  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def ledger(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, *args], cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300,
    )


# -- the percentile rule ------------------------------------------------------------

@pytest.mark.parametrize("n, pct", [
    (1000, 99), (999, 95), (200, 95), (199, 90), (100, 90), (99, 80),
    (50, 80), (49, 75), (40, 75), (39, 50), (7, 50), (1, 50),
])
def test_tail_percentile_needs_ten_samples_beyond_it(n, pct):
    assert stats.tail_pct(n) == pct
    if pct != 50:
        assert stats.samples_beyond(n, pct) >= stats.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([5.0], 50) == 5.0
    assert stats.tail(values) == (90, 90)


def test_spread_is_the_drivers_quartile_rule():
    import statistics

    values = [10.0, 11.0, 9.5, 10.2, 10.4, 9.9, 10.1, 10.3, 9.8, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == (q3 - q1) / statistics.median(values)


# -- span arithmetic -----------------------------------------------------------------

def test_self_time_is_duration_minus_direct_children():
    spans = [
        Span(0, "bench.op", 0, 100, None, 0),
        Span(1, "scc.build", 10, 30, 0, 0),
        Span(2, "sim.run", 30, 90, 0, 0),
        Span(3, "inner", 40, 50, 2, 0),      # grandchild: charged to sim.run only
        Span(4, "bench.op", 100, 160, None, 1),
        Span(5, "sim.run", 110, 150, 4, 1),
    ]
    selfs = self_times_ns(spans)
    assert selfs == {0: 20, 1: 20, 2: 50, 3: 10, 4: 20, 5: 40}
    assert sum(selfs.values()) == 100 + 60  # self times tile the roots exactly
    by_name = self_ms_by_name(spans)
    assert by_name["sim.run"] == pytest.approx(90 / 1e6)
    assert by_name["bench.op"] == pytest.approx(40 / 1e6)


def test_recorder_nests_and_shares_op_ids(tmp_path):
    rec = SpanRecorder()
    with rec.span("bench.pass"):
        with rec.op() as first:
            with rec.span("sim.run") as inner:
                pass
        with rec.op() as second:
            pass
    assert inner.parent == first.id and inner.op == first.op == 0
    assert second.op == 1 and second.parent == 0
    assert rec.spans[0].op is None
    assert all(sp.end_ns >= sp.start_ns for sp in rec.spans)
    path = tmp_path / "spans.jsonl"
    rec.write_jsonl(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in rows] == ["bench.pass", "bench.op", "sim.run", "bench.op"]
    assert set(rows[0]) == {"id", "name", "start_ns", "end_ns", "parent", "op"}


# -- the stepwise traced driver measures the same program ------------------------------

@pytest.mark.parametrize("algo, ncl, mode, iters, warmup", [
    ("oc", 97, "exact", 1, 0),
    ("binomial", 8, "exact", 1, 0),
    ("scatter_allgather", 48, "exact", 1, 0),
    ("oc", 200, "batch", 2, 1),
])
def test_stepwise_equals_run_broadcast(algo, ncl, mode, iters, warmup):
    from repro.bench import BcastSpec, run_broadcast
    from repro.scc import ContentionMode, SccConfig
    from stepwise import stepwise_broadcast

    config = SccConfig(contention_mode=ContentionMode(mode))
    spec = BcastSpec(algo, k=7)
    kw = dict(config=config, iters=iters, warmup=warmup, seed=5)
    whole = run_broadcast(spec, ncl * 32, verify=True, **kw)
    rec = SpanRecorder()
    steps = stepwise_broadcast(spec, ncl * 32, rec, **kw)
    assert steps.latencies == whole.latencies
    assert steps.measured_span == whole.measured_span
    assert steps.verified and whole.verified
    assert [sp.name for sp in rec.spans] == [
        "scc.build", "rcce.build", "core.build", "bench.payload", "sim.run",
        "bench.verify", "obs.harvest",
    ]


def test_world_capture_is_passive_and_restores_the_constructors():
    from harvest import WorldCapture
    from repro.scc import SccChip
    from repro.transport import AsyncioNetwork
    from repro.transport.scenarios import SCENARIOS, run_asyncio, run_scc

    inits = SccChip.__init__, AsyncioNetwork.__init__
    bare = run_scc(SCENARIOS["ft_broadcast"], 3)
    with WorldCapture() as capture:
        seen = run_scc(SCENARIOS["ft_broadcast"], 3)
        run_asyncio(SCENARIOS["ft_broadcast"], 3)
        assert len(capture.worlds) == 2
        counts = capture.drain()
        assert not capture.worlds
    assert (SccChip.__init__, AsyncioNetwork.__init__) == inits
    assert [(r.time, r.source, r.kind) for r in seen.records] == \
        [(r.time, r.source, r.kind) for r in bare.records]
    assert counts["sim.events_scheduled"] > 0 and counts["rcce.flag_writes"] > 0
    assert counts["transport.trace_records"] == 2 * len(bare.records)


# -- names and limits -------------------------------------------------------------------

def test_names_units_and_limits():
    workloads = [w.name for w in catalogue.WORKLOADS]
    printed_end_to_end = (*catalogue.END_TO_END, *catalogue.LEDGER_ONLY)
    assert len(workloads) == 7
    assert len(printed_end_to_end) == 9
    assert len(catalogue.END_TO_END) <= 16
    assert len(catalogue.PER_LAYER) <= 128
    names = workloads + [m.name for m in (*printed_end_to_end, *catalogue.PER_LAYER)]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for m in (*printed_end_to_end, *catalogue.PER_LAYER):
        assert UNIT.fullmatch(m.unit), m
        assert m.better in ("lower", "higher")
    for m in catalogue.END_TO_END:
        assert 0 < m.bound <= 0.25
    setup = catalogue.BY_NAME["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in catalogue.END_TO_END)
    for w in catalogue.WORKLOADS:
        assert len(w.why) <= 200 and "\n" not in w.why and w.passes >= 1


def test_benchmark_json_mirrors_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert doc["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert doc["paths"] == ["benchmarks/ledger"]
    assert doc["run_seconds"] == catalogue.RUN_SECONDS
    assert doc["workloads"] == [
        {"name": w.name, "why": w.why} for w in catalogue.WORKLOADS
    ]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalogue.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in catalogue.PER_LAYER
    ]


@pytest.mark.parametrize("trace, declared", [
    (0, catalogue.END_TO_END), (1, catalogue.PER_LAYER),
])
def test_driver_prints_exactly_the_declared_names(trace, declared):
    proc = ledger("--workload", "analytic_fastpath", "--seed", "4",
                  "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m.name for m in declared}
    for m in declared:
        entry = result["metrics"][m.name]
        assert entry["unit"] == m.unit
        assert isinstance(entry["value"], (int, float))
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["sim.events_scheduled"] == 0  # the kernel is bypassed
        assert values["model.ref_ops"] > 0 and values["model.ref_err_pct"] == 0
        assert os.path.exists(
            os.path.join(HERE, "out", "spans-analytic_fastpath.jsonl")
        )


# -- seeds, smoke run, refusal ------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2])  # 2 is the held-out seed
def test_quick_run_is_clean_and_fast(seed):
    t0 = time.monotonic()
    proc = ledger("--quick", "--seed", str(seed))
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 30, f"--quick took {elapsed:.1f} s"
    shares = re.findall(r"failed_share\s+(\S+) ratio", proc.stdout)
    assert shares == ["0"] * 7
    for w in catalogue.WORKLOADS:
        assert f"== {w.name}:" in proc.stdout
    for m in (*catalogue.END_TO_END, *catalogue.LEDGER_ONLY):
        assert proc.stdout.count(f"  {m.name} ") == 7
    assert proc.stdout.count("n/a") == 4  # ref_err_pct where there is no reference


def test_list_ops_is_a_function_of_the_seed():
    args = ("--list-ops", "--workload", "stream_batch", "--workload", "service_scc")
    first = ledger(*args, "--seed", "7").stdout
    assert first == ledger(*args, "--seed", "7").stdout
    assert first != ledger(*args, "--seed", "8").stdout
    assert len(first.splitlines()) == 2 + 1 + 4


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        ["python3", "benchmarks/ledger/run.py", "--workload", "paper_exact",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- --sets / --check ------------------------------------------------------------------------

def test_disagreement_rule():
    d = ledger_run.disagreement
    assert d("ops_per_s", [100.0, 104.0]) == pytest.approx(4.0 / 102.0)
    assert d("sim_us_per_op", [204.5, 204.5]) == 0.0
    assert d("sim_us_per_op", [204.5, 204.5000001]) == float("inf")
    assert d("rcce.puts", [10.0, 11.0]) == float("inf")
    assert d("ref_err_pct", [None, None]) == 0.0
    assert d("ref_err_pct", [None, 1.0]) == float("inf")


def test_pass_counts_scale_with_seconds_only():
    for w in catalogue.WORKLOADS:
        assert ledger_run.passes_for(w.name, catalogue.RUN_SECONDS) == w.passes
        assert ledger_run.passes_for(w.name, 0.001) == 1
    assert ledger_run.passes_for("stream_batch", 20) == 2 * ledger_run.passes_for(
        "stream_batch", 10
    )
