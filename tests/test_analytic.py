"""Cross-validation of the ANALYTIC engine and adaptive-fidelity campaigns.

Three guarantees pin the engine down:

- **Bit-exactness vs IDEAL**: the engine is a closed-form replay of the
  simulator's IDEAL-mode protocol, so its latencies must equal an IDEAL
  simulation to the last float across meshes, sizes and fan-outs.
- **Bounded error vs EXACT**: with contention on, the kernel's port
  queueing adds delay the closed form ignores; the envelope must stay
  under 2% for the paper's configurations.
- **Classification identity**: an adaptive-fidelity campaign must
  classify every trial exactly as the all-kernel campaign does --
  fault-free trials are deterministic replicas of the reference run, so
  serving them from memo is a pure speedup, never an approximation.

Note on comparisons: ``TrialRun.detail`` strings of watchdog-killed runs
name *one* of the stalled processes and the pick is not deterministic
across executions (pre-existing kernel behaviour); outcomes, latencies
and counters are deterministic, so those are what identity means here.
"""

import pytest

from repro.bench import BcastSpec, FaultCampaign, run_broadcast
from repro.bench.harness import analytic_engine_for, sweep_broadcast
from repro.obs import MetricsRegistry
from repro.scc import (
    AnalyticEngine,
    AnalyticUnsupported,
    ContentionMode,
    SccConfig,
    resolve_contention_mode,
)
from repro.scc.analytic import analytic_supported
from repro.scc.config import CACHE_LINE

#: (cols, rows) meshes spanning n = 4 .. 48 cores.
MESHES = [(2, 1), (2, 2), (3, 2), (6, 2), (6, 4)]
#: Sizes in cache lines covering 1 chunk, chunk+1 (pipeline fill) and
#: multi-chunk drains.
SIZES_CL = [1, 96, 97, 192]


def _cfg(cols: int, rows: int, mode: ContentionMode) -> SccConfig:
    return SccConfig(mesh_cols=cols, mesh_rows=rows, contention_mode=mode)


class TestAnalyticVsKernel:
    @pytest.mark.parametrize("cols,rows", MESHES)
    def test_matches_ideal_bit_exactly(self, cols, rows):
        spec = BcastSpec("oc", k=7)
        engine = analytic_engine_for(spec, _cfg(cols, rows, ContentionMode.IDEAL))
        for m in SIZES_CL:
            sim = run_broadcast(
                spec, m * CACHE_LINE,
                config=_cfg(cols, rows, ContentionMode.IDEAL),
                iters=2, warmup=1,
            )
            ana = engine.evaluate(m * CACHE_LINE, iters=2, warmup=1)
            assert ana.latencies == sim.latencies, (cols, rows, m)
            assert ana.measured_span == sim.measured_span, (cols, rows, m)

    @pytest.mark.parametrize("cols,rows", [(2, 1), (3, 2), (6, 2), (6, 4)])
    @pytest.mark.parametrize("m", [96, 192])
    def test_within_two_percent_of_exact(self, cols, rows, m):
        spec = BcastSpec("oc", k=7)
        sim = run_broadcast(
            spec, m * CACHE_LINE,
            config=_cfg(cols, rows, ContentionMode.EXACT),
            iters=1, warmup=0,
        )
        ana = analytic_engine_for(
            spec, _cfg(cols, rows, ContentionMode.EXACT)
        ).evaluate(m * CACHE_LINE, iters=1)
        rel = abs(ana.mean_latency - sim.mean_latency) / sim.mean_latency
        assert rel < 0.02, (cols, rows, m, sim.mean_latency, ana.mean_latency)

    @pytest.mark.parametrize("k", [2, 47])
    def test_fanout_variants_match_ideal(self, k):
        spec = BcastSpec("oc", k=k)
        cfg = SccConfig(contention_mode=ContentionMode.IDEAL)
        sim = run_broadcast(spec, 96 * CACHE_LINE, config=cfg, iters=1, warmup=0)
        ana = analytic_engine_for(spec, cfg).evaluate(96 * CACHE_LINE, iters=1)
        assert ana.latencies == sim.latencies

    def test_batch_equals_scalar_evaluate(self):
        engine = AnalyticEngine(k=7)
        sizes = [m * CACHE_LINE for m in SIZES_CL]
        batch = engine.evaluate_batch(sizes, iters=2, warmup=1)
        for nbytes, res in zip(sizes, batch):
            solo = engine.evaluate(nbytes, iters=2, warmup=1)
            assert res.latencies == solo.latencies
            assert res.measured_span == solo.measured_span

    def test_metrics_match_kernel_registry(self):
        spec = BcastSpec("oc", k=7)
        reg = MetricsRegistry()
        run_broadcast(
            spec, 96 * CACHE_LINE,
            config=SccConfig(contention_mode=ContentionMode.IDEAL),
            iters=2, warmup=1, metrics=reg,
        )
        flat = reg.flat()
        ana = analytic_engine_for(
            spec, SccConfig(contention_mode=ContentionMode.IDEAL)
        ).evaluate(96 * CACHE_LINE, iters=2, warmup=1)
        for name, value in ana.metrics.items():
            assert flat.get(name) == value, name

    def test_harness_dispatch_and_sweep(self):
        cfg = SccConfig(contention_mode=ContentionMode.ANALYTIC)
        res = run_broadcast(BcastSpec("oc", k=7), 96 * CACHE_LINE, config=cfg)
        ideal = run_broadcast(
            BcastSpec("oc", k=7), 96 * CACHE_LINE,
            config=SccConfig(contention_mode=ContentionMode.IDEAL),
        )
        assert res.verified
        assert res.latencies == ideal.latencies
        out = sweep_broadcast([BcastSpec("oc", k=7)], [1, 96], config=cfg)
        assert [r.cache_lines for r in out["OC-Bcast k=7"]] == [1, 96]


class TestAnalyticUnsupported:
    def test_jitter_rejected(self):
        cfg = SccConfig(jitter=0.05)
        assert analytic_supported(cfg) is not None
        with pytest.raises(AnalyticUnsupported):
            AnalyticEngine(cfg)

    def test_non_oc_algorithm_rejected(self):
        cfg = SccConfig(contention_mode=ContentionMode.ANALYTIC)
        with pytest.raises(AnalyticUnsupported):
            run_broadcast(BcastSpec("binomial"), 96 * CACHE_LINE, config=cfg)

    def test_mode_resolution(self):
        assert resolve_contention_mode("Analytic") is ContentionMode.ANALYTIC
        assert (resolve_contention_mode(ContentionMode.EXACT)
                is ContentionMode.EXACT)
        with pytest.raises(ValueError, match="unknown contention mode"):
            resolve_contention_mode("speedy")


def _classification(run):
    if run is None:
        return None
    return (run.outcome, run.latency, run.n_injected, run.n_recovered,
            run.n_evicted)


def _campaign(fidelity: str, **kw) -> FaultCampaign:
    return FaultCampaign(
        trials=24, seed=11, compare_baseline=False,
        fault_rate=0.3, fidelity=fidelity, **kw,
    )


class TestAdaptiveFidelity:
    def assert_identical(self, exact, adaptive):
        assert exact.counts == adaptive.counts
        assert exact.latency == adaptive.latency
        assert exact.timeline == adaptive.timeline
        for e, a in zip(exact.trials, adaptive.trials):
            assert e.plan == a.plan
            assert _classification(e.ft) == _classification(a.ft), e.index
            assert _classification(e.baseline) == _classification(a.baseline)
            assert _classification(e.service) == _classification(a.service)

    def test_classifications_identical_to_all_exact(self):
        exact = _campaign("exact").run()
        adaptive = _campaign("adaptive").run()
        self.assert_identical(exact, adaptive)
        assert adaptive.fidelity is not None
        assert not adaptive.fidelity["degraded"]
        assert adaptive.fidelity["n_analytic"] > 0
        assert (adaptive.fidelity["n_analytic"]
                + adaptive.fidelity["n_replayed"] == exact.n_trials)

    def test_parallel_adaptive_identical(self):
        exact = _campaign("exact").run()
        adaptive = _campaign("adaptive").run_trials(jobs=2)
        self.assert_identical(exact, adaptive)

    def test_byz_campaign_degrades_to_kernel(self):
        camp = FaultCampaign(
            trials=4, seed=3, byz=True, compare_baseline=False,
            fault_rate=0.5, fidelity="adaptive",
        )
        res = camp.run()
        assert res.fidelity is not None
        assert res.fidelity["degraded"]
        assert res.fidelity["n_analytic"] == 0

    def test_unmodelled_kinds_degrade_to_kernel(self):
        # Chaos/composite vocabularies: a campaign mixing in a fault
        # kind the analytic reference cannot model (time-window bursts,
        # core pauses, adversaries) must degrade to all-kernel execution
        # and say why -- while classifying identically to exact.
        from repro.faults import FaultKind

        kw = dict(
            trials=6, seed=7, compare_baseline=False, fault_rate=0.5,
            kinds=(FaultKind.DROP_FLAG_WRITE, FaultKind.LINK_DOWN),
            config=SccConfig(mesh_cols=3, mesh_rows=2),
        )
        adaptive = FaultCampaign(fidelity="adaptive", **kw).run()
        assert adaptive.fidelity is not None
        assert adaptive.fidelity["degraded"]
        assert "link_down" in adaptive.fidelity["reason"]
        assert adaptive.fidelity["n_analytic"] == 0
        assert adaptive.fidelity["n_replayed"] == adaptive.n_trials
        exact = FaultCampaign(fidelity="exact", **kw).run()
        self.assert_identical(exact, adaptive)

    def test_all_fault_free_is_fast_path(self):
        res = FaultCampaign(
            trials=64, seed=5, compare_baseline=False,
            fault_rate=0.0, fidelity="adaptive",
        ).run()
        assert res.counts["ft"]["delivered"] == 64
        assert res.fidelity["n_analytic"] == 64
        assert res.fidelity["n_replayed"] == 0

    def test_default_fault_rate_preserves_plans(self):
        # fault_rate=1.0 must not consume extra RNG draws: the trial
        # plans are bit-identical to a pre-fault-rate campaign's.
        a = FaultCampaign(trials=10, seed=2, compare_baseline=False)
        b = FaultCampaign(trials=10, seed=2, compare_baseline=False,
                          fault_rate=1.0)
        assert a.trial_plans() == b.trial_plans()
