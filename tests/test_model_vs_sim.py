"""Cross-validation: the analytic model against the simulator.

The simulator and the "complete" analytic formulas were written
independently against the same protocol; in IDEAL contention mode (no
queueing -- the regime the formulas assume) they must agree within the
slack of the model's simplifications (notification-chain rounding,
pipeline-fill terms).  These tests hold across message sizes, fan-outs
and world sizes, so a regression in either side shows up immediately.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import BcastSpec, run_broadcast
from repro.model import TABLE_1, ModelParams, broadcast
from repro.scc import ContentionMode, SccConfig

IDEAL = SccConfig(contention_mode=ContentionMode.IDEAL)
PARAMS = ModelParams.from_config(IDEAL)


def simulated_latency(spec: BcastSpec, m_lines: int) -> float:
    res = run_broadcast(spec, m_lines * 32, config=IDEAL, iters=1, warmup=0)
    assert res.verified
    return res.mean_latency


class TestOcBcastModelAgreement:
    @pytest.mark.parametrize("k", [2, 7, 47])
    @pytest.mark.parametrize("m", [1, 32, 96, 192])
    def test_complete_model_tracks_simulation(self, k, m):
        sim = simulated_latency(BcastSpec("oc", k=k), m)
        model = broadcast.ocbcast_latency_complete(48, m, k, PARAMS)
        assert model == pytest.approx(sim, rel=0.35), (k, m, sim, model)

    def test_model_orderings_match_simulation(self):
        """Even where absolute values drift, the k-orderings agree."""
        for m in (1, 96):
            sim = {k: simulated_latency(BcastSpec("oc", k=k), m) for k in (2, 7, 47)}
            model = {
                k: broadcast.ocbcast_latency_complete(48, m, k, PARAMS)
                for k in (2, 7, 47)
            }
            sim_order = sorted(sim, key=sim.get)
            model_order = sorted(model, key=model.get)
            assert sim_order == model_order, (m, sim, model)


class TestBinomialModelAgreement:
    @pytest.mark.parametrize("m", [1, 32, 96, 192])
    def test_complete_model_tracks_simulation(self, m):
        sim = simulated_latency(BcastSpec("binomial"), m)
        model = broadcast.binomial_latency_complete(48, m, PARAMS)
        assert model == pytest.approx(sim, rel=0.35), (m, sim, model)


class TestThroughputAgreement:
    def test_peak_throughput_model_vs_simulation(self):
        res = run_broadcast(
            BcastSpec("oc", k=7), 8192 * 32, config=IDEAL, iters=2, warmup=1
        )
        model = broadcast.ocbcast_throughput_complete(PARAMS, 7)
        assert res.steady_throughput_mb_s == pytest.approx(model, rel=0.15)

    def test_sag_throughput_model_vs_simulation(self):
        res = run_broadcast(
            BcastSpec("scatter_allgather"), 4096 * 32, config=IDEAL, iters=2, warmup=1
        )
        model = broadcast.scatter_allgather_throughput_complete(48, PARAMS)
        assert res.steady_throughput_mb_s == pytest.approx(model, rel=0.25)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    P=st.integers(4, 24),
    k=st.integers(2, 12),
    m=st.integers(1, 64),
)
def test_property_model_within_2x_of_simulation(P, k, m):
    """Coarse but universal: the complete model never drifts past 2x of
    the simulated latency for any small configuration."""
    cfg = IDEAL.with_()
    res = run_broadcast(
        BcastSpec("oc", k=k), m * 32, config=cfg, iters=1, warmup=0
    )
    # run_broadcast uses the full 48-core chip; model with P=48.
    model = broadcast.ocbcast_latency_complete(48, m, k, PARAMS)
    assert model < 2.0 * res.mean_latency
    assert res.mean_latency < 2.0 * model


class TestPerLineCostsAgreeByConstruction:
    def test_kernel_engine_and_formulas_charge_a_line_identically(self):
        """Formulas 2/3, 5 and 6 have one definition
        (:mod:`repro.scc.costs`); the event kernel, the analytic engine
        and the LogP primitives must return the *same float* for every
        hop distance of the stock chip -- equality, not a tolerance."""
        from repro.model import primitives
        from repro.scc import AnalyticEngine, SccChip

        chip = SccChip(SccConfig())
        engine = AnalyticEngine()
        core0 = chip.cores[0]
        seen_mpb, seen_mem = set(), set()
        for core in chip.cores:
            d = chip.mesh.core_distance(0, core.id)
            seen_mpb.add(d)
            assert (
                core0.mpb_line_cost(d)
                == engine.line_cost[0, core.id]
                == primitives.c_mpb_read(TABLE_1, d)
                == primitives.c_mpb_write(TABLE_1, d)
            )
            seen_mem.add(core.mem_dist)
            assert (
                core.mem_read_line_cost()
                == engine.mem_read_line[core.id]
                == primitives.c_mem_read(TABLE_1, core.mem_dist)
            )
            assert (
                core.mem_write_line_cost()
                == engine.mem_write_line[core.id]
                == primitives.c_mem_write(TABLE_1, core.mem_dist)
            )
        assert seen_mpb == set(range(1, 10)) and seen_mem == {1, 2, 3, 4}

    @pytest.mark.parametrize("t_poll", [TABLE_1.t_poll, 0.1])
    def test_formulas_and_kernel_charge_a_poll_detection_identically(self, t_poll):
        """Detection delay has one definition too: the formulas' detect
        term is the kernel's poll charge for every sweep width -- the same
        float, including at a ``t_poll`` where a reordered expression
        would round differently."""
        from repro.scc import costs

        p = ModelParams(t_poll=t_poll)
        for n in range(1, 48):
            assert broadcast.detect_cost(p, n) == costs.poll_detect(t_poll, n)
