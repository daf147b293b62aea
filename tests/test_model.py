"""Tests for the analytical model: Formulas 1-16, Table 2, fitting."""

import pytest

from repro.model import TABLE_1, ModelParams, broadcast, fitting, primitives
from repro.scc import SccConfig

from . import reference_model


P = TABLE_1


class TestPrimitives:
    """Hand-computed spot checks of Figure 2's formulas with Table 1."""

    def test_mpb_write_latency_and_completion(self):
        # o_mpb + d*Lhop / + 2d*Lhop
        assert reference_model.l_mpb_write(P, 4) == pytest.approx(0.126 + 4 * 0.005)
        assert primitives.c_mpb_write(P, 4) == pytest.approx(0.126 + 8 * 0.005)

    def test_mpb_read_latency_equals_completion(self):
        assert primitives.c_mpb_read(P, 9) == pytest.approx(0.126 + 18 * 0.005)
        assert primitives.l_mpb_read(P, 9) == primitives.c_mpb_read(P, 9)

    def test_mem_read_write(self):
        assert reference_model.l_mem_write(P, 2) == pytest.approx(0.461 + 0.010)
        assert primitives.c_mem_write(P, 2) == pytest.approx(0.461 + 0.020)
        assert primitives.c_mem_read(P, 2) == pytest.approx(0.208 + 0.020)

    def test_put_mpb_formula7(self):
        # o_put + m*C_r(1) + m*C_w(d)
        m, d = 8, 5
        expected = 0.069 + m * (0.126 + 0.010) + m * (0.126 + 2 * 5 * 0.005)
        assert primitives.c_put_mpb(P, m, d) == pytest.approx(expected)

    def test_put_latency_excludes_last_ack(self):
        m, d = 8, 5
        diff = primitives.c_put_mpb(P, m, d) - reference_model.l_put_mpb(P, m, d)
        assert diff == pytest.approx(d * 0.005)

    def test_put_mem_formula8(self):
        m, ds, dd = 4, 2, 3
        expected = (
            0.19
            + m * (0.208 + 2 * 2 * 0.005)
            + m * (0.126 + 2 * 3 * 0.005)
        )
        assert primitives.c_put_mem(P, m, ds, dd) == pytest.approx(expected)

    def test_get_mpb_formula11(self):
        m, d = 16, 9
        expected = 0.33 + m * (0.126 + 2 * 9 * 0.005) + m * (0.126 + 0.010)
        assert primitives.c_get_mpb(P, m, d) == pytest.approx(expected)
        assert primitives.l_get_mpb(P, m, d) == primitives.c_get_mpb(P, m, d)

    def test_get_mem_formula12(self):
        m, ds, dd = 4, 1, 4
        expected = (
            0.095
            + m * (0.126 + 0.010)
            + m * (0.461 + 2 * 4 * 0.005)
        )
        assert primitives.c_get_mem(P, m, ds, dd) == pytest.approx(expected)

    def test_zero_size_messages(self):
        assert primitives.c_put_mpb(P, 0, 1) == pytest.approx(0.069)
        assert primitives.c_get_mpb(P, 0, 1) == pytest.approx(0.33)
        assert reference_model.l_put_mpb(P, 0, 1) == pytest.approx(0.069)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            primitives.c_mpb_read(P, 0)
        with pytest.raises(ValueError):
            primitives.c_put_mpb(P, -1, 1)

    def test_monotone_in_distance_and_size(self):
        for m in (1, 4):
            ts = [primitives.c_get_mpb(P, m, d) for d in range(1, 10)]
            assert ts == sorted(ts)
        for d in (1, 9):
            ts = [primitives.c_get_mpb(P, m, d) for m in range(1, 20)]
            assert ts == sorted(ts)

    def test_distance_spread_is_about_30_percent(self):
        """Paper Section 3.2: 1-hop vs 9-hop differ by only ~30% (large
        messages; tiny ones amortise nothing but stay under 30% too)."""
        spread16 = primitives.c_get_mpb(P, 16, 9) / primitives.c_get_mpb(P, 16, 1)
        assert 1.15 < spread16 < 1.35
        spread1 = primitives.c_get_mpb(P, 1, 9) / primitives.c_get_mpb(P, 1, 1)
        assert 1.0 < spread1 < 1.30


class TestBroadcastModel:
    def test_ocbcast_simple_single_chunk_is_formula13(self):
        m, k, nP = 64, 7, 48
        depth = 2  # log_7(48) levels
        expected = (
            primitives.c_put_mem(P, m)
            + depth * primitives.c_get_mpb(P, m, 1)
            + primitives.c_get_mem(P, m)
        )
        got = reference_model.ocbcast_latency_simple(nP, m, k, P)
        assert got == pytest.approx(expected)

    def test_binomial_simple_is_formula14(self):
        m, nP = 32, 48
        levels = 6
        expected = levels * (
            P.o_put_mem
            + m * primitives.c_mpb_write(P, 1)
            + primitives.c_get_mem(P, m)
        ) + m * primitives.c_mem_read(P, 1)
        got = reference_model.binomial_latency_simple(nP, m, P)
        assert got == pytest.approx(expected)

    def test_ocbcast_beats_binomial_in_the_model(self):
        for m in (1, 16, 64, 96, 192):
            oc = broadcast.ocbcast_latency_complete(48, m, 7, P)
            bi = broadcast.binomial_latency_complete(48, m, P)
            assert oc < bi

    def test_latency_slope_changes_past_chunk_size(self):
        """Figure 6a: the slope changes at M_oc = 96 lines -- extra chunks
        pipeline, so per-line cost drops below the first chunk's (which
        pays the full tree depth per line)."""
        lat = {m: reference_model.ocbcast_latency_simple(48, m, 7, P) for m in (1, 96, 192)}
        slope_first_chunk = (lat[96] - lat[1]) / 95
        slope_beyond = (lat[192] - lat[96]) / 96
        assert slope_beyond < 0.75 * slope_first_chunk

    def test_k47_worst_for_single_line(self):
        """Figure 6b: polling 47 doneFlags hurts tiny messages."""
        l47 = broadcast.ocbcast_latency_complete(48, 1, 47, P)
        l7 = broadcast.ocbcast_latency_complete(48, 1, 7, P)
        assert l47 > l7

    def test_monotone_in_message_size(self):
        for k in (2, 7, 47):
            ts = [
                broadcast.ocbcast_latency_complete(48, m, k, P)
                for m in range(1, 200, 7)
            ]
            assert ts == sorted(ts)

    def test_degenerate_cases(self):
        assert reference_model.ocbcast_latency_simple(1, 10, 7, P) == 0.0
        assert reference_model.ocbcast_latency_simple(48, 0, 7, P) == 0.0
        assert reference_model.binomial_latency_simple(1, 10, P) == 0.0
        with pytest.raises(ValueError):
            reference_model.ocbcast_latency_simple(0, 10, 7, P)


class TestThroughputModel:
    def test_formula15_value(self):
        """B_OC = Moc / (C_get_mpb(Moc) + C_get_mem(Moc)) ~ 36 MB/s."""
        b = broadcast.ocbcast_throughput_simple(P)
        assert b == pytest.approx(36.2, abs=0.5)

    def test_formula16_value_matches_table2(self):
        """Scatter-allgather ~ 13.3 MB/s for P=48 (paper: 13.38)."""
        b = broadcast.scatter_allgather_throughput_simple(48, P)
        assert b == pytest.approx(13.38, abs=0.4)

    def test_table2_ratios(self):
        t2 = broadcast.table2(48, P)
        for oc in (t2.oc_k2, t2.oc_k7, t2.oc_k47):
            assert 2.2 < oc / t2.scatter_allgather < 3.3

    def test_table2_near_paper_values(self):
        t2 = broadcast.table2(48, P)
        assert t2.oc_k7 == pytest.approx(34.30, rel=0.15)
        assert t2.scatter_allgather == pytest.approx(13.38, rel=0.15)

    def test_complete_throughput_below_simple(self):
        assert broadcast.ocbcast_throughput_complete(P, 7) < (
            broadcast.ocbcast_throughput_simple(P)
        )

    def test_p_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            broadcast.scatter_allgather_throughput_simple(1, P)


class TestParams:
    def test_from_config_round_trip(self):
        cfg = SccConfig(l_hop=0.007, o_mpb=0.2)
        mp = ModelParams.from_config(cfg)
        assert mp.l_hop == 0.007
        assert mp.o_mpb == 0.2
        assert mp.o_mem_w == cfg.o_mem_w

    def test_with_and_as_dict(self):
        mp = TABLE_1.with_(l_hop=0.01)
        assert mp.l_hop == 0.01
        assert TABLE_1.l_hop == 0.005
        assert set(mp.as_dict()) == set(fitting.PARAM_NAMES)


class TestFitting:
    def _synthetic_observations(self, params):
        obs = []
        for m in (1, 4, 8, 16):
            for d in (1, 3, 5, 9):
                obs.append(
                    fitting.Observation(
                        "put_mpb", m, 1, d, primitives.c_put_mpb(params, m, d)
                    )
                )
                obs.append(
                    fitting.Observation(
                        "get_mpb", m, d, 1, primitives.c_get_mpb(params, m, d)
                    )
                )
            for d in (1, 2, 3, 4):
                obs.append(
                    fitting.Observation(
                        "put_mem", m, d, 1, primitives.c_put_mem(params, m, d, 1)
                    )
                )
                obs.append(
                    fitting.Observation(
                        "get_mem", m, 1, d, primitives.c_get_mem(params, m, 1, d)
                    )
                )
        return obs

    def test_recovers_exact_parameters_from_noiseless_data(self):
        result = fitting.fit(self._synthetic_observations(TABLE_1))
        assert result.residual_rms < 1e-9
        for name, (fitted, ref, rel) in result.compare(TABLE_1).items():
            assert rel < 1e-6, name

    def test_recovers_perturbed_parameters(self):
        perturbed = TABLE_1.with_(l_hop=0.008, o_mpb=0.15, o_get_mpb=0.4)
        result = fitting.fit(self._synthetic_observations(perturbed))
        for name, (fitted, ref, rel) in result.compare(perturbed).items():
            assert rel < 1e-6, name

    def test_requires_all_kinds(self):
        obs = [
            fitting.Observation("put_mpb", m, 1, d, 1.0)
            for m in (1, 2, 3) for d in (1, 2, 3)
        ]
        with pytest.raises(ValueError, match="missing"):
            fitting.fit(obs)

    def test_requires_enough_observations(self):
        with pytest.raises(ValueError):
            fitting.fit([fitting.Observation("put_mpb", 1, 1, 1, 1.0)])

    def test_observation_validation(self):
        with pytest.raises(ValueError):
            fitting.Observation("bogus", 1, 1, 1, 1.0)
        with pytest.raises(ValueError):
            fitting.Observation("put_mpb", 0, 1, 1, 1.0)
        with pytest.raises(ValueError):
            fitting.Observation("put_mpb", 1, 0, 1, 1.0)
