"""Tests for the design-space analysis module."""

import pytest

from repro.model import TABLE_1, design


class TestNotificationLatency:
    def test_zero_children_is_free(self):
        assert design.notification_latency(0, 2, TABLE_1) == 0.0

    def test_one_child_single_hop(self):
        lat = design.notification_latency(1, 2, TABLE_1)
        assert lat > 0
        # One write plus one detection.
        from repro.model.broadcast import detect_cost, flag_write_cost

        assert lat == pytest.approx(flag_write_cost(TABLE_1) + detect_cost(TABLE_1))

    def test_chain_grows_linearly(self):
        l8 = design.notification_latency(8, 1, TABLE_1)
        l16 = design.notification_latency(16, 1, TABLE_1)
        assert l16 == pytest.approx(2 * l8, rel=0.05)

    def test_binary_grows_logarithmically(self):
        l8 = design.notification_latency(8, 2, TABLE_1)
        l64 = design.notification_latency(64, 2, TABLE_1)
        assert l64 < 3 * l8

    def test_binary_beats_chain_and_flat_for_large_families(self):
        for j in (7, 23, 47):
            binary = design.notification_latency(j, 2, TABLE_1)
            chain = design.notification_latency(j, 1, TABLE_1)
            flat = design.notification_latency(j, j, TABLE_1)
            assert binary < chain
            assert binary < flat

    def test_binary_near_optimal(self):
        """The paper's Section 4.1 claim, quantified: under our cost model
        binary is within ~30% of the best degree everywhere (exactly
        optimal when detection is cheap relative to writes)."""
        for j in (2, 7, 23, 47):
            best_deg, best = design.optimal_notify_degree(j, TABLE_1)
            binary = design.notification_latency(j, 2, TABLE_1)
            assert binary <= 1.3 * best
        # With cheap detection (fast polls), sequential flag writes
        # dominate and low degrees win outright.
        cheap_detect = TABLE_1.with_(t_poll=0.02)
        deg, _ = design.optimal_notify_degree(7, cheap_detect)
        assert deg <= 3

    def test_validation(self):
        with pytest.raises(ValueError):
            design.notification_latency(-1, 2, TABLE_1)
        with pytest.raises(ValueError):
            design.notification_latency(3, 0, TABLE_1)


class TestRecommendedK:
    def test_paper_choice_for_the_scc(self):
        """Section 5.2: k=7 'provides the best trade-off' at P=48 -- the
        same tree depth as k<=24 with the fewest flags to poll."""
        assert design.recommended_k(48) == 7

    def test_small_worlds(self):
        assert design.recommended_k(1) == 1
        assert design.recommended_k(2) == 1
        # P=8: depth 1 needs k=7.
        assert design.recommended_k(8) == 7

    def test_respects_contention_threshold(self):
        # P=512 with threshold 24: depth(24)=2 -> smallest k with depth 2.
        k = design.recommended_k(512)
        assert k <= 24
        from repro.core import kary_depth

        assert kary_depth(512, k) == kary_depth(512, 24)
        assert kary_depth(512, k - 1) > kary_depth(512, k)

    def test_threshold_override(self):
        # With no contention limit, a flat 47-ary tree (depth 1) wins;
        # with a tight limit the rule degrades gracefully.
        assert design.recommended_k(48, contention_threshold=47) == 47
        assert design.recommended_k(48, contention_threshold=4) == 4


class TestOsagModel:
    def test_sits_between_two_sided_and_oc(self):
        from repro.model import broadcast

        osag = design.osag_throughput(48, TABLE_1)
        two_sided = broadcast.scatter_allgather_throughput_complete(48, TABLE_1)
        oc = broadcast.ocbcast_throughput_complete(TABLE_1, 7)
        assert two_sided < osag < oc

    def test_close_to_measured(self):
        """The bench measures ~16 MB/s at 4096 CL; the model must land in
        the same neighbourhood."""
        assert design.osag_throughput(48, TABLE_1) == pytest.approx(16.0, rel=0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            design.osag_throughput(1, TABLE_1)
