"""Sustained-regime churn campaign (:mod:`repro.bench.churn`).

Tier-1 keeps the fast pieces: plan determinism, config coherence and a
two-trial adaptive smoke.  The adaptive-vs-fixed acceptance slice runs
under ``-m faults`` (the full 100-trial campaign lives in ``make churn``).
"""

import pytest

from repro.bench import ChurnCampaign, ChurnResult, ChurnTrial
from repro.bench.churn import CHURN_OUTCOMES
from repro.bench.reporting import churn_summary
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.resilience import IMMEDIATE
from repro.scc import SccConfig


class TestChurnPlans:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnCampaign(trials=0)
        with pytest.raises(ValueError):
            ChurnCampaign(broadcasts=0)
        with pytest.raises(ValueError):
            ChurnCampaign(flap_period=0.0)
        with pytest.raises(ValueError):
            ChurnCampaign(flap_duty=1.0)

    def test_trial_plans_deterministic_and_disjoint(self):
        campaign = ChurnCampaign(trials=4, seed=9, broadcasts=2)
        plans = campaign.trial_plans()
        assert plans == campaign.trial_plans()  # pure function of seed
        assert len(plans) == 4
        for plan in plans:
            kinds = [s.kind for s in plan.specs]
            assert kinds == [FaultKind.FLAPPING_LINK, FaultKind.CORE_CRASH]
            flap, crash = plan.specs
            # The flap victim outlives the plan; the crash strikes a
            # *different* non-root member, so any eviction of the flap
            # victim is a false eviction by construction.
            assert flap.core != crash.core
            assert campaign.root not in (flap.core, crash.core)
            assert flap.nth == 1  # continuously active from first access

    def test_crash_false_disarms_the_crash_leg(self):
        campaign = ChurnCampaign(trials=2, seed=5, crash=False)
        for plan in campaign.trial_plans():
            assert [s.kind for s in plan.specs] == [FaultKind.FLAPPING_LINK]


class TestChurnConfigCoherence:
    """The adaptive config is *derived* from the fault regime -- the
    suspicion floor must dominate every legal response lag."""

    def test_floor_covers_notify_wait_and_backoff(self):
        campaign = ChurnCampaign(trials=1)
        cfg = campaign.adaptive_member_config()
        pol = campaign._backoff()
        assert cfg.detector is not None
        assert cfg.detector.floor >= (
            campaign._notify_wait() + pol.max_total_pause()
            + campaign.flap_period
        )
        assert cfg.hb_timeout > cfg.detector.floor
        assert cfg.view_timeout >= 2.0 * cfg.hb_timeout
        # Coherence rule enforced by MembershipConfig itself: the
        # heartbeat deadline covers the paced retry schedule.
        assert cfg.hb_timeout > pol.max_total_pause()

    def test_notify_wait_covers_relay_backoff(self):
        campaign = ChurnCampaign(trials=1)
        # Commit relays over two paced hops for 48 cores at k=7.
        assert campaign._notify_wait() >= (
            2.0 * campaign._backoff().max_total_pause()
        )

    def test_fixed_config_is_the_legacy_default(self):
        campaign = ChurnCampaign(trials=1)
        cfg = campaign.fixed_member_config()
        assert cfg.detector is None
        assert cfg.hb_retry == IMMEDIATE and cfg.view_retry == IMMEDIATE


class TestChurnSmoke:
    def test_fault_free_trial_survives_everywhere(self):
        campaign = ChurnCampaign(trials=1, broadcasts=3, compare_fixed=False)
        trial = campaign.run_one(FaultPlan((), label="clean"), adaptive=True)
        assert trial.outcome == "survived"
        assert trial.completed == 3
        assert trial.n_false_evicted == 0

    def test_two_adaptive_trials_terminate_cleanly(self):
        campaign = ChurnCampaign(
            trials=2, seed=3, broadcasts=3, compare_fixed=False
        )
        result = campaign.run()
        assert isinstance(result, ChurnResult)
        assert result.termination_rate == 1.0
        assert result.n_false_evictions == 0
        for adaptive, fixed in result.trials:
            assert isinstance(adaptive, ChurnTrial)
            assert adaptive.outcome in CHURN_OUTCOMES
            assert fixed is None
        assert list(result.counts) == ["adaptive"]  # no fixed leg
        assert "adaptive termination rate: 100.0%" in churn_summary(result)

    def test_an_evicted_crash_victim_is_not_a_false_eviction(self):
        """The fixed config evicts the flap victim (core 7 of a 2x2
        mesh).  A plan that also crashes core 7 too late to fire -- the
        eviction ends its run first -- loses a member the plan meant to
        kill: that eviction is the crash's, not a false one."""
        campaign = ChurnCampaign(
            trials=1, seed=6, broadcasts=2, crash=False,
            config=SccConfig(mesh_cols=2, mesh_rows=2),
        )
        flap = campaign.trial_plans()[0]
        victim = flap.specs[0].core
        alone = campaign.run_one(flap, adaptive=False)
        assert (alone.outcome, alone.n_false_evicted) == ("false_evict", 1)
        crash = FaultSpec(FaultKind.CORE_CRASH, core=victim, nth=10**6)
        both = campaign.run_one(
            FaultPlan(flap.specs + (crash,), label="flap+crash"),
            adaptive=False,
        )
        assert (both.outcome, both.n_false_evicted) == ("survived", 0)
        assert both.completed == alone.completed == 2


@pytest.mark.faults
class TestChurnAcceptance:
    """A ten-trial slice of the acceptance campaign (``make churn`` runs
    the full hundred): every adaptive trial terminates cleanly with zero
    false evictions while the fixed-deadline leg false-evicts or stalls
    on at least one of the *same* plans."""

    def test_adaptive_survives_where_fixed_false_evicts(self):
        campaign = ChurnCampaign(trials=10, seed=1, broadcasts=10)
        result = campaign.run()
        assert result.termination_rate == 1.0
        assert result.n_false_evictions == 0
        assert result.n_i8_violations == 0
        for adaptive, _ in result.trials:
            assert adaptive.outcome in ("survived", "refused")
        assert result.fixed_failure_trials >= 1
