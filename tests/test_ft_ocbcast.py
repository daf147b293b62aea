"""Tests for fault-tolerant OC-Bcast and the fault-campaign harness.

The adversarial configuration throughout is a one-chunk (96 cache line)
message on the full 48-core chip: with monotonic sequence flags a
mid-stream dropped flag write is masked by the next chunk's write, so on
a single-chunk message *every* flag write is fatal to the baseline.
"""

import pytest

from repro.bench import FaultCampaign
from repro.bench.faultcampaign import parse_kinds
from repro.bench.reporting import campaign_summary, format_fault_timeline
from repro.core import OcBcast, OcBcastConfig, PropagationTree
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.obs import InvariantChecker
from repro.rcce import Comm
from repro.scc import SccChip, SccConfig, run_spmd
from repro.scc.config import CACHE_LINE
from repro.sim import FaultInjected, Tracer

ONE_CHUNK = 96 * CACHE_LINE


def bcast_once(plan, *, ft, nbytes=ONE_CHUNK, watchdog=50_000.0):
    """One OC-Bcast on a fresh 48-core chip under ``plan``; returns the
    per-rank outcomes (True / False / 'crashed') and the injector.

    The ordering invariants (flag FIFO, notify-before-fetch, buffer-reuse
    handshake) are checked online even under injected faults -- FT mode
    must *recover* without ever reordering the protocol.  ``lossless`` is
    off because dropped/corrupted writes are the point of the plan.
    """
    injector = FaultInjector(plan)
    chip = SccChip(SccConfig(), tracer=Tracer(enabled=True), faults=injector)
    checker = InvariantChecker(lossless=False).attach(chip)
    comm = Comm(chip)
    oc = OcBcast(comm, OcBcastConfig(ft=ft))
    payload = bytes(i % 251 for i in range(nbytes))

    def prog(core):
        cc = comm.attach(core)
        buf = cc.alloc(nbytes)
        if cc.rank == 0:
            buf.write(payload)
        try:
            yield from oc.bcast(cc, 0, buf, nbytes)
        except FaultInjected:
            return "crashed"
        return buf.read() == payload

    if watchdog:
        chip.sim.start_watchdog(watchdog)
    res = run_spmd(chip, prog)
    checker.check()
    return res.values, injector


class TestFtDelivery:
    def test_ft_recovers_dropped_flag_write_where_baseline_deadlocks(self):
        plan = FaultPlan((FaultSpec(FaultKind.DROP_FLAG_WRITE, nth=20),))
        values, injector = bcast_once(plan, ft=True)
        assert all(v is True for v in values)
        assert injector.n_injected == 1 and injector.n_recovered >= 1
        # The identical plan wedges the baseline until the watchdog fires.
        campaign = FaultCampaign(trials=1)
        base_run, _ = campaign.run_one(plan, ft=False)
        assert base_run.outcome == "deadlock"

    def test_ft_recovers_corrupted_flag_write(self):
        plan = FaultPlan((FaultSpec(FaultKind.CORRUPT_FLAG_WRITE, nth=33),))
        values, injector = bcast_once(plan, ft=True)
        assert all(v is True for v in values)
        assert injector.n_recovered >= 1

    def test_ft_routes_around_a_crashed_leaf(self):
        tree = PropagationTree(48, 7, 0)
        leaf = max(r for r in range(48) if not tree.children_of(r))
        plan = FaultPlan((FaultSpec(FaultKind.CORE_CRASH, core=leaf, nth=3),))
        values, injector = bcast_once(plan, ft=True)
        assert values.count("crashed") == 1
        assert sum(1 for v in values if v is True) == 47
        assert values[leaf] == "crashed"

    def test_ft_with_data_acks_recovers_dropped_data_writes(self):
        campaign = FaultCampaign(
            trials=4,
            seed=2,
            kinds=(FaultKind.DROP_DATA_WRITE,),
            compare_baseline=False,
        )
        for plan in campaign.trial_plans():
            ft_run, _ = campaign.run_one(plan, ft=True)
            assert ft_run.outcome == "recovered", (plan.label, ft_run)
            base_run, _ = campaign.run_one(plan, ft=False)
            assert base_run.outcome == "corrupt", (plan.label, base_run)

    def test_ft_disabled_matches_baseline_protocol(self):
        # Without faults, FT off and on both deliver; off is the seed path.
        values, injector = bcast_once(FaultPlan(), ft=False)
        assert all(v is True for v in values)
        assert injector.n_injected == 0


class TestCampaignHarness:
    def test_small_campaign_ft_survives_where_baseline_deadlocks(self):
        result = FaultCampaign(trials=5, seed=7).run()
        assert result.n_trials == 5
        assert result.counts["ft"]["recovered"] == 5
        assert result.counts["baseline"]["deadlock"] == 5
        assert result.rate("ft", ("delivered", "recovered")) == 1.0
        assert result.timeline  # fault events captured for reporting
        assert "fault.injected" in format_fault_timeline(result.timeline)
        assert "robustness tax" in campaign_summary(result)

    def test_trial_plans_are_reproducible(self):
        campaign = FaultCampaign(trials=8, seed=3, compare_baseline=False)
        assert campaign.trial_plans() == campaign.trial_plans()
        other_seed = FaultCampaign(trials=8, seed=4, compare_baseline=False)
        assert campaign.trial_plans() != other_seed.trial_plans()

    def test_ft_robustness_tax_is_small(self):
        result = FaultCampaign(trials=1, compare_baseline=False).run()
        assert result.tax_pct("ft", "baseline") < 5.0

    def test_parse_kinds(self):
        assert parse_kinds(["drop_flag", "crash"]) == (
            FaultKind.DROP_FLAG_WRITE,
            FaultKind.CORE_CRASH,
        )
        with pytest.raises(ValueError):
            parse_kinds(["nope"])


@pytest.mark.faults
class TestCampaignSmoke:
    """The 50-trial smoke campaign behind ``make faults`` / ``-m faults``."""

    def test_fifty_trial_mixed_campaign(self):
        result = FaultCampaign(
            trials=50,
            seed=1,
            kinds=parse_kinds(["drop_flag", "corrupt_flag", "crash"]),
        ).run()
        assert result.counts["ft"]["deadlock"] == 0
        assert result.counts["ft"]["corrupt"] == 0
        assert result.rate("ft", ("delivered", "recovered")) == 1.0
        # Flag faults (two thirds of trials) wedge the baseline every time.
        assert result.counts["baseline"]["deadlock"] >= 33
        assert result.tax_pct("ft", "baseline") < 5.0
