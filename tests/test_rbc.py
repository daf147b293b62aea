"""Byzantine-tolerant broadcast: the Bracha quorum math, the RBC
echo/ready rounds under live adversaries, and the I7 agreement/validity
audit.

The integration scenarios run the RBC-hardened service
(``OcBcastConfig(byz=True)``) on the 12-core chip, where one round is
fast, and classify outcomes over *honest* ranks only -- an adversary's
own return value proves nothing.  The 48-core headline campaigns (100
trials, ``f = 15`` mixed adversaries) live in the ``faults``-marked
acceptance classes at the bottom.
"""

import zlib
from dataclasses import replace

import pytest

from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.member import OcBcastService
from repro.member.rbc import (
    echo_quorum,
    max_faulty,
    ready_amplify,
    ready_quorum,
)
from repro.member.service import DEFAULT_SERVICE_OC
from repro.obs import InvariantChecker, MetricsRegistry
from repro.rcce import Comm
from repro.scc import SccChip, SccConfig, run_spmd
from repro.scc.config import CACHE_LINE
from repro.sim import Tracer
from repro.sim.trace import TraceRecord

CFG12 = SccConfig(mesh_cols=3, mesh_rows=2)
ONE_CHUNK = 96 * CACHE_LINE
TWO_CHUNKS = 2 * 96 * CACHE_LINE


class TestQuorumMath:
    """Threshold properties for every communicator size this repo runs
    (and then some): the safety arguments are counting arguments, so the
    tests just count."""

    def test_thresholds_for_every_size(self):
        for n in range(4, 49):
            f = max_faulty(n)
            assert 3 * f + 1 <= n < 3 * (f + 1) + 1
            e, a, r = echo_quorum(n), ready_amplify(n), ready_quorum(n)
            # Classic Bracha thresholds.
            assert a == f + 1
            assert r == 2 * f + 1
            assert e >= r
            # A quorum must be reachable with every adversary silent...
            assert e <= n - f
            # ...and two echo quorums must intersect in an honest member,
            # which is what makes the agreed digest unique.
            assert 2 * e - n >= f + 1
            # 2f+1 READY votes contain at least f+1 honest ones -- enough
            # to push every other honest member past the amplify bar.
            assert r - f >= a

    def test_exact_3f_plus_1_gives_classic_quorums(self):
        for f in range(1, 16):
            n = 3 * f + 1
            assert max_faulty(n) == f
            assert echo_quorum(n) == 2 * f + 1

    def test_headline_sizes(self):
        # The paper's 48-core chip and the small test mesh.
        assert (max_faulty(48), echo_quorum(48)) == (15, 32)
        assert (ready_amplify(48), ready_quorum(48)) == (16, 31)
        assert (max_faulty(12), echo_quorum(12)) == (3, 8)
        assert (ready_amplify(12), ready_quorum(12)) == (4, 7)

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="at least one member"):
            max_faulty(0)


def _payload(nbytes: int) -> bytes:
    return bytes((i * 131 + 7) % 256 for i in range(nbytes))


def _run_byz(config, num_cores, specs, nbytes, *, watchdog=50_000.0):
    """One broadcast through the RBC-hardened service; returns
    ``(per-rank (status, crc), tracer, chip)``."""
    payload = _payload(nbytes)
    plan = FaultPlan(tuple(specs), num_cores=num_cores, label="test")
    tracer = Tracer(enabled=True)
    chip = SccChip(
        config, tracer=tracer,
        faults=FaultInjector(plan) if specs else None,
        metrics=MetricsRegistry(),
    )
    comm = Comm(chip)
    svc = OcBcastService(
        comm, root=0, oc_config=replace(DEFAULT_SERVICE_OC, byz=True)
    )

    def program(core):
        cc = comm.attach(core)
        buf = cc.alloc(nbytes)
        if cc.rank == 0:
            buf.write(payload)
        status = yield from svc.bcast(cc, buf, nbytes)
        return (status, zlib.crc32(buf.read()))

    chip.sim.start_watchdog(watchdog)
    res = run_spmd(chip, program)
    return res.values, tracer, chip


class TestRbcRounds:
    def test_fault_free_run_delivers_source_value_everywhere(self):
        values, tracer, chip = _run_byz(CFG12, 12, (), ONE_CHUNK)
        want = zlib.crc32(_payload(ONE_CHUNK))
        assert all(status == "ok" for status, _ in values)
        assert {crc for _, crc in values} == {want}
        # One vote round per member, no repair traffic.
        assert chip.metrics.counters["rbc.rounds"].value == 12
        assert "rbc.refetches" not in chip.metrics.counters
        assert "rbc.refusals" not in chip.metrics.counters

    def test_equivocation_is_outvoted_and_repaired(self):
        # The source stages two payload variants; the echo quorum picks
        # one digest, the losing-side members re-fetch from a winning
        # voter, and every honest member delivers the same bytes.
        spec = FaultSpec(FaultKind.EQUIVOCATE, core=0, nth=1, duration=1)
        values, tracer, chip = _run_byz(CFG12, 12, (spec,), ONE_CHUNK)
        kinds = [r.kind for r in tracer.records]
        assert "oc.adv.equivocate" in kinds  # the attack actually fired
        honest = [v for r, v in enumerate(values) if r != 0]
        assert all(status == "ok" for status, _ in honest)
        assert len({crc for _, crc in honest}) == 1  # agreement
        # At least one member sat on the losing side and repaired.
        assert chip.metrics.counters["rbc.refetches"].value >= 1
        assert "rbc.refetch" in kinds

    def test_no_delivery_below_echo_quorum(self):
        # 5 liars on the 12-core chip leave only 7 honest votes -- one
        # short of the echo quorum of 8 -- and consistent lies cannot be
        # amplified either (no honest member ever casts READY).  Every
        # honest member must refuse rather than deliver.
        liars = (2, 4, 6, 8, 10)
        specs = [
            FaultSpec(FaultKind.LIE_IN_QUORUM, core=c, nth=1) for c in liars
        ]
        values, tracer, chip = _run_byz(CFG12, 12, specs, ONE_CHUNK)
        honest = [v for r, v in enumerate(values) if r not in liars]
        assert all(status == "detected" for status, _ in honest)
        assert any(r.kind == "rbc.no_quorum" for r in tracer.records)
        assert chip.metrics.counters["rbc.refusals"].value >= len(honest)

    def test_forged_votes_cannot_form_a_false_quorum(self):
        # FORGE_FLAG_VALUE writes per-member garbage (vote equivocation):
        # it wastes the forger's vote but can never assemble a quorum on
        # a wrong digest.  f = 3 forgers leave 9 >= 8 honest votes, so
        # the group still delivers the source value.
        forgers = (3, 5, 9)
        specs = [
            FaultSpec(FaultKind.FORGE_FLAG_VALUE, core=c, nth=1)
            for c in forgers
        ]
        values, tracer, chip = _run_byz(CFG12, 12, specs, ONE_CHUNK)
        want = zlib.crc32(_payload(ONE_CHUNK))
        honest = [v for r, v in enumerate(values) if r not in forgers]
        assert all(status == "ok" for status, _ in honest)
        assert {crc for _, crc in honest} == {want}

    def test_multi_chunk_equivocation_never_diverges(self):
        # Two chunks: the non-final chunk's doneFlags are immediate, so
        # the restage lands inside the children's copy window and the
        # split is real.  Whatever the round concludes -- repair or
        # refusal -- honest members must not diverge.
        spec = FaultSpec(FaultKind.EQUIVOCATE, core=0, nth=1, duration=1)
        values, tracer, chip = _run_byz(CFG12, 12, (spec,), TWO_CHUNKS)
        honest = [v for r, v in enumerate(values) if r != 0]
        ok_crcs = {crc for status, crc in honest if status == "ok"}
        assert len(ok_crcs) <= 1  # agreement, delivered or not
        assert all(status in ("ok", "detected") for status, _ in honest)


class TestInvariantI7:
    def _rec(self, kind, source, **detail):
        return TraceRecord(0.0, source, kind, detail)

    def test_live_equivocation_round_audits_clean(self):
        spec = FaultSpec(FaultKind.EQUIVOCATE, core=0, nth=1, duration=1)
        payload = _payload(ONE_CHUNK)
        plan = FaultPlan((spec,), num_cores=12, label="i7")
        chip = SccChip(
            CFG12, tracer=Tracer(enabled=True), faults=FaultInjector(plan),
            metrics=MetricsRegistry(),
        )
        checker = InvariantChecker(lossless=False).attach(chip)
        comm = Comm(chip)
        svc = OcBcastService(
            comm, root=0, oc_config=replace(DEFAULT_SERVICE_OC, byz=True)
        )

        def program(core):
            cc = comm.attach(core)
            buf = cc.alloc(ONE_CHUNK)
            if cc.rank == 0:
                buf.write(payload)
            return (yield from svc.bcast(cc, buf, ONE_CHUNK))

        chip.sim.start_watchdog(50_000.0)
        run_spmd(chip, program)
        checker.check()
        assert checker.records_seen > 0

    def test_divergent_honest_deliveries_flag_violation(self):
        c = InvariantChecker()
        c.feed(self._rec("rbc.outcome", "rank1", msg=1, status="ok",
                         src=0, crc=0x1111))
        c.feed(self._rec("rbc.outcome", "rank2", msg=1, status="ok",
                         src=0, crc=0x2222))
        assert [v.invariant for v in c.violations] == ["byzantine-agreement"]

    def test_delivery_differing_from_honest_source_flags_validity(self):
        c = InvariantChecker()
        c.feed(self._rec("rbc.outcome", "rank0", msg=1, status="ok",
                         src=1, crc=0x1111, input_crc=0x1111))
        c.feed(self._rec("rbc.outcome", "rank3", msg=1, status="ok",
                         src=0, crc=0x9999))
        # Both the agreement and the validity clause fire -- the rogue
        # delivery disagrees with the first honest one AND the source.
        assert c.violations
        assert {v.invariant for v in c.violations} == {"byzantine-agreement"}
        assert any("validity requires" in str(v) for v in c.violations)

    def test_compromised_ranks_claims_are_ignored(self):
        c = InvariantChecker()
        c.feed(self._rec(
            "fault.injected", "faults",
            fault="lie_in_quorum", site="core2 vote round #1", nth=1,
        ))
        c.feed(self._rec("rbc.outcome", "rank1", msg=1, status="ok",
                         src=0, crc=0x1111))
        # rank2 fired an adversary fault: its divergent claim is noise.
        c.feed(self._rec("rbc.outcome", "rank2", msg=1, status="ok",
                         src=0, crc=0x2222))
        assert c.ok

    def test_refusals_do_not_count_as_deliveries(self):
        c = InvariantChecker()
        c.feed(self._rec("rbc.outcome", "rank1", msg=1, status="ok",
                         src=0, crc=0x1111))
        c.feed(self._rec("rbc.outcome", "rank2", msg=1, status="detected",
                         src=0))
        assert c.ok


@pytest.mark.faults
class TestByzantineAcceptanceCampaign:
    """ISSUE 6's headline experiment: a 100-trial seeded campaign on the
    48-core chip with ``f = 15`` mixed adversaries per trial (one
    equivocating source + forged and lying quorum votes).  Honest
    members must never diverge: every trial ends agreed or uniformly
    refused, and the fault-free Byzantine tax stays under the 15%
    guard."""

    def test_hundred_trial_f15_mixed_campaign(self):
        from repro.bench import FaultCampaign, default_jobs

        campaign = FaultCampaign(
            trials=100,
            seed=6,
            nbytes=TWO_CHUNKS,
            byz=True,
            adversaries=15,
            compare_baseline=False,
            watchdog_interval=100_000.0,
        )
        result = campaign.run_trials(jobs=default_jobs())
        counts = result.counts["byz"]
        assert counts["agreed"] + counts["detected"] == 100
        assert counts["disagreement"] == 0
        assert counts["partial"] == 0
        assert counts["deadlock"] == 0 and counts["timeout"] == 0
        assert result.rate("byz", ("agreed", "detected")) == 1.0
        # Detection latency telemetry came back.  Only trials where some
        # member repaired or refused observe a TTD -- when the honest
        # quorum wins outright there is nothing to detect -- so the count
        # is well below the trial count but must still be substantial.
        assert result.times("byz", "ttd")["count"] >= 50
        # Fault-free Byzantine tax under the perf guard.
        assert result.tax_pct("byz", "service") < 15.0

    def test_beyond_f_adversaries_refuse_not_diverge(self):
        # f+1 = 16 adversaries exceed what the quorums tolerate: the
        # protocol must degrade to detection, never to divergence.
        from repro.bench import FaultCampaign, default_jobs

        campaign = FaultCampaign(
            trials=10,
            seed=7,
            nbytes=TWO_CHUNKS,
            byz=True,
            adversaries=16,
            compare_baseline=False,
            watchdog_interval=100_000.0,
        )
        result = campaign.run_trials(jobs=default_jobs())
        counts = result.counts["byz"]
        assert counts["disagreement"] == 0
        assert counts["partial"] == 0
        assert counts["agreed"] + counts["detected"] == 10
