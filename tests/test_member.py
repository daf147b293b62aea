"""Tests for membership, epochs, and the crash-surviving broadcast service.

The adversarial configuration is a three-chunk message on the full
48-core chip: multi-chunk streams are what make *mid-stream* interior
crashes interesting (the crashed node has already relayed some chunks,
so its subtree is mid-pipeline when it goes silent).
"""

import hashlib
import itertools
from dataclasses import dataclass

import pytest

from repro.core import OcBcast, OcBcastConfig, PropagationTree
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.member import (
    CompletionDirective,
    ElectionService,
    MembershipConfig,
    MembershipService,
    MembershipView,
    OcBcastService,
)
from repro.member.rules import (
    DIRECTIVE_ABORT,
    DIRECTIVE_NONE,
    DIRECTIVE_REBROADCAST,
)
from repro.obs import InvariantChecker, MetricsRegistry
from repro.rcce import Comm
from repro.scc import SccChip, SccConfig, run_spmd
from repro.scc.config import CACHE_LINE
from repro.sim import FaultInjected, SimError, Tracer
from repro.sim.errors import TimeoutError as SimTimeoutError
from repro.transport.api import CrashOnEvent
from repro.transport.world import (
    asyncio_world, bcast_body, mode_config, run_world, scc_world,
    seeded_payload,
)

THREE_CHUNKS = 3 * 96 * CACHE_LINE

#: An interior (non-root, has children) node of the default 48/7 tree.
TREE48 = PropagationTree(48, 7, 0)
INTERIOR = next(r for r in range(1, 48) if TREE48.children_of(r))


class TestMemberTree:
    """The survivor tree: :class:`PropagationTree` with ranks dead."""

    def test_full_tree_matches_propagation_tree(self):
        # Nobody dead: the survivor tree is the id-rotation tree.
        for root, k in itertools.product((0, 5, 47), (1, 2, 7, 47)):
            mt = PropagationTree(48, k, root=root, dead=())
            pt = PropagationTree(
                48, k, root=root, order=[(root + p) % 48 for p in range(48)]
            )
            assert mt.ranks == pt.ranks
            for r in range(48):
                assert mt.position_of(r) == pt.position_of(r)
                assert mt.parent_of(r) == pt.parent_of(r)
                assert mt.children_of(r) == pt.children_of(r)
                if r != root:
                    assert mt.child_index(r) == pt.child_index(r)
            assert mt.levels() == pt.levels()
            assert mt.depth() == pt.depth()

    def test_survivors_filter_preserves_relative_order(self):
        dead = {3, 17, 40}
        mt = PropagationTree(48, 7, root=0, dead=dead)
        assert mt.size == 45
        assert all(d not in mt for d in dead)
        # Remaining ranks keep the id-based rotation order.
        expected = tuple(r for r in range(48) if r not in dead)
        assert mt.ranks == expected

    def test_parent_child_round_trip(self):
        mt = PropagationTree(48, 7, root=2, dead={5, 9, 30, 31})
        for r in mt.ranks:
            for c in mt.children_of(r):
                assert mt.parent_of(c) == r
                assert mt.children_of(r)[mt.child_index(c)] == c
        root_children = mt.children_of(2)
        assert len(root_children) <= 7

    def test_dead_interior_nodes_subtree_is_reattached(self):
        # Killing an interior node must leave no orphans: every survivor
        # still has a path to the root.
        mt = PropagationTree(48, 7, root=0, dead={INTERIOR})
        for r in mt.ranks:
            hops, cur = 0, r
            while cur != 0:
                cur = mt.parent_of(cur)
                hops += 1
                assert hops <= mt.size
        assert INTERIOR not in mt

    def test_explicit_order_is_respected(self):
        order = (1, 0, 3, 2)
        mt = PropagationTree(4, 2, root=1, dead={3}, order=order)
        assert mt.ranks == (1, 0, 2)

    def test_dead_root_reroots_at_first_surviving_rank(self):
        # The root may die: the tree re-roots at the first survivor of
        # the id-rotation order, for every fan-out.
        for k in range(1, 5):
            mt = PropagationTree(8, k, root=0, dead={0})
            assert mt.root == 1
            assert mt.ranks == (1, 2, 3, 4, 5, 6, 7)
            assert mt.parent_of(1) is None
            assert mt.children_of(1) == list(range(2, 2 + k))

    def test_dead_root_rotation_order_wraps(self):
        # root=5's rotation order is 5,6,7,0,..,4; killing 5 and 6 makes
        # 7 the new root and keeps the survivors' relative placement.
        mt = PropagationTree(8, 2, root=5, dead={5, 6})
        assert mt.root == 7
        assert mt.ranks == (7, 0, 1, 2, 3, 4)

    def test_dead_root_and_interior_leave_no_orphans(self):
        dead = {0, INTERIOR}
        mt = PropagationTree(48, 7, root=0, dead=dead)
        assert mt.root == min(set(range(48)) - dead) and mt.size == 46
        for r in mt.ranks:
            hops, cur = 0, r
            while cur != mt.root:
                cur = mt.parent_of(cur)
                hops += 1
                assert hops <= mt.size
            for c in mt.children_of(r):
                assert mt.parent_of(c) == r

    def test_single_survivor_is_a_leaf_root(self):
        mt = PropagationTree(4, 2, root=0, dead={0, 1, 3})
        assert mt.ranks == (2,)
        assert mt.root == 2 and mt.is_leaf(2) and mt.depth() == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            PropagationTree(0, 2)  # no root
        with pytest.raises(ValueError):
            PropagationTree(3, 2, root=1, order=(1, 1, 2))  # duplicate ranks
        with pytest.raises(ValueError):
            PropagationTree(2, 0)
        with pytest.raises(ValueError):
            PropagationTree(2, 2, root=0, dead={0, 1})  # nobody left
        with pytest.raises(ValueError):
            PropagationTree(4, 2, root=1, order=(0, 1, 2, 3))
        with pytest.raises(ValueError):
            PropagationTree(4, 2, root=0, order=(0, 1, 1, 3))
        with pytest.raises(ValueError):
            PropagationTree(3, 2).child_index(0)


class TestMembershipView:
    def test_full_and_without(self):
        v = MembershipView.full(48)
        assert v.epoch == 0 and len(v.members) == 48 and 17 in v
        w = v.without({3, 7})
        assert w.epoch == 1
        assert 3 not in w and 7 not in w and len(w.members) == 46

    def test_bitmap_round_trip(self):
        v = MembershipView.full(48).without({0, 13, 47})
        raw = v.bitmap(48)
        assert len(raw) == 6
        back = MembershipView.from_bitmap(v.epoch, raw, 48)
        assert back == v

    def test_validation(self):
        with pytest.raises(ValueError):
            MembershipView(0, ())
        with pytest.raises(ValueError):
            MembershipView(-1, (0,))
        with pytest.raises(ValueError):
            MembershipView(0, (1, 1))
        with pytest.raises(ValueError):
            MembershipView(0, (99,)).bitmap(48)


class TestMembershipConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MembershipConfig(hb_timeout=0)
        with pytest.raises(ValueError):
            MembershipConfig(hb_timeout=100, view_timeout=100)

    def test_service_requires_ft(self):
        with pytest.raises(ValueError):
            OcBcastConfig(service=True, ft=False)


def run_service(plan, nbytes=THREE_CHUNKS, watchdog=100_000.0, bcasts=1):
    """``bcasts`` back-to-back service broadcasts on a fresh 48-core chip
    under ``plan``.  Per-core result: a list of ``(status, payload_ok)``
    per broadcast, or ``"crashed"``."""
    injector = FaultInjector(plan)
    chip = SccChip(SccConfig(), faults=injector, metrics=MetricsRegistry())
    comm = Comm(chip)
    svc = OcBcastService(comm)
    payloads = [
        bytes((i + 31 * n) % 251 for i in range(nbytes)) for n in range(bcasts)
    ]

    def prog(core):
        cc = comm.attach(core)
        buf = cc.alloc(nbytes)
        out = []
        try:
            for payload in payloads:
                # Stage at the effective source: the static root while it
                # lives, else the current coordinator (post-failover).
                view = svc.member.views[cc.rank]
                src = svc.root if svc.root in view else svc.member.coord[cc.rank]
                if cc.rank == src:
                    buf.write(payload)
                status = yield from svc.bcast(cc, buf, nbytes)
                if status == "evicted":
                    out.append(("evicted", None))
                else:
                    out.append((status, buf.read() == payload))
        except FaultInjected:
            return "crashed"
        return out

    chip.sim.start_watchdog(watchdog)
    res = run_spmd(chip, prog)
    return res, injector, chip, svc


class TestServiceFaultFree:
    def test_every_core_commits_and_delivers(self):
        res, injector, chip, svc = run_service(FaultPlan())
        assert all(v == [("ok", True)] for v in res.values)
        assert injector.n_injected == 0
        flat = chip.metrics.flat()
        assert flat["oc.svc.commit_ok"] == 1.0
        assert "svc.retries" not in chip.metrics.counters
        # No heartbeat round on the success path.
        assert "member.suspected" not in chip.metrics.counters

    def test_single_rank_service_is_trivially_ok(self):
        chip = SccChip(SccConfig())
        comm = Comm(chip, ranks=[0])
        svc = OcBcastService(comm)

        def prog(core):
            cc = comm.attach(core)
            buf = cc.alloc(64)
            buf.write(bytes(64))
            return (yield from svc.bcast(cc, buf, 64))

        assert run_spmd(chip, prog, core_ids=[0]).values == ("ok",)


class TestServiceRecovery:
    def test_interior_crash_mid_stream_degrades_to_smaller_tree(self):
        plan = FaultPlan(
            (FaultSpec(FaultKind.CORE_CRASH, core=INTERIOR, nth=40),)
        )
        res, injector, chip, svc = run_service(plan)
        vals = list(res.values)
        assert vals[INTERIOR] == "crashed"
        live = [v for i, v in enumerate(vals) if i != INTERIOR]
        assert all(v == [("ok", True)] for v in live)
        # One recovery round: epoch advanced, the dead core evicted.
        view = svc.member.views[0]
        assert view.epoch == 1 and INTERIOR not in view
        assert svc.survivor_tree(view).size == 47
        flat = chip.metrics.flat()
        assert flat["member.suspected"] == 1.0
        assert flat["svc.retries"] >= 1.0
        assert flat["member.ttd_us.count"] == 1.0
        assert flat["member.ttr_us.count"] == 1.0
        assert flat["member.ttr_us.mean"] >= flat["member.ttd_us.mean"]

    def test_corrupted_data_line_is_repaired_end_to_end(self):
        plan = FaultPlan((FaultSpec(FaultKind.CORRUPT_DATA_WRITE, nth=30),))
        res, injector, chip, svc = run_service(plan)
        assert all(v == [("ok", True)] for v in res.values)
        assert chip.metrics.flat()["oc.integrity.mismatches"] >= 1.0

    def test_multi_fault_crash_plus_corruption_in_one_trial(self):
        plan = FaultPlan((
            FaultSpec(FaultKind.CORE_CRASH, core=INTERIOR, nth=60),
            FaultSpec(FaultKind.CORRUPT_DATA_WRITE, nth=45),
        ))
        res, injector, chip, svc = run_service(plan)
        vals = list(res.values)
        assert vals[INTERIOR] == "crashed"
        assert all(
            v == [("ok", True)] for i, v in enumerate(vals) if i != INTERIOR
        )
        assert injector.n_injected == 2

    def test_link_down_burst_evicts_the_partitioned_member(self):
        plan = FaultPlan((
            FaultSpec(
                FaultKind.LINK_DOWN, core=INTERIOR, nth=20, duration=400.0
            ),
        ))
        res, injector, chip, svc = run_service(plan)
        vals = list(res.values)
        statuses = [v if isinstance(v, str) else v[0][0] for v in vals]
        assert statuses.count("ok") >= 47
        assert all(s in ("ok", "evicted") for s in statuses)
        assert injector.burst_dropped > 0

    def test_later_broadcasts_never_touch_the_dead_core(self):
        plan = FaultPlan(
            (FaultSpec(FaultKind.CORE_CRASH, core=INTERIOR, nth=40),)
        )
        res, injector, chip, svc = run_service(plan, bcasts=2)
        vals = list(res.values)
        assert vals[INTERIOR] == "crashed"
        live = [v for i, v in enumerate(vals) if i != INTERIOR]
        assert all(v == [("ok", True), ("ok", True)] for v in live)
        # The second broadcast committed without a single retry: the
        # survivor tree simply does not contain the dead core.
        assert chip.metrics.flat()["oc.svc.commit_ok"] >= 2.0
        epoch = svc.member.views[0].epoch
        assert epoch == 1  # no further suspicion after the repair

    def test_evicted_rank_returns_evicted_without_participating(self):
        chip = SccChip(SccConfig())
        comm = Comm(chip)
        svc = OcBcastService(comm)
        victim = 7
        for r in range(48):
            svc.member.views[r] = svc.member.views[r].without({victim})
        nbytes = 96 * CACHE_LINE
        payload = bytes(i % 251 for i in range(nbytes))

        def prog(core):
            cc = comm.attach(core)
            buf = cc.alloc(nbytes)
            if cc.rank == 0:
                buf.write(payload)
            status = yield from svc.bcast(cc, buf, nbytes)
            return (status, buf.read() == payload)

        chip.sim.start_watchdog(50_000.0)
        res = run_spmd(chip, prog)
        vals = list(res.values)
        assert vals[victim] == ("evicted", False)
        assert all(
            v == ("ok", True) for i, v in enumerate(vals) if i != victim
        )


class TestIntegrityEngine:
    """Payload integrity on the bare OC-Bcast engine (no service)."""

    def _bcast(self, plan, nbytes=96 * CACHE_LINE):
        injector = FaultInjector(plan)
        chip = SccChip(SccConfig(), faults=injector, metrics=MetricsRegistry())
        comm = Comm(chip)
        oc = OcBcast(comm, OcBcastConfig(ft=True, integrity=True))
        payload = bytes(i % 251 for i in range(nbytes))

        def prog(core):
            cc = comm.attach(core)
            buf = cc.alloc(nbytes)
            if cc.rank == 0:
                buf.write(payload)
            yield from oc.bcast(cc, 0, buf, nbytes)
            return buf.read() == payload

        chip.sim.start_watchdog(50_000.0)
        res = run_spmd(chip, prog)
        return res, chip

    def test_corrupted_fetch_deposit_is_refetched(self):
        # data write 1 = root payload stage, 2 = root header; 3+ are the
        # children's fetch deposits -- corrupting one is repairable by a
        # re-fetch from the (clean) parent copy.
        plan = FaultPlan((FaultSpec(FaultKind.CORRUPT_DATA_WRITE, nth=3),))
        res, chip = self._bcast(plan)
        assert all(v is True for v in res.values)
        flat = chip.metrics.flat()
        assert flat["oc.integrity.mismatches"] >= 1.0
        assert chip.faults.n_recovered >= 1

    def test_corrupted_staging_escalates_instead_of_delivering(self):
        # Corrupting the root's *staged copy* (data write 1) is not
        # repairable by re-fetching -- without the service layer it must
        # escalate as a timeout, never deliver silently.
        plan = FaultPlan((FaultSpec(FaultKind.CORRUPT_DATA_WRITE, nth=1),))
        with pytest.raises(SimError) as ei:
            self._bcast(plan)
        cause = ei.value.__cause__
        assert isinstance(cause, SimTimeoutError)
        assert cause.site == "oc.integrity"

    def test_baseline_without_integrity_delivers_corrupt_bytes(self):
        plan = FaultPlan((FaultSpec(FaultKind.CORRUPT_DATA_WRITE, nth=1),))
        injector = FaultInjector(plan)
        chip = SccChip(SccConfig(), faults=injector)
        comm = Comm(chip)
        oc = OcBcast(comm, OcBcastConfig())  # the paper's protocol
        nbytes = 96 * CACHE_LINE
        payload = bytes(i % 251 for i in range(nbytes))

        def prog(core):
            cc = comm.attach(core)
            buf = cc.alloc(nbytes)
            if cc.rank == 0:
                buf.write(payload)
            yield from oc.bcast(cc, 0, buf, nbytes)
            return buf.read() == payload

        res = run_spmd(chip, prog)
        assert any(v is False for v in res.values)  # silent corruption

    def test_buffer_lines_accounts_for_header(self):
        assert OcBcastConfig(integrity=True).buffer_lines == 97
        assert OcBcastConfig().buffer_lines == 96

    def test_chunk_ok_rejects_wrong_seq_span_and_crc(self):
        import struct
        import zlib

        payload = b"\xab" * 64
        hdr = struct.Struct("<qII").pack(5, zlib.crc32(payload), 64)
        raw = hdr.ljust(CACHE_LINE, b"\0") + payload
        assert OcBcast._chunk_ok(raw, 5, 64)
        assert not OcBcast._chunk_ok(raw, 6, 64)
        assert not OcBcast._chunk_ok(raw, 5, 32)
        assert not OcBcast._chunk_ok(
            raw[:CACHE_LINE] + b"\x00" * 64, 5, 64
        )


class TestMembershipPrimitives:
    def test_report_collect_install_adopt_round_trip(self):
        chip = SccChip(SccConfig())
        comm = Comm(chip)
        member = MembershipService(comm, root=0)
        silent = 9

        def prog(core):
            cc = comm.attach(core)
            if cc.rank == 0:
                statuses, suspects = yield from member.collect(cc, 1)
                assert suspects == [silent]
                assert statuses[1] is True and statuses[2] is False
                view = member.views[0].without(suspects)
                unreachable = yield from member.install(cc, view, 1)
                assert unreachable == []
                return member.views[0]
            if cc.rank == silent:
                return None  # plays dead: no heartbeat
            yield from member.report(cc, 1, ok=cc.rank == 1, to=0)
            return (yield from member.await_view(cc, 1))

        chip.sim.start_watchdog(100_000.0)
        res = run_spmd(chip, prog)
        vals = list(res.values)
        for r, v in enumerate(vals):
            if r == silent:
                assert v is None
            else:
                assert v.epoch == 1 and silent not in v

    def test_membership_root_validation(self):
        chip = SccChip(SccConfig())
        with pytest.raises(ValueError):
            MembershipService(Comm(chip), root=48)


class TestCompletionDirective:
    def test_encode_decode_round_trip(self):
        for d in (
            CompletionDirective(DIRECTIVE_NONE, 0, 0),
            CompletionDirective(DIRECTIVE_REBROADCAST, 17, 3),
            CompletionDirective(DIRECTIVE_ABORT, 0, 65535),
        ):
            raw = d.encode()
            assert len(raw) == 4
            assert CompletionDirective.decode(raw) == d

    def test_validation(self):
        with pytest.raises(ValueError):
            CompletionDirective(7, 0, 0)
        with pytest.raises(ValueError):
            CompletionDirective(DIRECTIVE_ABORT, -1, 0)
        with pytest.raises(ValueError):
            CompletionDirective(DIRECTIVE_ABORT, 0, -1)


class TestElection:
    def _elect(self, suspects):
        """All non-suspect ranks run one election round; suspects stay
        silent (playing dead)."""
        chip = SccChip(SccConfig(), metrics=MetricsRegistry())
        comm = Comm(chip)
        member = MembershipService(comm, root=0)
        election = ElectionService(comm, member)

        def prog(core):
            cc = comm.attach(core)
            if cc.rank in suspects:
                return None
            return (yield from election.elect(cc, 1, suspects))

        chip.sim.start_watchdog(100_000.0)
        res = run_spmd(chip, prog)
        return list(res.values), chip

    def test_lowest_live_rank_wins(self):
        vals, chip = self._elect({0})
        assert vals[0] is None
        assert all(v == 1 for i, v in enumerate(vals) if i != 0)
        flat = chip.metrics.flat()
        assert flat["member.elections"] == 1.0  # exactly one winner
        assert flat["member.claims"] >= 1.0

    def test_succession_skips_suspected_ranks(self):
        vals, chip = self._elect({0, 1})
        assert vals[0] is None and vals[1] is None
        assert all(v == 2 for i, v in enumerate(vals) if i not in (0, 1))
        assert chip.metrics.flat()["member.elections"] == 1.0

    def test_non_candidates_cannot_run(self):
        chip = SccChip(SccConfig(mesh_cols=2, mesh_rows=2))
        comm = Comm(chip)
        member = MembershipService(comm, root=0)
        election = ElectionService(comm, member)

        def prog(core):
            cc = comm.attach(core)
            if cc.rank != 3:
                return None
            with pytest.raises(ValueError):
                yield from election.elect(cc, 1, {3})
            return "raised"

        assert run_spmd(chip, prog).values[3] == "raised"


class TestCoordinatorFailover:
    """Tentpole scenarios: the coordinator/source itself crashes."""

    def test_early_root_crash_aborts_uniformly(self):
        # The root dies before any member holds the full payload: the
        # elected coordinator must issue a uniform abort.
        plan = FaultPlan((FaultSpec(FaultKind.CORE_CRASH, core=0, nth=5),))
        res, injector, chip, svc = run_service(plan)
        vals = list(res.values)
        assert vals[0] == "crashed"
        live = [v for i, v in enumerate(vals) if i != 0]
        assert all(v == [("aborted", False)] for v in live)
        # Epoch handoff: rank 1 took over and evicted the dead root.
        view = svc.member.views[1]
        assert view.epoch == 1 and 0 not in view
        assert svc.member.coord[1] == 1
        flat = chip.metrics.flat()
        assert flat["member.elections"] == 1.0
        assert flat["member.tte_us.count"] == 1.0

    def test_mid_stream_root_crash_completes_via_rebroadcast(self):
        # The root dies after the payload is fully staged: survivors
        # holding verified chunks vote, and the elected coordinator
        # designates a fully-delivered peer as the re-broadcast source.
        plan = FaultPlan((FaultSpec(FaultKind.CORE_CRASH, core=0, nth=40),))
        res, injector, chip, svc = run_service(plan)
        vals = list(res.values)
        assert vals[0] == "crashed"
        live = [v for i, v in enumerate(vals) if i != 0]
        assert all(v == [("ok", True)] for v in live)
        view = svc.member.views[1]
        assert view.epoch == 1 and 0 not in view
        assert svc.member.coord[1] == 1
        assert svc.survivor_tree(view).root == 1  # re-rooted
        assert chip.metrics.flat()["member.elections"] >= 1.0

    def test_second_broadcast_runs_from_the_new_coordinator(self):
        plan = FaultPlan((FaultSpec(FaultKind.CORE_CRASH, core=0, nth=40),))
        res, injector, chip, svc = run_service(plan, bcasts=2)
        vals = list(res.values)
        assert vals[0] == "crashed"
        live = [v for i, v in enumerate(vals) if i != 0]
        assert all(v == [("ok", True), ("ok", True)] for v in live)
        # No further suspicion: the handoff epoch carried the second
        # message without another recovery round.
        assert svc.member.views[1].epoch == 1

    @pytest.mark.parametrize("nth", [5, 40])
    def test_invariants_hold_through_failover(self, nth):
        plan = FaultPlan((FaultSpec(FaultKind.CORE_CRASH, core=0, nth=nth),))
        injector = FaultInjector(plan)
        chip = SccChip(
            SccConfig(), faults=injector, metrics=MetricsRegistry(),
            tracer=Tracer(enabled=True),
        )
        checker = InvariantChecker(lossless=False).attach(chip)
        comm = Comm(chip)
        svc = OcBcastService(comm)
        nbytes = THREE_CHUNKS
        payload = bytes(i % 251 for i in range(nbytes))

        def prog(core):
            cc = comm.attach(core)
            buf = cc.alloc(nbytes)
            if cc.rank == 0:
                buf.write(payload)
            try:
                return (yield from svc.bcast(cc, buf, nbytes))
            except FaultInjected:
                return "crashed"

        chip.sim.start_watchdog(100_000.0)
        res = run_spmd(chip, prog)
        checker.check()  # I1..I6, including uniform agreement
        statuses = set(res.values)
        assert statuses in ({"crashed", "ok"}, {"crashed", "aborted"})


@pytest.mark.faults
class TestAcceptanceCampaign:
    """ISSUE 4's headline experiment: a 100-trial multi-fault campaign
    (interior crash mid-stream + corrupted data line per trial) where the
    service delivers to every live core 100/100 while the PR-1 FT layer
    and the baseline each fail in the majority of trials."""

    def test_hundred_trial_multi_fault_campaign(self):
        from repro.bench import FaultCampaign

        campaign = FaultCampaign(
            trials=100,
            seed=4,
            kinds=(FaultKind.CORE_CRASH, FaultKind.CORRUPT_DATA_WRITE),
            nbytes=THREE_CHUNKS,
            service=True,
            faults_per_trial=2,
            crash_site="interior",
            mid_stream=True,
            watchdog_interval=100_000.0,
        )
        result = campaign.run()
        # The service commits every trial with correct payloads on every
        # live member.
        assert result.counts["service"]["recovered"] == 100
        assert result.rate("service", ("delivered", "recovered")) == 1.0
        # The FT layer and the baseline each lose the majority.
        failed = ("deadlock", "timeout", "corrupt")
        assert result.rate("ft", failed) > 0.5
        assert result.rate("baseline", failed) > 0.5
        # Fault-free service tax under 5%.
        assert result.tax_pct("service", "baseline") < 5.0
        # Detection/repair telemetry came back from the trials.
        assert result.times("service", "ttd")["count"] >= 90
        assert result.times("service", "ttr")["count"] >= 90


@pytest.mark.faults
class TestFailoverAcceptanceCampaign:
    """This PR's headline experiment: 100 trials of a seeded root crash
    mid-stream of a three-chunk message on the 48-core chip.  Every
    trial elects a successor coordinator and terminates with uniform
    agreement -- re-broadcast completion when a fully-delivered survivor
    exists, a group-wide abort otherwise."""

    def test_hundred_trial_root_crash_campaign(self):
        from repro.bench import FaultCampaign

        campaign = FaultCampaign(
            trials=100,
            seed=5,
            kinds=(FaultKind.CORE_CRASH,),
            nbytes=THREE_CHUNKS,
            service=True,
            compare_baseline=False,
            crash_site="root",
            mid_stream=True,
            watchdog_interval=100_000.0,
        )
        result = campaign.run()
        counts = result.counts["service"]
        # 100/100 termination with uniform agreement; zero retry-budget
        # timeouts, deadlocks or split outcomes.
        assert result.rate("service", ("delivered", "recovered", "aborted")) == 1.0
        assert counts["recovered"] + counts["aborted"] == 100
        assert counts["deadlock"] == 0 and counts["timeout"] == 0
        assert counts["corrupt"] == 0 and counts["crashed"] == 0
        # Every trial elected a successor coordinator.
        assert result.times("service", "tte")["count"] == 100
        # Fault-free election-enabled service tax stays under 5%.
        assert result.tax_pct("service", "baseline") < 5.0


# -- every exit of the recovery loop, pinned -------------------------------


class _Crashes:
    """Several backend-agnostic crash coordinates in one world."""

    def __init__(self, coords) -> None:
        self.hooks = [CrashOnEvent(r, kind, nth=nth) for r, kind, nth in coords]

    def on_trace(self, rank, kind, detail) -> None:
        for hook in self.hooks:
            hook.on_trace(rank, kind, detail)


def _pause(core, nth, us):
    return FaultSpec(FaultKind.CORE_PAUSE, core=core, nth=nth, duration=us)


def _stall(core, nth, us):
    return FaultSpec(FaultKind.LINK_STALL, core=core, nth=nth, duration=us)


def _down(core, nth, us):
    return FaultSpec(FaultKind.LINK_DOWN, core=core, nth=nth, duration=us)


#: The root dies before staging (nobody holds the payload) / a leaf dies
#: (the root coordinates the recovery round).
C0 = (0, "oc.chunk.begin", 1)
C3 = (3, "oc.chunk.begin", 1)


@dataclass(frozen=True)
class ExitScript:
    """A scripted 2x1-mesh (four ranks, two chunks) service run that takes
    one or more recovery exits.  ``faults`` holds one injector fault per
    backend: a core pause exists only on the chip, so asyncio stalls one
    link for it instead; the fault counters count differently, so the
    ``nth`` differs where needed.  ``ending`` is ``(status, per-rank
    outcomes)`` or ``("timeout", site)``.  ``streams`` pins the exiting
    ranks' ordered ``svc.*``/``member.*`` records -- equal on both
    backends -- and ``digests`` every rank's."""

    crashes: tuple
    faults: dict
    ending: tuple
    digests: dict
    streams: dict


EXIT_SCRIPTS = {
    "standing_step_down": ExitScript(
        # A standing coordinator paused past ``view_timeout`` finds its
        # members' election claim at its first fence, steps down and follows
        # the winner.
        crashes=(C3,),
        faults={"scc": _pause(0, 1, 12000.0), "asyncio": _stall(0, 1, 12000.0)},
        ending=("", ("ok", "ok", "ok", "crashed")),
        digests={"scc": "37f374b4a6ae29fd", "asyncio": "37f374b4a6ae29fd"},
        streams={
            0: [
                "svc.attempt round=1 epoch=0 src=0 members=4",
                "svc.step_down round=1 to=1",
                "member.hb round=1 ok=True to=1",
                "member.view_adopt epoch=1 coord=1 members=3 evicted=False",
                "svc.attempt round=2 epoch=1 src=0 members=3",
                "svc.outcome msg=1 status=ok epoch=1 crc=1748388774",
            ],
        },
    ),
    "deposed_follow_fails": ExitScript(
        # The same, but the rival dies after winning: the deposed
        # coordinator's follow times out, it runs an election and installs;
        # rank 2's follow fails too, and it re-elects, wins and steps down
        # to rank 0 at its first fence.
        crashes=(C3, (1, "member.elect.won", 1)),
        faults={"scc": _pause(0, 1, 12000.0), "asyncio": _stall(0, 1, 12000.0)},
        ending=("", ("ok", "crashed", "ok", "crashed")),
        digests={"scc": "4ca71df9daaa4ed5", "asyncio": "4ca71df9daaa4ed5"},
        streams={
            0: [
                "svc.attempt round=1 epoch=0 src=0 members=4",
                "svc.step_down round=1 to=1",
                "member.hb round=1 ok=True to=1",
                "member.elect.begin round=1 epoch=0 index=0 candidates=3",
                "member.claim round=1",
                "member.elect.won round=1 epoch=0",
                "member.suspect member=3 round=1",
                "member.view_install epoch=1 round=1 members=3 directive=0",
                "svc.attempt round=2 epoch=1 src=0 members=3",
                "member.suspect member=1 round=2",
                "member.view_install epoch=2 round=2 members=2 directive=0",
                "svc.attempt round=3 epoch=2 src=0 members=2",
                "svc.outcome msg=1 status=ok epoch=2 crc=1748388774",
            ],
            2: [
                "svc.attempt round=1 epoch=0 src=0 members=4",
                "svc.attempt_failed round=1 site=oc.notify",
                "member.hb round=1 ok=False to=0",
                "member.elect.begin round=1 epoch=0 index=1 candidates=3",
                "member.elect.follow round=1 winner=1",
                "member.hb round=1 ok=False to=1",
                "member.elect.begin round=1 epoch=0 index=0 candidates=2",
                "member.claim round=1",
                "member.elect.won round=1 epoch=0",
                "svc.step_down round=1 to=0",
                "member.hb round=1 ok=False to=0",
                "member.view_adopt epoch=1 coord=0 members=3 evicted=False",
                "svc.attempt round=2 epoch=1 src=0 members=3",
                "member.hb round=2 ok=True to=0",
                "member.view_adopt epoch=2 coord=0 members=2 evicted=False",
                "svc.attempt round=3 epoch=2 src=0 members=2",
                "svc.outcome msg=1 status=ok epoch=2 crc=1748388774",
            ],
        },
    ),
    "winner_outranked": ExitScript(
        # Rank 1 stalls through its election budget, so rank 2 wins; rank 1
        # claims late, and rank 2 sees it at the fence before installing.
        crashes=(C0,),
        faults={"scc": _pause(1, 3, 5000.0), "asyncio": _stall(1, 1, 3750.0)},
        ending=("", ("crashed", "aborted", "aborted", "aborted")),
        digests={"scc": "f672a03f76d3a6b0", "asyncio": "f672a03f76d3a6b0"},
        streams={
            2: [
                "svc.attempt round=1 epoch=0 src=0 members=4",
                "svc.attempt_failed round=1 site=oc.notify",
                "member.hb round=1 ok=False to=0",
                "member.elect.begin round=1 epoch=0 index=1 candidates=3",
                "member.claim round=1",
                "member.elect.won round=1 epoch=0",
                "member.suspect member=0 round=1",
                "member.suspect member=1 round=1",
                "svc.completion round=1 src=0 decision=abort holders=0 new_source=-1",
                "svc.step_down round=1 to=1",
                "member.hb round=1 ok=False to=1",
                "member.view_adopt epoch=1 coord=1 members=2 evicted=False",
                "svc.outcome msg=1 status=aborted epoch=1",
            ],
        },
    ),
    "elect_yield": ExitScript(
        # Rank 1's late claim lands inside rank 2's settle window: rank 2
        # yields.
        crashes=(C0,),
        faults={"scc": _pause(1, 5, 12000.0), "asyncio": _stall(1, 1, 2750.0)},
        ending=("", ("crashed", "aborted", "aborted", "aborted")),
        digests={"scc": "8ae6688d6a34fca7", "asyncio": "8ae6688d6a34fca7"},
        streams={
            2: [
                "svc.attempt round=1 epoch=0 src=0 members=4",
                "svc.attempt_failed round=1 site=oc.notify",
                "member.hb round=1 ok=False to=0",
                "member.elect.begin round=1 epoch=0 index=1 candidates=3",
                "member.claim round=1",
                "member.elect.yield round=1 winner=1",
                "member.hb round=1 ok=False to=1",
                "member.view_adopt epoch=1 coord=1 members=3 evicted=False",
                "svc.outcome msg=1 status=aborted epoch=1",
            ],
        },
    ),
    "exhausted": ExitScript(
        # The first winner dies after claiming.  Every later winner of the
        # round steps down to its stale claim, re-elects, and the candidate
        # set runs out.
        crashes=(C0, (1, "member.elect.won", 1)),
        faults={"scc": None, "asyncio": None},
        ending=("timeout", "member.elect"),
        digests={"scc": "f49304ec39a27782", "asyncio": "f49304ec39a27782"},
        streams={
            2: [
                "svc.attempt round=1 epoch=0 src=0 members=4",
                "svc.attempt_failed round=1 site=oc.notify",
                "member.hb round=1 ok=False to=0",
                "member.elect.begin round=1 epoch=0 index=1 candidates=3",
                "member.elect.follow round=1 winner=1",
                "member.hb round=1 ok=False to=1",
                "member.elect.begin round=1 epoch=0 index=0 candidates=2",
                "member.claim round=1",
                "member.elect.won round=1 epoch=0",
                "svc.step_down round=1 to=1",
                "member.hb round=1 ok=False to=1",
                "member.elect.begin round=1 epoch=0 index=0 candidates=2",
                "member.claim round=1",
                "member.elect.won round=1 epoch=0",
                "svc.step_down round=1 to=1",
                "member.hb round=1 ok=False to=1",
                "member.elect.begin round=1 epoch=0 index=0 candidates=2",
                "member.claim round=1",
                "member.elect.won round=1 epoch=0",
                "svc.step_down round=1 to=1",
                "member.hb round=1 ok=False to=1",
            ],
        },
    ),
    "follow_report_failed": ExitScript(
        # Rank 2 follows the election winner, but its link is down, so its
        # re-report fails; the winner's view still reaches it.
        crashes=(C0,),
        faults={"scc": _down(1, 9, 3000.0), "asyncio": _down(1, 9, 3000.0)},
        ending=("", ("crashed", "aborted", "aborted", "aborted")),
        digests={"scc": "182e87ff96f530fc", "asyncio": "182e87ff96f530fc"},
        streams={
            2: [
                "svc.attempt round=1 epoch=0 src=0 members=4",
                "svc.attempt_failed round=1 site=oc.notify",
                "member.hb round=1 ok=False to=0",
                "member.elect.begin round=1 epoch=0 index=1 candidates=3",
                "member.elect.follow round=1 winner=1",
                "member.hb round=1 ok=False to=1",
                "svc.report_failed round=1",
                "member.view_adopt epoch=1 coord=1 members=1 evicted=True",
                "svc.outcome msg=1 status=aborted epoch=1",
            ],
        },
    ),
    "self_evict": ExitScript(
        # A holder whose link is down can neither report nor hear the view:
        # it delivers and leaves the group.
        crashes=(C3,),
        faults={"scc": _down(1, 13, 10000.0), "asyncio": _down(1, 11, 10000.0)},
        ending=("", ("ok", "ok", "ok", "crashed")),
        digests={"scc": "da44c1b87031fc55", "asyncio": "da44c1b87031fc55"},
        streams={
            1: [
                "svc.attempt round=1 epoch=0 src=0 members=4",
                "member.hb round=1 ok=True to=0",
                "svc.report_failed round=1",
                "svc.self_evict round=1",
                "svc.outcome msg=1 status=self_evicted epoch=1",
            ],
        },
    ),
    "fast_forward": ExitScript(
        # A coordinator pause splits the round: rank 2 adopts a view
        # installed for a later round and fast-forwards.
        crashes=(C3,),
        faults={"scc": _pause(0, 55, 5000.0), "asyncio": _stall(0, 25, 5000.0)},
        ending=("", ("ok", "aborted", "ok", "crashed")),
        digests={"scc": "22be9665f9d28eb3", "asyncio": "22be9665f9d28eb3"},
        streams={
            2: [
                "svc.attempt round=1 epoch=0 src=0 members=4",
                "member.hb round=1 ok=True to=0",
                "member.elect.begin round=1 epoch=0 index=1 candidates=3",
                "member.claim round=1",
                "member.elect.won round=1 epoch=0",
                "member.suspect member=0 round=1",
                "member.suspect member=1 round=1",
                "member.suspect member=3 round=1",
                "svc.completion round=1 src=0 decision=rebroadcast holders=1 new_source=2",
                "svc.step_down round=1 to=1",
                "member.hb round=1 ok=True to=1",
                "member.view_adopt epoch=2 coord=0 members=2 evicted=True",
                "svc.fast_forward round=1 to=2",
                "svc.outcome msg=1 status=ok epoch=2 crc=1748388774",
            ],
        },
    ),
    "claim_unreachable": ExitScript(
        # Rank 1's link is down while it stamps its claim: no claim write is
        # acked.
        crashes=(C0,),
        faults={"scc": _down(1, 3, 3000.0), "asyncio": _down(1, 3, 3000.0)},
        ending=("", ("crashed", "aborted", "aborted", "aborted")),
        digests={"scc": "71045136f5bedf80", "asyncio": "71045136f5bedf80"},
        streams={
            1: [
                "svc.attempt round=1 epoch=0 src=0 members=4",
                "svc.attempt_failed round=1 site=oc.notify",
                "member.hb round=1 ok=False to=0",
                "member.elect.begin round=1 epoch=0 index=0 candidates=3",
                "member.claim round=1",
                "member.claim_unreachable member=0",
                "member.claim_unreachable member=1",
                "member.claim_unreachable member=2",
                "member.claim_unreachable member=3",
                "member.elect.won round=1 epoch=0",
                "member.suspect member=0 round=1",
                "member.suspect member=2 round=1",
                "member.suspect member=3 round=1",
                "svc.completion round=1 src=0 decision=abort holders=0 new_source=-1",
                "member.view_install epoch=1 round=1 members=1 directive=2",
                "svc.outcome msg=1 status=aborted epoch=1",
            ],
        },
    ),
    "reraise": ExitScript(
        # A member that holds nothing, cannot report and hears no view re-
        # raises the view timeout.
        crashes=(C0,),
        faults={"scc": _down(1, 1, 10000.0), "asyncio": _down(1, 1, 10000.0)},
        ending=("timeout", "member.view"),
        digests={"scc": "50c6b1007f3a781e", "asyncio": "e469df9a23eb0b8c"},
        streams={
            1: [
                "svc.attempt round=1 epoch=0 src=0 members=4",
                "svc.attempt_failed round=1 site=oc.notify",
                "member.hb round=1 ok=False to=0",
                "svc.report_failed round=1",
            ],
        },
    ),
}


def _recovery_text(run, rank) -> list[str]:
    return [
        " ".join([rec.kind] + [f"{k}={v}" for k, v in rec.detail.items()])
        for rec in run.records
        if rec.source == f"rank{rank}" and rec.kind.startswith(("svc.", "member."))
    ]


def run_exit_script(script: ExitScript, backend: str):
    fault = script.faults[backend]
    plan = FaultPlan(() if fault is None else (fault,), num_cores=4)
    if backend == "scc":
        world = scc_world(
            SccConfig(mesh_cols=2, mesh_rows=1), plan=plan, trace=True,
            crash_hook=_Crashes(script.crashes), watchdog_us=50_000.0,
        )
    else:
        world = asyncio_world(
            4, plan=plan, seed=1, crash_hook=_Crashes(script.crashes)
        )
    payload = seeded_payload(1, 2 * 96 * CACHE_LINE)
    return run_world(world, bcast_body(world, mode_config("service"), payload))


class TestRecoveryExits:
    """Each exit of the service's recovery loop, reached by a scripted
    fault and pinned as an ordered ``(kind, fields)`` record stream on
    both backends."""

    @pytest.mark.parametrize("backend", ["scc", "asyncio"])
    @pytest.mark.parametrize("name", sorted(EXIT_SCRIPTS))
    def test_exit_record_stream(self, name, backend):
        script = EXIT_SCRIPTS[name]
        run = run_exit_script(script, backend)
        status, detail = script.ending
        assert run.status == status
        if status:
            assert run.error.site == detail
        else:
            assert tuple(
                v[0] if isinstance(v, tuple) else v for v in run.values
            ) == detail
        for rank, expected in script.streams.items():
            assert _recovery_text(run, rank) == expected
        text = "\n".join(
            f"{r}\t{line}" for r in range(4) for line in _recovery_text(run, r)
        )
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert digest == script.digests[backend]
