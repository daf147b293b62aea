"""Tests for membership, epochs, and the crash-surviving broadcast service.

The adversarial configuration is a three-chunk message on the full
48-core chip: multi-chunk streams are what make *mid-stream* interior
crashes interesting (the crashed node has already relayed some chunks,
so its subtree is mid-pipeline when it goes silent).
"""

import itertools

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
from repro.member.heartbeat import (
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
            yield from member.report(cc, 1, ok=cc.rank == 1)
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
