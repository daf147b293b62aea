"""Tests for OC-Bcast: correctness, protocol ordering, configurations."""

import numpy as np
import pytest

from repro.core import NotifyMode, OcBcast, OcBcastConfig, topology_aware_order
from repro.obs import InvariantChecker
from repro.rcce import Comm
from repro.scc import ContentionMode, SccChip, SccConfig, run_spmd
from repro.sim import Tracer


def of_kind(tracer, kind):
    """The tracer's records of one kind, in emission order."""
    return [r for r in tracer.records if r.kind == kind]


def make_world(P=48, tracer=None, **cfg):
    chip = SccChip(SccConfig(**cfg), tracer=tracer)
    comm = Comm(chip, ranks=list(range(P)))
    return chip, comm


def oc_roundtrip(P, nbytes, root=0, oc_config=None, order=None, repeats=1, **cfg):
    # Every roundtrip runs under the online invariant checker: protocol
    # regressions (lost writes, notify/fetch reordering, premature buffer
    # reuse) fail here even when the payload still arrives intact.
    chip, comm = make_world(P, tracer=Tracer(enabled=True), **cfg)
    checker = InvariantChecker(lossless=True).attach(chip)
    oc = OcBcast(comm, oc_config)
    payloads = [
        bytes((i * 31 + rep) % 256 for i in range(nbytes)) for rep in range(repeats)
    ]
    results = {rep: {} for rep in range(repeats)}

    def program(core):
        cc = comm.attach(core)
        for rep in range(repeats):
            buf = cc.alloc(nbytes)
            if cc.rank == root:
                buf.write(payloads[rep])
            yield from oc.bcast(cc, root, buf, nbytes, order=order)
            results[rep][cc.rank] = buf.read()

    run_spmd(chip, program, core_ids=list(range(P)))
    checker.check()
    return payloads, results


class TestCorrectness:
    @pytest.mark.parametrize("P", [2, 3, 7, 8, 9, 12, 48])
    def test_various_rank_counts(self, P):
        sent, got = oc_roundtrip(P, 200)
        assert all(got[0][r] == sent[0] for r in range(P))

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 24, 47])
    def test_various_k(self, k):
        sent, got = oc_roundtrip(48, 500, oc_config=OcBcastConfig(k=k))
        assert all(got[0][r] == sent[0] for r in range(48))

    @pytest.mark.parametrize("root", [0, 1, 25, 47])
    def test_various_roots(self, root):
        sent, got = oc_roundtrip(48, 300, root=root)
        assert all(got[0][r] == sent[0] for r in range(48))

    @pytest.mark.parametrize(
        "nbytes",
        [1, 31, 32, 33, 96 * 32, 96 * 32 + 1, 97 * 32, 2 * 96 * 32, 5 * 96 * 32 + 7],
    )
    def test_chunk_boundaries(self, nbytes):
        sent, got = oc_roundtrip(12, nbytes)
        assert all(got[0][r] == sent[0] for r in range(12))

    def test_zero_bytes_is_noop(self):
        sent, got = oc_roundtrip(8, 200)  # warm engine path exercised above
        chip, comm = make_world(8)
        oc = OcBcast(comm)

        def program(core):
            cc = comm.attach(core)
            buf = cc.alloc(0)
            yield from oc.bcast(cc, 0, buf, 0)

        res = run_spmd(chip, program, core_ids=list(range(8)))
        assert res.makespan == 0.0

    def test_single_rank(self):
        chip, comm = make_world(1)
        oc = OcBcast(comm)

        def program(core):
            cc = comm.attach(core)
            buf = cc.alloc(64)
            buf.write(b"y" * 64)
            yield from oc.bcast(cc, 0, buf, 64)
            return buf.read()

        res = run_spmd(chip, program, core_ids=[0])
        assert res.values[0] == b"y" * 64

    def test_repeated_broadcasts_same_engine(self):
        sent, got = oc_roundtrip(12, 96 * 32 * 2, repeats=4)
        for rep in range(4):
            assert all(got[rep][r] == sent[rep] for r in range(12))

    def test_repeated_broadcasts_changing_roots(self):
        """Flag sequence numbers must survive tree changes (different root
        => different parents/children writing the same flag lines)."""
        chip, comm = make_world(12)
        oc = OcBcast(comm)
        results = []

        def program(core):
            cc = comm.attach(core)
            for root in (0, 5, 11, 3):
                buf = cc.alloc(400)
                if cc.rank == root:
                    buf.write(bytes([root]) * 400)
                yield from oc.bcast(cc, root, buf, 400)
                if cc.rank == (root + 1) % 12:
                    results.append(buf.read())

        run_spmd(chip, program, core_ids=list(range(12)))
        assert results == [bytes([r]) * 400 for r in (0, 5, 11, 3)]

    @pytest.mark.parametrize(
        "mode", [ContentionMode.IDEAL, ContentionMode.BATCH, ContentionMode.EXACT]
    )
    def test_all_contention_modes(self, mode):
        sent, got = oc_roundtrip(12, 97 * 32, contention_mode=mode)
        assert all(got[0][r] == sent[0] for r in range(12))


class TestConfigurations:
    def test_single_buffering(self):
        cfg = OcBcastConfig(num_buffers=1)
        sent, got = oc_roundtrip(12, 96 * 32 * 3, oc_config=cfg)
        assert all(got[0][r] == sent[0] for r in range(12))

    def test_triple_buffering(self):
        cfg = OcBcastConfig(num_buffers=3, chunk_lines=64)
        sent, got = oc_roundtrip(12, 64 * 32 * 5 + 9, oc_config=cfg)
        assert all(got[0][r] == sent[0] for r in range(12))

    def test_leaf_direct_to_memory(self):
        cfg = OcBcastConfig(leaf_direct_to_memory=True)
        sent, got = oc_roundtrip(48, 96 * 32 * 2 + 5, oc_config=cfg)
        assert all(got[0][r] == sent[0] for r in range(48))

    def test_interrupt_notification(self):
        cfg = OcBcastConfig(notify_mode=NotifyMode.INTERRUPT)
        sent, got = oc_roundtrip(48, 300, oc_config=cfg)
        assert all(got[0][r] == sent[0] for r in range(48))

    @pytest.mark.parametrize("degree", [1, 2, 3, 7])
    def test_notification_degrees(self, degree):
        cfg = OcBcastConfig(k=7, notify_degree=degree)
        sent, got = oc_roundtrip(48, 200, oc_config=cfg)
        assert all(got[0][r] == sent[0] for r in range(48))

    def test_topology_aware_order(self):
        chip, comm = make_world(48)
        order = topology_aware_order(48, 7, 0, chip.mesh.core_distance)
        sent, got = oc_roundtrip(48, 400, order=order)
        assert all(got[0][r] == sent[0] for r in range(48))

    def test_order_accepts_an_array(self):
        sent, got = oc_roundtrip(12, 400, root=11, order=np.arange(12)[::-1])
        assert all(got[0][r] == sent[0] for r in range(12))

    def test_double_buffering_improves_throughput(self):
        """The paper's 2n-delta vs n-delta argument (Section 4.2).  The
        effect is clearest where root staging sits on the critical path
        (a flat tree with the leaf-direct optimisation); in the default
        deep-tree config the child's serial MPB-to-memory copy hides the
        staging, as Formula 15's buffer-independence predicts."""
        def latency(nbuf):
            chip, comm = make_world(48)
            oc = OcBcast(
                comm,
                OcBcastConfig(num_buffers=nbuf, k=47, leaf_direct_to_memory=True),
            )
            nbytes = 96 * 32 * 12

            def program(core):
                cc = comm.attach(core)
                buf = cc.alloc(nbytes)
                if cc.rank == 0:
                    buf.write(bytes(nbytes))
                yield from oc.bcast(cc, 0, buf, nbytes)

            return run_spmd(chip, program, core_ids=list(range(48))).makespan

        single, double = latency(1), latency(2)
        assert double < single * 0.8

    def test_mpb_exhaustion_rejected(self):
        chip, comm = make_world(8)
        # 2 x 125 lines + 8 flag lines = 258 > 256.
        with pytest.raises(MemoryError):
            OcBcast(comm, OcBcastConfig(k=7, chunk_lines=125, num_buffers=2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OcBcastConfig(k=0)
        with pytest.raises(ValueError):
            OcBcastConfig(chunk_lines=0)
        with pytest.raises(ValueError):
            OcBcastConfig(num_buffers=0)
        with pytest.raises(ValueError):
            OcBcastConfig(notify_degree=0)

    def test_leaf_direct_rejects_integrity(self):
        # A leaf-direct fetch lands in private memory: no MPB copy of the
        # chunk header to verify against.
        with pytest.raises(ValueError, match="leaf_direct_to_memory"):
            OcBcastConfig(leaf_direct_to_memory=True, integrity=True)

    def test_bcast_argument_validation(self):
        chip, comm = make_world(8)
        oc = OcBcast(comm)

        def bad_root(core):
            cc = comm.attach(core)
            buf = cc.alloc(32)
            yield from oc.bcast(cc, 8, buf, 32)

        with pytest.raises(Exception):
            run_spmd(chip, bad_root, core_ids=[0])

        def small_buf(core):
            cc = comm.attach(core)
            buf = cc.alloc(16)
            yield from oc.bcast(cc, 0, buf, 32)

        with pytest.raises(Exception):
            run_spmd(chip, small_buf, core_ids=[0])


class TestProtocolOrdering:
    def _traced_run(self, P=12, nbytes=96 * 32 * 2, k=3):
        tracer = Tracer(enabled=True)
        chip = SccChip(SccConfig(), tracer=tracer)
        comm = Comm(chip, ranks=list(range(P)))
        oc = OcBcast(comm, OcBcastConfig(k=k))

        def program(core):
            cc = comm.attach(core)
            buf = cc.alloc(nbytes)
            if cc.rank == 0:
                buf.write(bytes(nbytes))
            yield from oc.bcast(cc, 0, buf, nbytes)

        run_spmd(chip, program, core_ids=list(range(P)))
        return tracer

    def test_chunks_staged_in_order(self):
        tracer = self._traced_run()
        staged = [r.detail["idx"] for r in of_kind(tracer, "oc.chunk_staged")]
        assert staged == sorted(staged)

    def test_no_node_finishes_chunk_before_root_stages_it(self):
        tracer = self._traced_run()
        staged = {r.detail["idx"]: r.time for r in of_kind(tracer, "oc.chunk_staged")}
        for rec in of_kind(tracer, "oc.chunk_done"):
            assert rec.time > staged[rec.detail["idx"]]

    def test_every_rank_completes_every_chunk(self):
        P, nchunks = 12, 2
        tracer = self._traced_run(P=P)
        done = of_kind(tracer, "oc.chunk_done")
        per_rank = {}
        for rec in done:
            per_rank.setdefault(rec.source, []).append(rec.detail["idx"])
        assert len(per_rank) == P - 1  # all non-roots
        for idxs in per_rank.values():
            assert idxs == list(range(nchunks))

    def test_pipelining_overlaps_chunks(self):
        """With double buffering the root stages chunk 1 before the last
        node finishes chunk 0."""
        tracer = self._traced_run(P=48, nbytes=96 * 32 * 4, k=7)
        staged = {r.detail["idx"]: r.time for r in of_kind(tracer, "oc.chunk_staged")}
        done0 = max(
            r.time for r in of_kind(tracer, "oc.chunk_done") if r.detail["idx"] == 0
        )
        assert staged[1] < done0


class TestLatencyShape:
    """Relations the paper reports (Figures 6 and 8)."""

    def _latency(self, k, ncl, P=48):
        chip, comm = make_world(P)
        oc = OcBcast(comm, OcBcastConfig(k=k))
        nbytes = ncl * 32

        def program(core):
            cc = comm.attach(core)
            buf = cc.alloc(nbytes)
            if cc.rank == 0:
                buf.write(bytes(nbytes))
            yield from oc.bcast(cc, 0, buf, nbytes)

        return run_spmd(chip, program, core_ids=list(range(P))).makespan

    def test_k7_beats_k2_for_medium_messages(self):
        assert self._latency(7, 96) < self._latency(2, 96)

    def test_k47_slowest_for_tiny_messages(self):
        """Large k pays polling costs on 1-line messages (Figure 6b)."""
        l47 = self._latency(47, 1)
        assert l47 > self._latency(7, 1)

    def test_latency_monotone_in_message_size(self):
        lats = [self._latency(7, ncl) for ncl in (1, 32, 96, 192)]
        assert lats == sorted(lats)

    def test_leaf_direct_helps_leaves(self):
        def lat(leaf_direct):
            chip, comm = make_world(48)
            oc = OcBcast(
                comm, OcBcastConfig(k=7, leaf_direct_to_memory=leaf_direct)
            )

            def program(core):
                cc = comm.attach(core)
                buf = cc.alloc(96 * 32)
                if cc.rank == 0:
                    buf.write(bytes(96 * 32))
                yield from oc.bcast(cc, 0, buf, 96 * 32)

            return run_spmd(chip, program, core_ids=list(range(48))).makespan

        assert lat(True) < lat(False)
