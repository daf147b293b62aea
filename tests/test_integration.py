"""Integration tests spanning several subsystems at once."""

import pytest

from repro import (
    Comm,
    ContentionMode,
    OcBcast,
    OcBcastConfig,
    OsagBcast,
    SccChip,
    SccConfig,
    binomial_bcast,
    run_spmd,
    scatter_allgather_bcast,
)
from repro.sim import DeadlockError


class TestSubsetCommunicators:
    """Collectives over non-contiguous core subsets (ranks != core ids)."""

    CORES = [5, 11, 0, 30, 47, 22, 13, 8]  # arbitrary order, arbitrary tiles

    def test_ocbcast_on_scattered_cores(self):
        chip = SccChip(SccConfig())
        comm = Comm(chip, ranks=self.CORES)
        oc = OcBcast(comm, OcBcastConfig(k=3))
        payload = bytes(range(200))
        results = {}

        def program(core):
            cc = comm.attach(core)
            assert comm.core_of(cc.rank) == core.id
            buf = cc.alloc(len(payload))
            if cc.rank == 0:  # rank 0 is core 5
                buf.write(payload)
            yield from oc.bcast(cc, 0, buf, len(payload))
            results[core.id] = buf.read()

        run_spmd(chip, program, core_ids=self.CORES)
        assert set(results) == set(self.CORES)
        assert all(v == payload for v in results.values())

    def test_two_communicators_on_one_chip(self):
        """Two disjoint halves broadcast independently, concurrently."""
        chip = SccChip(SccConfig())
        left = Comm(chip, ranks=list(range(0, 24)))
        right = Comm(chip, ranks=list(range(24, 48)))
        oc_left = OcBcast(left, OcBcastConfig(k=3))
        oc_right = OcBcast(right, OcBcastConfig(k=5))
        results = {}

        def program(core):
            comm, oc = (left, oc_left) if core.id < 24 else (right, oc_right)
            cc = comm.attach(core)
            payload = bytes([core.id // 24 + 1]) * 100
            buf = cc.alloc(100)
            if cc.rank == 0:
                buf.write(payload)
            yield from oc.bcast(cc, 0, buf, 100)
            results[core.id] = buf.read()

        run_spmd(chip, program)
        assert all(results[c] == b"\x01" * 100 for c in range(24))
        assert all(results[c] == b"\x02" * 100 for c in range(24, 48))

    def test_rank_mapping_validation(self):
        chip = SccChip(SccConfig())
        with pytest.raises(ValueError):
            Comm(chip, ranks=[0, 0, 1])
        with pytest.raises(ValueError):
            Comm(chip, ranks=[0, 99])
        comm = Comm(chip, ranks=[3, 4])
        with pytest.raises(ValueError):
            comm.rank_of(5)
        with pytest.raises(ValueError):
            comm.core_of(2)


class TestAlgorithmAgreement:
    """All four broadcasts must deliver identical bytes for identical
    inputs, whatever the timing differences."""

    def test_all_four_broadcasts_agree(self):
        nbytes = 3333
        payload = bytes((i * 91 + 17) % 256 for i in range(nbytes))
        outcomes = {}

        def run(name, factory):
            chip = SccChip(SccConfig())
            comm = Comm(chip, ranks=list(range(16)))
            bcast = factory(comm)
            results = {}

            def program(core):
                cc = comm.attach(core)
                buf = cc.alloc(nbytes)
                if cc.rank == 2:
                    buf.write(payload)
                yield from bcast(cc, 2, buf, nbytes)
                results[cc.rank] = buf.read()

            run_spmd(chip, program, core_ids=list(range(16)))
            outcomes[name] = results

        run("oc", lambda c: OcBcast(c).bcast)
        run("osag", lambda c: OsagBcast(c).bcast)
        run("binomial", lambda c: binomial_bcast)
        run("sag", lambda c: scatter_allgather_bcast)

        for name, results in outcomes.items():
            assert all(v == payload for v in results.values()), name

    def test_exact_mode_agrees_with_batch_mode(self):
        nbytes = 97 * 32
        payload = bytes((7 * i) % 256 for i in range(nbytes))
        latencies = {}

        for mode in (ContentionMode.BATCH, ContentionMode.EXACT):
            chip = SccChip(SccConfig(contention_mode=mode))
            comm = Comm(chip, ranks=list(range(12)))
            oc = OcBcast(comm)
            results = {}

            def program(core):
                cc = comm.attach(core)
                buf = cc.alloc(nbytes)
                if cc.rank == 0:
                    buf.write(payload)
                yield from oc.bcast(cc, 0, buf, nbytes)
                results[cc.rank] = buf.read()

            res = run_spmd(chip, program, core_ids=list(range(12)))
            assert all(v == payload for v in results.values())
            latencies[mode] = res.makespan

        # Same data, similar timing (EXACT adds mild queueing effects).
        ratio = latencies[ContentionMode.EXACT] / latencies[ContentionMode.BATCH]
        assert 0.8 < ratio < 1.4


class TestMixedApplications:
    def test_broadcast_storms_from_every_root(self):
        """48 consecutive broadcasts, one per root, on one engine."""
        chip = SccChip(SccConfig())
        comm = Comm(chip)
        oc = OcBcast(comm)
        failures = []

        def program(core):
            cc = comm.attach(core)
            for root in range(0, 48, 7):
                buf = cc.alloc(64)
                if cc.rank == root:
                    buf.write(bytes([root]) * 64)
                yield from oc.bcast(cc, root, buf, 64)
                if buf.read() != bytes([root]) * 64:
                    failures.append((cc.rank, root))

        run_spmd(chip, program)
        assert not failures


class TestFailureInjection:
    def test_missing_participant_is_detected_as_deadlock(self):
        """If one core never calls the collective, the run must end in a
        diagnosable deadlock, not a hang or silent corruption."""
        chip = SccChip(SccConfig())
        comm = Comm(chip, ranks=list(range(8)))
        oc = OcBcast(comm, OcBcastConfig(k=3))

        def program(core):
            cc = comm.attach(core)
            if cc.rank == 5:
                return  # rank 5 "crashes" before the collective
            buf = cc.alloc(128)
            if cc.rank == 0:
                buf.write(b"x" * 128)
            yield from oc.bcast(cc, 0, buf, 128)

        with pytest.raises(DeadlockError, match="spmd-core"):
            run_spmd(chip, program, core_ids=list(range(8)))

    def test_mismatched_sizes_detected(self):
        """Ranks disagreeing on nbytes corrupts chunk counts: the run
        must fail loudly (deadlock), never silently."""
        chip = SccChip(SccConfig())
        comm = Comm(chip, ranks=list(range(4)))
        oc = OcBcast(comm, OcBcastConfig(k=2, chunk_lines=2))

        def program(core):
            cc = comm.attach(core)
            n = 256 if cc.rank != 3 else 64  # rank 3 expects fewer chunks
            buf = cc.alloc(256)
            if cc.rank == 0:
                buf.write(b"y" * 256)
            yield from oc.bcast(cc, 0, buf, n)

        with pytest.raises(Exception):
            run_spmd(chip, program, core_ids=list(range(4)))


class TestScaledChips:
    @pytest.mark.parametrize("cols,rows", [(2, 2), (8, 8), (12, 4)])
    def test_broadcast_on_other_mesh_sizes(self, cols, rows):
        chip = SccChip(SccConfig(mesh_cols=cols, mesh_rows=rows))
        comm = Comm(chip)
        oc = OcBcast(comm)
        payload = bytes((i * 3) % 256 for i in range(500))
        results = {}

        def program(core):
            cc = comm.attach(core)
            buf = cc.alloc(500)
            if cc.rank == 0:
                buf.write(payload)
            yield from oc.bcast(cc, 0, buf, 500)
            results[cc.rank] = buf.read()

        run_spmd(chip, program)
        assert len(results) == cols * rows * 2
        assert all(v == payload for v in results.values())

    def test_single_tile_chip(self):
        chip = SccChip(SccConfig(mesh_cols=1, mesh_rows=1))
        comm = Comm(chip)
        oc = OcBcast(comm, OcBcastConfig(k=1))
        results = {}

        def program(core):
            cc = comm.attach(core)
            buf = cc.alloc(64)
            if cc.rank == 0:
                buf.write(b"t" * 64)
            yield from oc.bcast(cc, 0, buf, 64)
            results[cc.rank] = buf.read()

        run_spmd(chip, program)
        assert results == {0: b"t" * 64, 1: b"t" * 64}
