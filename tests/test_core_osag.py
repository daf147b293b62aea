"""Tests for the one-sided scatter-allgather broadcast (Section 5.4)."""

import pytest

from repro.core import OsagBcast
from repro.rcce import Comm
from repro.scc import SccChip, SccConfig, run_spmd


def osag_roundtrip(P, nbytes, root=0, repeats=1, slice_lines=48, **cfg):
    chip = SccChip(SccConfig(**cfg))
    comm = Comm(chip, ranks=list(range(P)))
    osag = OsagBcast(comm, slice_lines=slice_lines)
    payloads = [
        bytes((i * 17 + rep + root) % 256 for i in range(nbytes))
        for rep in range(repeats)
    ]
    results = {rep: {} for rep in range(repeats)}

    def program(core):
        cc = comm.attach(core)
        for rep in range(repeats):
            buf = cc.alloc(nbytes)
            if cc.rank == root:
                buf.write(payloads[rep])
            yield from osag.bcast(cc, root, buf, nbytes)
            results[rep][cc.rank] = buf.read()

    res = run_spmd(chip, program, core_ids=list(range(P)))
    return payloads, results, res


class TestCorrectness:
    @pytest.mark.parametrize("P", [2, 3, 4, 5, 8, 16, 48])
    def test_rank_counts(self, P):
        sent, got, _ = osag_roundtrip(P, 777)
        assert all(got[0][r] == sent[0] for r in range(P))

    @pytest.mark.parametrize("root", [0, 3, 7])
    def test_roots(self, root):
        sent, got, _ = osag_roundtrip(8, 500, root=root)
        assert all(got[0][r] == sent[0] for r in range(8))

    def test_message_smaller_than_rank_count(self):
        sent, got, _ = osag_roundtrip(16, 5)
        assert all(got[0][r] == sent[0] for r in range(16))

    def test_single_byte(self):
        sent, got, _ = osag_roundtrip(8, 1)
        assert all(got[0][r] == sent[0] for r in range(8))

    def test_multi_segment_message(self):
        # > P * slice_lines * 32 bytes forces several segments.
        P, slice_lines = 8, 4
        nbytes = P * slice_lines * 32 * 3 + 57
        sent, got, _ = osag_roundtrip(P, nbytes, slice_lines=slice_lines)
        assert all(got[0][r] == sent[0] for r in range(P))

    def test_repeated_broadcasts(self):
        sent, got, _ = osag_roundtrip(8, 1200, repeats=3)
        for rep in range(3):
            assert all(got[rep][r] == sent[rep] for r in range(8))

    def test_repeated_with_changing_roots(self):
        chip = SccChip(SccConfig())
        comm = Comm(chip, ranks=list(range(8)))
        osag = OsagBcast(comm)
        outs = []

        def program(core):
            cc = comm.attach(core)
            for root in (0, 5, 2):
                buf = cc.alloc(300)
                if cc.rank == root:
                    buf.write(bytes([root + 1]) * 300)
                yield from osag.bcast(cc, root, buf, 300)
                if cc.rank == (root + 3) % 8:
                    outs.append(buf.read()[:1])

        run_spmd(chip, program, core_ids=list(range(8)))
        assert outs == [bytes([1]), bytes([6]), bytes([3])]

    def test_zero_bytes_noop(self):
        _, _, res = osag_roundtrip(8, 300)  # engine warm
        chip = SccChip(SccConfig())
        comm = Comm(chip, ranks=list(range(8)))
        osag = OsagBcast(comm)

        def program(core):
            cc = comm.attach(core)
            buf = cc.alloc(0)
            yield from osag.bcast(cc, 0, buf, 0)

        assert run_spmd(chip, program, core_ids=list(range(8))).makespan == 0.0


class TestPerformance:
    def test_beats_two_sided_scatter_allgather(self):
        """The point of Section 5.4's suggestion: lifting the allgather
        ring onto one-sided MPB forwarding removes off-chip round trips."""
        from repro.bench import BcastSpec, run_broadcast

        nbytes = 2048 * 32
        two_sided = run_broadcast(
            BcastSpec("scatter_allgather"), nbytes, iters=2, warmup=1
        )
        chip = SccChip(SccConfig())
        comm = Comm(chip)
        osag = OsagBcast(comm)
        payload = bytes(i % 256 for i in range(nbytes))
        lat = {}

        def program(core):
            cc = comm.attach(core)
            for i in range(3):
                buf = cc.alloc(nbytes)
                if cc.rank == 0:
                    buf.write(payload)
                t0 = chip.now
                yield from osag.bcast(cc, 0, buf, nbytes)
                lat.setdefault(i, {})[cc.rank] = chip.now - t0
                assert buf.read() == payload

        run_spmd(chip, program)
        osag_latency = max(lat[2].values())
        assert osag_latency < two_sided.mean_latency

    def test_validation(self):
        chip = SccChip(SccConfig())
        comm = Comm(chip)
        with pytest.raises(ValueError):
            OsagBcast(comm, slice_lines=0)
        comm2 = Comm(chip)
        with pytest.raises(MemoryError):
            OsagBcast(comm2, slice_lines=200)
        comm3 = Comm(chip)
        osag = OsagBcast(comm3)

        def bad_root(core):
            cc = comm3.attach(core)
            buf = cc.alloc(32)
            yield from osag.bcast(cc, 99, buf, 32)

        with pytest.raises(Exception):
            run_spmd(chip, bad_root, core_ids=[0])
