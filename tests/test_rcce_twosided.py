"""Tests for RCCE-style blocking send/recv."""

import pytest

from repro.rcce import Comm
from repro.rcce.twosided import RCCE_PAYLOAD_LINES, TwoSidedState
from repro.scc import SccChip, SccConfig, run_spmd


def make_world(**cfg):
    chip = SccChip(SccConfig(**cfg))
    return chip, Comm(chip)


def pair_transfer(chip, comm, nbytes, payload=None, chunks_cfg=None):
    payload = payload if payload is not None else bytes(i % 256 for i in range(nbytes))
    got = {}

    def program(core):
        cc = comm.attach(core)
        if cc.rank == 0:
            src = cc.alloc(nbytes)
            src.write(payload)
            yield from cc.send(1, src, nbytes)
        else:
            dst = cc.alloc(nbytes)
            yield from cc.recv(0, dst, nbytes)
            got["data"] = dst.read()

    run_spmd(chip, program, core_ids=[comm.core_of(0), comm.core_of(1)])
    return payload, got.get("data")


class TestBasicTransfer:
    def test_small_message(self):
        chip, comm = make_world()
        sent, got = pair_transfer(chip, comm, 100)
        assert got == sent

    def test_exact_payload_buffer_size(self):
        chip, comm = make_world()
        n = RCCE_PAYLOAD_LINES * 32
        sent, got = pair_transfer(chip, comm, n)
        assert got == sent

    def test_multi_chunk_message(self):
        chip, comm = make_world()
        n = RCCE_PAYLOAD_LINES * 32 * 3 + 17
        sent, got = pair_transfer(chip, comm, n)
        assert got == sent

    def test_zero_byte_message_synchronises(self):
        chip, comm = make_world()
        times = {}

        def program(core):
            cc = comm.attach(core)
            buf = cc.alloc(0)
            if cc.rank == 0:
                yield core.compute(10.0)
                yield from cc.send(1, buf, 0)
            else:
                yield from cc.recv(0, buf, 0)
                times["recv_done"] = chip.now

        run_spmd(chip, program, core_ids=[0, 1])
        assert times["recv_done"] > 10.0

    def test_back_to_back_messages_reuse_flags(self):
        chip, comm = make_world()
        got = []

        def program(core):
            cc = comm.attach(core)
            for i in range(4):
                buf = cc.alloc(64)
                if cc.rank == 0:
                    buf.write(bytes([i]) * 64)
                    yield from cc.send(1, buf, 64)
                else:
                    yield from cc.recv(0, buf, 64)
                    got.append(buf.read())

        run_spmd(chip, program, core_ids=[0, 1])
        assert got == [bytes([i]) * 64 for i in range(4)]

    def test_bidirectional_pair(self):
        chip, comm = make_world()
        got = {}

        def program(core):
            cc = comm.attach(core)
            mine = cc.alloc(96)
            mine.write(bytes([cc.rank + 1]) * 96)
            theirs = cc.alloc(96)
            other = 1 - cc.rank
            if cc.rank == 0:
                yield from cc.send(other, mine, 96)
                yield from cc.recv(other, theirs, 96)
            else:
                yield from cc.recv(other, mine if False else theirs, 96)
                yield from cc.send(other, mine, 96)
            got[cc.rank] = theirs.read()

        run_spmd(chip, program, core_ids=[0, 1])
        assert got[0] == bytes([2]) * 96
        assert got[1] == bytes([1]) * 96


class TestConcurrentPartners:
    def test_many_concurrent_senders_to_one_receiver(self):
        """Per-partner slots admit any number of in-flight senders (the
        binomial-reduce fan-in that a single shared flag cannot support)."""
        chip, comm = make_world()
        senders = list(range(1, 9))
        got = {}

        def program(core):
            cc = comm.attach(core)
            if cc.rank == 0:
                for s in sorted(senders, reverse=True):  # out of arrival order
                    buf = cc.alloc(64)
                    yield from cc.recv(s, buf, 64)
                    got[s] = buf.read()
            else:
                buf = cc.alloc(64)
                buf.write(bytes([cc.rank]) * 64)
                yield from cc.send(0, buf, 64)

        run_spmd(chip, program, core_ids=[0, *senders])
        assert got == {s: bytes([s]) * 64 for s in senders}

    def test_interleaved_pairs_do_not_interfere(self):
        """Two overlapping transfers through one middle core (the
        scatter/allgather phase-overlap scenario)."""
        chip, comm = make_world()
        got = {}

        def program(core):
            cc = comm.attach(core)
            if cc.rank == 0:
                buf = cc.alloc(64)
                buf.write(b"A" * 64)
                yield core.compute(20.0)  # arrives long after rank 1's send
                yield from cc.send(2, buf, 64)
            elif cc.rank == 1:
                buf = cc.alloc(64)
                buf.write(b"B" * 64)
                yield from cc.send(2, buf, 64)
            else:
                b0 = cc.alloc(64)
                b1 = cc.alloc(64)
                yield from cc.recv(1, b1, 64)
                yield from cc.recv(0, b0, 64)
                got["b0"] = b0.read()
                got["b1"] = b1.read()

        run_spmd(chip, program, core_ids=[0, 1, 2])
        assert got["b0"] == b"A" * 64
        assert got["b1"] == b"B" * 64

    def test_sequence_space_guard(self):
        chip, comm = make_world()
        st = comm.twosided

        def program(core):
            yield from comm.attach(core).slot_write(st.sent, 1, 0, 70000)

        with pytest.raises(Exception) as err:
            run_spmd(chip, program, core_ids=[0])
        assert "16-bit sequence space" in str(err.value.__cause__)


class TestValidation:
    def test_send_to_self_rejected(self):
        chip, comm = make_world()

        def program(core):
            cc = comm.attach(core)
            buf = cc.alloc(32)
            yield from cc.send(0, buf, 32)

        with pytest.raises(Exception):
            run_spmd(chip, program, core_ids=[0])

    def test_state_validation(self):
        chip, comm = make_world()
        with pytest.raises(ValueError):
            TwoSidedState(comm, payload_lines=0)


class TestTiming:
    def test_send_recv_cost_scales_with_levels_not_just_bytes(self):
        """The rendezvous sync cost is visible on tiny messages."""
        chip, comm = make_world()
        t = {}

        def program(core):
            cc = comm.attach(core)
            buf = cc.alloc(32)
            t0 = chip.now
            if cc.rank == 0:
                yield from cc.send(1, buf, 32)
            else:
                yield from cc.recv(0, buf, 32)
            t[cc.rank] = chip.now - t0

        run_spmd(chip, program, core_ids=[0, 1])
        # Far more than the raw 1-line put+get (~1.3us): flags dominate.
        assert t[0] > 1.0
        assert t[1] > 1.0
