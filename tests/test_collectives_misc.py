"""Tests for the two-sided barrier and reduce."""

import numpy as np
import pytest

from repro.collectives import (
    BarrierState,
    ReduceOp,
    binomial_reduce,
    dissemination_barrier,
)
from repro.rcce import Comm
from repro.scc import SccChip, SccConfig, run_spmd


def make_world(P):
    chip = SccChip(SccConfig())
    comm = Comm(chip, ranks=list(range(P)))
    return chip, comm


class TestBarrier:
    @pytest.mark.parametrize("P", [2, 3, 8, 48])
    def test_no_rank_escapes_early(self, P):
        chip, comm = make_world(P)
        state = BarrierState(comm)
        last_arrival = [0.0]
        exits = {}

        def program(core):
            cc = comm.attach(core)
            yield core.compute(float(cc.rank) * 3.0)  # staggered arrivals
            last_arrival[0] = max(last_arrival[0], chip.now)
            yield from dissemination_barrier(cc, state)
            exits[cc.rank] = chip.now

        run_spmd(chip, program, core_ids=list(range(P)))
        assert min(exits.values()) >= last_arrival[0]

    def test_repeated_barriers(self):
        chip, comm = make_world(8)
        state = BarrierState(comm)
        epochs = []

        def program(core):
            cc = comm.attach(core)
            for i in range(3):
                yield core.compute(float((cc.rank * 7 + i) % 5))
                yield from dissemination_barrier(cc, state)
                if cc.rank == 0:
                    epochs.append(chip.now)

        run_spmd(chip, program, core_ids=list(range(8)))
        assert len(epochs) == 3
        assert epochs == sorted(epochs)

    def test_single_rank_barrier_is_noop(self):
        chip, comm = make_world(1)
        state = BarrierState(comm)

        def program(core):
            cc = comm.attach(core)
            yield from dissemination_barrier(cc, state)

        res = run_spmd(chip, program, core_ids=[0])
        assert res.makespan == 0.0


class TestReduce:
    @pytest.mark.parametrize("P", [2, 3, 8, 16])
    def test_sum_reduce(self, P):
        chip, comm = make_world(P)
        op = ReduceOp.sum("<i8")
        n = 16 * 8
        result = {}

        def program(core):
            cc = comm.attach(core)
            send = cc.alloc(n)
            send.write(np.full(16, cc.rank + 1, dtype="<i8").tobytes())
            recv = cc.alloc(n)
            yield from binomial_reduce(cc, 0, send, recv, n, op)
            if cc.rank == 0:
                result["sum"] = np.frombuffer(recv.read(), dtype="<i8")

        run_spmd(chip, program, core_ids=list(range(P)))
        expected = sum(range(1, P + 1))
        assert (result["sum"] == expected).all()

    def test_max_reduce_nonzero_root(self):
        P, root = 7, 3
        chip, comm = make_world(P)
        op = ReduceOp.max("<i4")
        n = 8 * 4
        result = {}

        def program(core):
            cc = comm.attach(core)
            send = cc.alloc(n)
            vals = np.arange(8, dtype="<i4") * (cc.rank + 1)
            send.write(vals.tobytes())
            recv = cc.alloc(n)
            yield from binomial_reduce(cc, root, send, recv, n, op)
            if cc.rank == root:
                result["max"] = np.frombuffer(recv.read(), dtype="<i4")

        run_spmd(chip, program, core_ids=list(range(P)))
        assert (result["max"] == np.arange(8, dtype="<i4") * P).all()

    def test_sendbuf_not_clobbered(self):
        chip, comm = make_world(4)
        op = ReduceOp.sum("<i8")
        kept = {}

        def program(core):
            cc = comm.attach(core)
            send = cc.alloc(32)
            send.write(np.full(4, cc.rank, dtype="<i8").tobytes())
            recv = cc.alloc(32)
            yield from binomial_reduce(cc, 0, send, recv, 32, op)
            kept[cc.rank] = np.frombuffer(send.read(), dtype="<i8")

        run_spmd(chip, program, core_ids=list(range(4)))
        for r, vals in kept.items():
            assert (vals == r).all()

    def test_misaligned_length_rejected(self):
        chip, comm = make_world(2)
        op = ReduceOp.sum("<i8")

        def program(core):
            cc = comm.attach(core)
            send = cc.alloc(33)
            recv = cc.alloc(33)
            yield from binomial_reduce(cc, 0, send, recv, 33, op)

        with pytest.raises(Exception):
            run_spmd(chip, program, core_ids=[0, 1])

    def test_reduce_op_combine_validates_shapes(self):
        op = ReduceOp.sum("<i8")
        with pytest.raises(ValueError):
            op.combine(bytes(16), bytes(8))

    def test_reduce_op_factories(self):
        a = np.array([1, 5], dtype="<i8").tobytes()
        b = np.array([4, 2], dtype="<i8").tobytes()
        assert np.frombuffer(ReduceOp.sum().combine(a, b), "<i8").tolist() == [5, 7]
        assert np.frombuffer(ReduceOp.prod().combine(a, b), "<i8").tolist() == [4, 10]
        assert np.frombuffer(ReduceOp.max().combine(a, b), "<i8").tolist() == [4, 5]
        assert np.frombuffer(ReduceOp.min().combine(a, b), "<i8").tolist() == [1, 2]
