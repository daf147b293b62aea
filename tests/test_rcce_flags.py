"""Tests for MPB flags: encoding, atomic set, polling waits."""

import pytest

from repro.rcce import Comm
from repro.rcce.flags import Flag, FlagValue
from repro.rcce.layout import MpbRegion
from repro.scc import SccChip, SccConfig, run_spmd


@pytest.fixture()
def world():
    chip = SccChip(SccConfig())
    return chip, Comm(chip)


def poke(flag, chip, core, value):
    """Untimed write of ``value`` into ``core``'s copy of ``flag``."""
    chip.mpbs[core].write_bytes(flag.offset, value.encode())


class TestFlagValue:
    def test_encode_decode_roundtrip(self):
        v = FlagValue(tag=12345, seq=-7)
        assert FlagValue.decode(v.encode()) == v

    def test_encoding_is_one_cache_line(self):
        assert len(FlagValue(1, 2).encode()) == 32

    def test_large_sequence_numbers(self):
        v = FlagValue(tag=2**40, seq=2**50)
        assert FlagValue.decode(v.encode()) == v

    def test_ordering(self):
        assert FlagValue(0, 1) < FlagValue(0, 2) < FlagValue(1, 0)


class TestFlag:
    def test_flag_must_be_one_line(self):
        with pytest.raises(ValueError):
            Flag(MpbRegion(0, 64))

    def test_peek_poke(self, world):
        chip, comm = world
        f = comm.flag("t")
        poke(f, chip, 3, FlagValue(9, 9))
        assert f.peek(chip, 3) == FlagValue(9, 9)
        assert f.peek(chip, 4) == FlagValue(0, 0)  # other core untouched


class TestFlagOps:
    def test_flag_set_visible_at_owner(self, world):
        chip, comm = world
        f = comm.flag("t")

        def setter(core):
            cc = comm.attach(core)
            yield from cc.flag_set(5, f, FlagValue(core.id, 42))

        run_spmd(chip, setter, core_ids=[0])
        assert f.peek(chip, 5) == FlagValue(0, 42)

    def test_flag_set_takes_time(self, world):
        chip, comm = world
        f = comm.flag("t")

        def setter(core):
            cc = comm.attach(core)
            yield from cc.flag_set(5, f, FlagValue(0, 1))

        res = run_spmd(chip, setter, core_ids=[0])
        cfg = chip.config
        d = chip.mesh.core_distance(0, 5)
        expected = cfg.o_put_mpb + cfg.o_mpb + 2 * d * cfg.l_hop
        assert res.makespan == pytest.approx(expected)

    def test_wait_returns_immediately_if_already_set(self, world):
        chip, comm = world
        f = comm.flag("t")
        poke(f, chip, 0, FlagValue(1, 5))

        def waiter(core):
            cc = comm.attach(core)
            yield from cc.wait_flags([f], lambda v: v[0].seq >= 5)

        res = run_spmd(chip, waiter, core_ids=[0])
        # Only the entry poll cost, no watcher sleep.
        assert res.makespan == pytest.approx(chip.config.t_poll)

    def test_wait_wakes_on_remote_set(self, world):
        chip, comm = world
        f = comm.flag("t")
        wake_time = []

        def waiter(core):
            cc = comm.attach(core)
            yield from cc.wait_flags([f], lambda v: v[0].seq >= 1)
            wake_time.append(chip.now)

        def setter(core):
            cc = comm.attach(core)
            yield core.compute(10.0)
            yield from cc.flag_set(0, f, FlagValue(7, 1))

        run_spmd(chip, lambda c: waiter(c) if c.id == 0 else setter(c), core_ids=[0, 1])
        assert wake_time[0] > 10.0
        # Detection delay is bounded by 1.5 sweeps of a single flag + write.
        assert wake_time[0] < 12.0

    def test_wait_multiple_flags_all_predicate(self, world):
        chip, comm = world
        flags = [comm.flag(f"t{i}") for i in range(3)]
        done = []

        def waiter(core):
            cc = comm.attach(core)
            yield from cc.wait_flags(flags, lambda vs: all(v.seq >= 1 for v in vs))
            done.append(chip.now)

        def setter(core):
            cc = comm.attach(core)
            for i, f in enumerate(flags):
                yield core.compute(5.0)
                yield from cc.flag_set(0, f, FlagValue(0, 1))

        run_spmd(chip, lambda c: waiter(c) if c.id == 0 else setter(c), core_ids=[0, 1])
        assert done[0] > 15.0  # needs the third set at t=15+

    def test_wait_flag_equals_exact_match(self, world):
        chip, comm = world
        f = comm.flag("t")
        order = []

        def waiter(core):
            cc = comm.attach(core)
            yield from cc.wait_flag_equals(f, FlagValue(2, 2))
            order.append("woke")

        def setter(core):
            cc = comm.attach(core)
            yield from cc.flag_set(0, f, FlagValue(2, 1))  # not a match
            yield core.compute(5.0)
            yield from cc.flag_set(0, f, FlagValue(2, 2))  # match

        run_spmd(chip, lambda c: waiter(c) if c.id == 0 else setter(c), core_ids=[0, 2])
        assert order == ["woke"]

    def test_detection_delay_scales_with_sweep_size(self, world):
        chip, comm = world
        f1 = comm.flag("a")
        fmany = [comm.flag(f"b{i}") for i in range(40)]
        wakes = {}

        def waiter_small(core):
            cc = comm.attach(core)
            yield from cc.wait_flags([f1], lambda v: v[0].seq >= 1)
            wakes["small"] = chip.now

        def waiter_large(core):
            cc = comm.attach(core)
            yield from cc.wait_flags(
                [fmany[0]], lambda v: v[0].seq >= 1, sweep_flags=40
            )
            wakes["large"] = chip.now

        def setter(core):
            cc = comm.attach(core)
            yield core.compute(10.0)
            yield from cc.flag_set(0, f1, FlagValue(0, 1))
            yield from cc.flag_set(1, fmany[0], FlagValue(0, 1))

        def program(core):
            if core.id == 0:
                yield from waiter_small(core)
            elif core.id == 1:
                yield from waiter_large(core)
            else:
                yield from setter(core)

        run_spmd(chip, program, core_ids=[0, 1, 2])
        # The 40-flag sweep adds ~0.5*40*t_poll of detection delay.
        assert wakes["large"] - wakes["small"] > 15 * chip.config.t_poll

    def test_flag_poll_reads_current_value(self, world):
        chip, comm = world
        f = comm.flag("t")
        poke(f, chip, 0, FlagValue(3, 4))

        def prog(core):
            cc = comm.attach(core)
            v = yield from cc.flag_poll(f)
            return v

        res = run_spmd(chip, prog, core_ids=[0])
        assert res.values[0] == FlagValue(3, 4)

    def test_empty_flag_list_returns_immediately(self, world):
        chip, comm = world

        def prog(core):
            cc = comm.attach(core)
            out = yield from cc.wait_flags([], lambda vs: True)
            return out

        res = run_spmd(chip, prog, core_ids=[0])
        assert res.values[0] == []
        assert res.makespan == 0.0
