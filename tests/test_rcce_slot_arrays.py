"""Tests for per-partner flag slot arrays (incl. hypothesis properties)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rcce import Comm
from repro.rcce.flags import FlagSlotArray
from repro.scc import SccChip, SccConfig, run_spmd


def make_array(nslots=48, lines=None):
    chip = SccChip(SccConfig())
    comm = Comm(chip)
    lines = lines if lines is not None else FlagSlotArray.lines_needed(nslots)
    arr = FlagSlotArray(comm.layout.alloc_lines(lines), nslots, name="t")
    return chip, comm, arr


class TestLayout:
    def test_lines_needed(self):
        assert FlagSlotArray.lines_needed(1) == 1
        assert FlagSlotArray.lines_needed(16) == 1
        assert FlagSlotArray.lines_needed(17) == 2
        assert FlagSlotArray.lines_needed(48) == 3

    def test_region_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_array(nslots=48, lines=2)

    def test_slot_bounds(self):
        _, _, arr = make_array(8)
        with pytest.raises(IndexError):
            arr.slot_offset(8)
        with pytest.raises(IndexError):
            arr.slot_offset(-1)

    def test_slots_do_not_overlap(self):
        _, _, arr = make_array(48)
        offsets = [arr.slot_offset(i) for i in range(48)]
        assert len(set(offsets)) == 48
        for a, b in zip(offsets, offsets[1:]):
            assert b - a == FlagSlotArray.SLOT_BYTES


class TestReadWrite:
    def test_write_visible_at_owner_only(self):
        chip, comm, arr = make_array()

        def program(core):
            yield from comm.attach(core).slot_write(arr, 7, slot=3, value=99)

        run_spmd(chip, program, core_ids=[0])
        assert arr.peek(chip, 7, 3) == 99
        assert arr.peek(chip, 7, 2) == 0
        assert arr.peek(chip, 6, 3) == 0

    def test_value_bounds(self):
        chip, comm, arr = make_array()

        def program(core):
            yield from comm.attach(core).slot_write(arr, 1, 0, 0x10000)

        with pytest.raises(Exception) as err:
            run_spmd(chip, program, core_ids=[0])
        assert "16-bit sequence space" in str(err.value.__cause__)

    def test_neighbouring_writers_do_not_clobber(self):
        """Slots sharing one cache line keep independent values -- the
        bit-packed-flags property the two-sided layer relies on."""
        chip, comm, arr = make_array()

        def program(core):
            # Each writer core w writes slot w of core 40's array.
            yield from comm.attach(core).slot_write(arr, 40, core.id, core.id + 1)

        run_spmd(chip, program, core_ids=list(range(16)))  # slots share line 0
        for w in range(16):
            assert arr.peek(chip, 40, w) == w + 1

    def test_wait_at_least_wakes_on_slot_write(self):
        chip, comm, arr = make_array()
        woke = {}

        def waiter(core):
            got = yield from comm.attach(core).slot_wait_at_least(arr, slot=5, value=3)
            woke["value"] = got
            woke["time"] = chip.now

        def setter(core):
            yield core.compute(4.0)
            yield from comm.attach(core).slot_write(arr, 0, 5, 2)  # not enough
            yield core.compute(4.0)
            yield from comm.attach(core).slot_write(arr, 0, 5, 3)  # satisfies

        run_spmd(
            chip,
            lambda c: waiter(c) if c.id == 0 else setter(c),
            core_ids=[0, 1],
        )
        assert woke["value"] >= 3
        assert woke["time"] > 8.0

    def test_wait_tolerates_spurious_same_line_writes(self):
        """A write to a *different* slot of the same line wakes the
        watcher; the waiter must re-check and keep waiting."""
        chip, comm, arr = make_array()
        woke = {}

        def waiter(core):
            yield from comm.attach(core).slot_wait_at_least(arr, slot=0, value=1)
            woke["time"] = chip.now

        def setter(core):
            yield core.compute(2.0)
            yield from comm.attach(core).slot_write(arr, 0, 1, 7)  # same line, wrong slot
            yield core.compute(6.0)
            yield from comm.attach(core).slot_write(arr, 0, 0, 1)

        run_spmd(
            chip,
            lambda c: waiter(c) if c.id == 0 else setter(c),
            core_ids=[0, 1],
        )
        assert woke["time"] > 8.0


@settings(max_examples=30, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 0xFFFF)),
        min_size=1,
        max_size=30,
    )
)
def test_property_slots_hold_last_write(writes):
    chip, comm, arr = make_array(16)

    def program(core):
        for slot, value in writes:
            yield from comm.attach(core).slot_write(arr, 1, slot, value)

    run_spmd(chip, program, core_ids=[0])
    expected = {}
    for slot, value in writes:
        expected[slot] = value
    for slot, value in expected.items():
        assert arr.peek(chip, 1, slot) == value
