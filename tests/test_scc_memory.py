"""Tests for private memory, MemRef and the L1 model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scc import L1Cache, SccChip, SccConfig
from repro.scc.memory import MemRef, PrivateMemory


@pytest.fixture()
def mem():
    return PrivateMemory(SccConfig(private_mem_bytes=1 << 20), owner=5)


class TestPrivateMemory:
    def test_alloc_is_cache_line_aligned(self, mem):
        a = mem.alloc(10)
        b = mem.alloc(10)
        assert a.offset % 32 == 0
        assert b.offset % 32 == 0
        assert b.offset >= a.offset + 10

    def test_allocations_do_not_overlap(self, mem):
        refs = [mem.alloc(n) for n in (1, 32, 33, 64, 100)]
        spans = sorted((r.offset, r.offset + r.nbytes) for r in refs)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end

    def test_grows_on_demand(self, mem):
        assert mem.size == 0
        mem.alloc(1000)
        assert mem.size >= 1000

    def test_capacity_enforced(self):
        small = PrivateMemory(SccConfig(private_mem_bytes=128), owner=0)
        small.alloc(96)
        with pytest.raises(MemoryError):
            small.alloc(64)

    def test_negative_alloc_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.alloc(-1)

    def test_reset_releases_space(self):
        small = PrivateMemory(SccConfig(private_mem_bytes=128), owner=0)
        small.alloc(128)
        small.reset()
        small.alloc(128)  # no MemoryError


class TestMemRef:
    def test_write_read_roundtrip(self, mem):
        ref = mem.alloc(100)
        ref.write(bytes(range(100)))
        assert ref.read() == bytes(range(100))

    def test_sub_ref_views_parent(self, mem):
        ref = mem.alloc(100)
        ref.write(bytes(range(100)))
        sub = ref.sub(10, 20)
        assert sub.read() == bytes(range(10, 30))
        sub.write(b"\xff" * 20)
        assert ref.read()[10:30] == b"\xff" * 20

    def test_sub_out_of_range(self, mem):
        ref = mem.alloc(100)
        with pytest.raises(IndexError):
            ref.sub(90, 20)
        with pytest.raises(IndexError):
            ref.sub(-1, 5)

    def test_oversized_write_rejected(self, mem):
        ref = mem.alloc(10)
        with pytest.raises(IndexError):
            ref.write(bytes(11))

    def test_line_addrs_cover_buffer(self, mem):
        ref = mem.alloc(100)  # offset aligned; 100 bytes -> 4 lines
        lines = list(ref.line_addrs())
        assert len(lines) == 4
        assert lines[0] == ref.offset // 32

    def test_empty_ref_has_no_lines(self, mem):
        ref = mem.alloc(0)
        assert list(ref.line_addrs()) == []

    def test_owner_propagates(self, mem):
        assert mem.alloc(8).owner == 5


class TestL1Cache:
    def test_miss_then_hit(self):
        l1 = L1Cache(4)
        assert not l1.access(10)
        assert l1.access(10)
        assert l1.hits == 1 and l1.misses == 1

    def test_lru_eviction(self):
        l1 = L1Cache(2)
        l1.access(1)
        l1.access(2)
        l1.access(3)  # evicts 1
        assert not l1.contains(1)
        assert l1.contains(2) and l1.contains(3)

    def test_access_refreshes_recency(self):
        l1 = L1Cache(2)
        l1.access(1)
        l1.access(2)
        l1.access(1)  # 2 is now LRU
        l1.access(3)
        assert l1.contains(1)
        assert not l1.contains(2)

    def test_invalidate(self):
        l1 = L1Cache(4)
        l1.access(1)
        l1.invalidate()
        assert len(l1) == 0
        assert not l1.contains(1)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            L1Cache(0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=200))
    def test_property_size_bounded_and_recent_present(self, addrs):
        l1 = L1Cache(8)
        for a in addrs:
            l1.access(a)
            assert len(l1) <= 8
        assert l1.contains(addrs[-1])


class TestCoreMemoryOps:
    def test_mem_read_uses_l1_on_reread(self):
        chip = SccChip(SccConfig())
        core = chip.cores[0]
        ref = core.mem.alloc(320)  # 10 lines

        def prog():
            t0 = chip.sim.now
            yield from core.mem_read(ref)
            cold = chip.sim.now - t0
            t0 = chip.sim.now
            yield from core.mem_read(ref)
            warm = chip.sim.now - t0
            return cold, warm

        p = chip.sim.process(prog())
        chip.sim.run()
        cold, warm = p.value
        assert warm < cold / 5  # L1 hits are nearly free

    def test_mem_write_allocates_into_l1(self):
        chip = SccChip(SccConfig())
        core = chip.cores[0]
        ref = core.mem.alloc(320)

        def prog():
            yield from core.mem_write(ref)
            t0 = chip.sim.now
            yield from core.mem_read(ref)
            return chip.sim.now - t0

        p = chip.sim.process(prog())
        chip.sim.run()
        assert p.value == pytest.approx(10 * chip.config.t_l1_hit)

    def test_cross_core_memory_access_rejected(self):
        chip = SccChip(SccConfig())
        ref = chip.cores[1].mem.alloc(32)

        def prog():
            yield from chip.cores[0].mem_read(ref)

        chip.sim.process(prog())
        with pytest.raises(Exception):
            chip.sim.run()
