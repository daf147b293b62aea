"""Tests for symmetric MPB allocation."""

import pytest

from repro.rcce import MpbLayout, MpbRegion


def test_alloc_is_sequential_and_line_granular():
    layout = MpbLayout(256)
    a = layout.alloc_lines(10)
    b = layout.alloc_lines(5)
    assert a.offset == 0
    assert a.nbytes == 320
    assert b.offset == 320
    assert layout.free_lines == 241


def test_exhaustion_raises():
    layout = MpbLayout(16)
    layout.alloc_lines(16)
    with pytest.raises(MemoryError):
        layout.alloc_lines(1)


def test_negative_alloc_rejected():
    layout = MpbLayout(16)
    with pytest.raises(ValueError):
        layout.alloc_lines(-1)


def test_zero_alloc_allowed():
    layout = MpbLayout(16)
    r = layout.alloc_lines(0)
    assert r.lines == 0


class TestMpbRegion:
    def test_line_offsets(self):
        r = MpbRegion(64, 128)  # 4 lines starting at byte 64
        assert r.lines == 4
        assert r.line(0) == 64
        assert r.line(3) == 64 + 96
        with pytest.raises(IndexError):
            r.line(4)

    def test_sub_region(self):
        r = MpbRegion(0, 320)
        s = r.sub(2, 3)
        assert s.offset == 64
        assert s.lines == 3
        with pytest.raises(IndexError):
            r.sub(8, 3)
        with pytest.raises(IndexError):
            r.sub(-1, 1)
