"""Differential tests: the run-length ``L1Cache`` against the per-line
``OrderedDict`` model it replaced (``tests/reference_l1.py``).

The run-length cache is a change of representation, not of model: after
any interleaving of point accesses, range touches and invalidations, its counters, size, membership and full LRU order
must equal the per-line model's.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
import pytest

from repro.scc import L1Cache

from .reference_l1 import L1Cache as ReferenceL1Cache

#: Line addresses the state machine draws from: wide enough that ranges
#: overlap, abut and miss each other at every capacity 1..64.
UNIVERSE = 160

lines_st = st.integers(0, UNIVERSE - 1)


class _Pair:
    """Both models, driven in lock step."""

    def __init__(self, capacity: int) -> None:
        self.new = L1Cache(capacity)
        self.ref = ReferenceL1Cache(capacity)

    def access(self, line: int) -> None:
        assert self.new.access(line) == self.ref.access(line)

    def touch(self, lines: range) -> None:
        segments = self.new.touch(lines)
        assert all(count > 0 for _, count in segments)
        assert all(a[0] != b[0] for a, b in zip(segments, segments[1:]))
        outcomes = [hit for hit, count in segments for _ in range(count)]
        assert outcomes == [self.ref.access(line) for line in lines]

    def check(self) -> None:
        new, ref = self.new, self.ref
        assert (new.hits, new.misses, len(new)) == (ref.hits, ref.misses, len(ref))
        order = list(ref._lines)
        assert new.resident_lines() == order
        spans = new.resident_runs()
        assert [ln for s, e in spans for ln in range(s, e)] == order
        assert all(s < e for s, e in spans)
        lo = min(order, default=0) - 2
        hi = max(order, default=0) + 3
        for line in range(lo, hi):
            assert new.contains(line) == ref.contains(line)


class L1Differential(RuleBasedStateMachine):
    @initialize(capacity=st.integers(1, 64))
    def build(self, capacity):
        self.pair = _Pair(capacity)

    @rule(line=lines_st)
    def access(self, line):
        self.pair.access(line)

    @rule(start=lines_st, length=st.integers(0, 100))
    def touch(self, start, length):
        self.pair.touch(range(start, start + length))

    @rule(line=lines_st)
    def retouch_around(self, line):
        """Ranges anchored on resident lines: overlap is the hard part,
        and uniformly drawn ranges rarely land on a run's exact edge."""
        order = self.pair.new.resident_lines()
        anchor = order[line % len(order)] if order else line
        self.pair.touch(range(max(0, anchor - line % 5), anchor + line % 7))

    @rule(length=st.integers(1, 100))
    def stream_on(self, length):
        """Carry on right after the MRU run, as the next chunk of a
        streamed buffer does."""
        spans = self.pair.new.resident_runs()
        start = spans[-1][1] if spans else 0
        self.pair.touch(range(start, start + length))

    @rule()
    def invalidate(self):
        self.pair.new.invalidate()
        self.pair.ref.invalidate()

    @invariant()
    def models_agree(self):
        if hasattr(self, "pair"):
            self.pair.check()


TestL1Differential = L1Differential.TestCase
TestL1Differential.settings = settings(
    max_examples=250, stateful_step_count=40, deadline=None
)


@pytest.fixture(params=[1, 2, 3, 8, 64])
def pair(request):
    return _Pair(request.param)


def _touch_all(pair, *ranges):
    for lines in ranges:
        pair.touch(lines)
        pair.check()


class TestDirectedRanges:
    def test_range_longer_than_capacity(self, pair):
        cap = pair.new.capacity
        _touch_all(pair, range(10, 10 + 3 * cap + 1))
        assert pair.new.resident_runs() == ((10 + 2 * cap + 1, 10 + 3 * cap + 1),)
        assert pair.new.hits == 0 and pair.new.misses == 3 * cap + 1

    def test_range_evicts_its_own_head(self, pair):
        cap = pair.new.capacity
        # A resident run ahead of the range is evicted by the range's own
        # misses before the range reaches it ...
        _touch_all(pair, range(cap + 5, 2 * cap + 5), range(0, 2 * cap + 5))
        assert pair.new.hits == 0
        # ... and a second pass over a range one line too long never hits.
        _touch_all(pair, range(0, cap + 1), range(0, cap + 1))
        assert pair.new.hits == 0

    @pytest.mark.parametrize("where", ["head", "middle", "tail", "cover"])
    def test_range_overlapping_a_resident_run(self, pair, where):
        overlap = {
            "head": range(15, 25),
            "middle": range(22, 26),
            "tail": range(25, 40),
            "cover": range(15, 40),
        }[where]
        # Resident: an older run, the overlapped run, a newer run.
        _touch_all(pair, range(0, 4), range(20, 30), range(50, 53), overlap)

    def test_retouch_of_the_mru_run(self, pair):
        _touch_all(pair, range(0, 3), range(10, 18))
        before = pair.new.resident_runs()
        _touch_all(pair, range(10, 18), range(14, 18), range(17, 18))
        if pair.new.capacity >= 11:
            assert pair.new.resident_runs() == before
        _touch_all(pair, range(10, 14), range(12, 13))

    def test_stride_two_fragmentation_and_back(self, pair):
        cap = pair.new.capacity
        for line in range(0, 2 * cap, 2):
            pair.access(line)
        pair.check()
        assert pair.new.resident_runs() == tuple(
            (line, line + 1) for line in range(0, 2 * cap, 2)
        )
        # Re-touch every other single-line run, then sweep the whole span.
        for line in range(0, 2 * cap, 4):
            pair.access(line)
        pair.check()
        _touch_all(pair, range(0, 2 * cap))
        assert len(pair.new.resident_runs()) == 1

    def test_empty_and_strided_ranges(self, pair):
        assert pair.new.touch(range(5, 5)) == []
        assert pair.new.touch(range(9, 3)) == []
        pair.check()
        with pytest.raises(ValueError):
            pair.new.touch(range(0, 10, 2))
