"""The per-line L1 model, kept as the oracle for :class:`repro.scc.L1Cache`.

This is the ``OrderedDict`` implementation that lived in
``repro.scc.memory`` before the resident set became run-length: one
entry per cache line, one insert and at most one eviction per access.
``tests/test_l1_runlength.py`` drives both side by side.
"""

from __future__ import annotations

from collections import OrderedDict


class L1Cache:
    """Presence-only LRU cache model at cache-line granularity.

    We track only which line addresses are resident; data always lives in
    the backing :class:`PrivateMemory` (conceptually write-through, which
    matches the model's choice to keep ``o_mem_w`` on every write).
    """

    def __init__(self, capacity_lines: int) -> None:
        if capacity_lines < 1:
            raise ValueError("L1 capacity must be >= 1 line")
        self.capacity = capacity_lines
        self._lines: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, line_addr: int) -> bool:
        """Touch one line; returns True on hit.  Misses allocate (LRU)."""
        if line_addr in self._lines:
            self._lines.move_to_end(line_addr)
            self.hits += 1
            return True
        self.misses += 1
        self._lines[line_addr] = None
        if len(self._lines) > self.capacity:
            self._lines.popitem(last=False)
        return False

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._lines

    def invalidate(self) -> None:
        self._lines.clear()

    def __len__(self) -> int:
        return len(self._lines)
