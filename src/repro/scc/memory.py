"""Private off-chip memory, bump allocation, and a small L1 model.

Each core owns a private slice of the off-chip DRAM behind its quadrant's
memory controller.  The paper's configuration gives every core its own
memory rank, so DRAM itself is contention-free (Section 3.3 cites [30]);
what we model is the per-cache-line *cost* of reaching it (Formulas 4-6)
and the P54C L1, whose hits make re-reads nearly free -- the effect the
paper folds into Formula 14 ("we approximate reading from the L1 cache
with zero cost").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .config import CACHE_LINE, SccConfig


class _Run:
    """Resident lines ``[start, stop)`` whose recency order is their
    address order (``start`` least recent), one link of the LRU ring."""

    __slots__ = ("start", "stop", "prev", "next")

    def __init__(
        self, start: int, stop: int, prev: "_Run | None", next: "_Run | None"
    ) -> None:
        self.start = start
        self.stop = stop
        self.prev = prev or self
        self.next = next or self


#: Resident ``[start, stop)`` line runs, least recently used first.
Spans = tuple[tuple[int, int], ...]


class L1Cache:
    """Presence-only LRU cache model at cache-line granularity, held as
    runs of consecutive lines.

    We track only which line addresses are resident; data always lives in
    the backing :class:`PrivateMemory` (conceptually write-through, which
    matches the model's choice to keep ``o_mem_w`` on every write).

    Transfers stream contiguous buffers, so the resident set is a handful
    of address runs, not hundreds of unrelated lines.  It is kept as a
    ring of :class:`_Run` in recency order (a run's own lines are in
    address order) plus the runs sorted by start address, and
    :meth:`touch` moves a whole range through it in O(runs touched)
    steps of O(log runs) each.  Hits, misses, evictions and the LRU
    order are exactly those of touching the lines one by one.
    """

    def __init__(self, capacity_lines: int) -> None:
        if capacity_lines < 1:
            raise ValueError("L1 capacity must be >= 1 line")
        self.capacity = capacity_lines
        self.hits = 0
        self.misses = 0
        self._size = 0
        #: Ring sentinel: ``_root.next`` is the LRU run, ``_root.prev``
        #: the MRU run, the sentinel itself (empty) when nothing is resident.
        self._root = _Run(0, 0, None, None)
        #: The runs by ascending start address, and those starts.
        self._runs: list[_Run] = []
        self._starts: list[int] = []

    def access(self, line_addr: int) -> bool:
        """Touch one line; returns True on hit.  Misses allocate (LRU)."""
        return self.touch(range(line_addr, line_addr + 1))[0][0]

    def touch(self, lines: range) -> list[tuple[bool, int]]:
        """Touch ``lines`` (consecutive addresses) in order, as
        :meth:`access` on each would; returns the outcome as ordered
        ``(hit, count)`` segments covering the range."""
        if lines.step != 1:
            raise ValueError(f"L1 ranges must be consecutive lines, got {lines!r}")
        p, stop = lines.start, lines.stop
        root, runs, starts = self._root, self._runs, self._starts
        segments: list[tuple[bool, int]] = []
        while p < stop:
            i = bisect_right(starts, p)  # runs[:i] start at or before p
            hit = i > 0 and p < runs[i - 1].stop
            if hit:
                run = runs[i - 1]
                end = run.stop if run.stop < stop else stop
                # The tail of the MRU run is already where it belongs.
                if run is not root.prev or end != run.stop:
                    self._append(self._remove(i - 1, run, p, end), p, end)
                self.hits += end - p
            else:
                # Misses up to the next resident line, and no further than
                # the LRU run can pay for in evictions: what they evict may
                # lie ahead in ``lines``, so the next step looks again.
                end = starts[i] if i < len(starts) and starts[i] < stop else stop
                over = self._size + end - p - self.capacity
                if over > 0:
                    lru = root.next
                    evictable = lru.stop - lru.start
                    if over > evictable:
                        end -= over - evictable
                        over = evictable
                self._append(i, p, end)
                if over > 0:
                    self._remove(
                        bisect_left(starts, lru.start), lru, lru.start, lru.start + over
                    )
                self.misses += end - p
            if segments and segments[-1][0] == hit:
                segments[-1] = (hit, segments[-1][1] + end - p)
            else:
                segments.append((hit, end - p))
            p = end
        return segments

    def _append(self, i: int, start: int, stop: int) -> None:
        """Make the non-resident lines ``[start, stop)`` the most recent;
        ``i`` is where a run starting at ``start`` sorts among the runs."""
        self._size += stop - start
        root = self._root
        mru = root.prev
        if mru.stop == start and mru is not root:
            mru.stop = stop
            return
        mru.next = root.prev = run = _Run(start, stop, mru, root)
        self._starts.insert(i, start)
        self._runs.insert(i, run)

    def _remove(self, i: int, run: _Run, start: int, stop: int) -> int:
        """Drop ``[start, stop)``, part of ``run == self._runs[i]``; what
        is left of the run keeps its place in the recency order.  Returns
        where a run starting at ``start`` now sorts among the runs."""
        self._size -= stop - start
        if start == run.start:
            if stop == run.stop:
                run.prev.next, run.next.prev = run.next, run.prev
                del self._starts[i]
                del self._runs[i]
            else:
                run.start = self._starts[i] = stop
            return i
        if stop < run.stop:
            run.next.prev = run.next = upper = _Run(stop, run.stop, run, run.next)
            self._starts.insert(i + 1, stop)
            self._runs.insert(i + 1, upper)
        run.stop = start
        return i + 1

    def contains(self, line_addr: int) -> bool:
        i = bisect_right(self._starts, line_addr) - 1
        return i >= 0 and line_addr < self._runs[i].stop

    def invalidate(self) -> None:
        self._size = 0
        self._root.prev = self._root.next = self._root
        self._runs.clear()
        self._starts.clear()

    def resident_runs(self) -> Spans:
        """The resident ``[start, stop)`` runs, LRU first."""
        spans = []
        run = self._root.next
        while run is not self._root:
            spans.append((run.start, run.stop))
            run = run.next
        return tuple(spans)

    def resident_lines(self) -> list[int]:
        """Every resident line address, LRU first."""
        return [line for span in self.resident_runs() for line in range(*span)]

    def __len__(self) -> int:
        return self._size


class MemRef:
    """A handle to a contiguous buffer in one core's private memory.

    Programs pass ``MemRef``s to put/get; slicing (:meth:`sub`) lets
    algorithms address chunks without arithmetic on raw offsets.
    """

    __slots__ = ("memory", "offset", "nbytes", "_lines")

    def __init__(self, memory: "PrivateMemory", offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > memory.size:
            raise IndexError(
                f"MemRef [{offset}, {offset + nbytes}) outside memory of core "
                f"{memory.owner} (size {memory.size})"
            )
        self.memory = memory
        self.offset = offset
        self.nbytes = nbytes
        self._lines: range | None = None

    @property
    def owner(self) -> int:
        return self.memory.owner

    def sub(self, offset: int, nbytes: int) -> "MemRef":
        """A sub-buffer at ``offset`` within this buffer."""
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise IndexError(
                f"sub-ref [{offset}, {offset + nbytes}) outside buffer of "
                f"{self.nbytes} bytes"
            )
        return MemRef(self.memory, self.offset + offset, nbytes)

    def read(self) -> bytes:
        return self.memory.read_bytes(self.offset, self.nbytes)

    def write(self, payload: bytes | bytearray | memoryview) -> None:
        if len(payload) > self.nbytes:
            raise IndexError(
                f"payload of {len(payload)} bytes exceeds buffer of {self.nbytes}"
            )
        self.memory.write_bytes(self.offset, payload)

    def line_addrs(self) -> range:
        """Cache-line addresses covered by this buffer (cached: the span
        is immutable)."""
        lines = self._lines
        if lines is None:
            first = self.offset // CACHE_LINE
            last = (self.offset + self.nbytes - 1) // CACHE_LINE if self.nbytes else first - 1
            lines = self._lines = range(first, last + 1)
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MemRef core{self.owner} [{self.offset}:{self.offset + self.nbytes}]>"


class PrivateMemory:
    """One core's private off-chip memory with a bump allocator."""

    def __init__(self, config: SccConfig, owner: int) -> None:
        self.config = config
        self.owner = owner
        self.data = bytearray()  # grows on demand up to the configured cap
        self._next = 0

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def capacity(self) -> int:
        return self.config.private_mem_bytes

    def alloc(self, nbytes: int, align: int = CACHE_LINE) -> MemRef:
        """Allocate a cache-line-aligned buffer; grows the backing store on
        demand up to ``config.private_mem_bytes``."""
        if nbytes < 0:
            raise ValueError("allocation size must be >= 0")
        start = -(-self._next // align) * align
        end = start + nbytes
        if end > self.capacity:
            raise MemoryError(
                f"core {self.owner}: allocation of {nbytes} bytes exceeds the "
                f"{self.capacity}-byte private memory"
            )
        if end > len(self.data):
            self.data.extend(bytearray(end - len(self.data)))
        self._next = end
        return MemRef(self, start, nbytes)

    def reset(self) -> None:
        """Release all allocations (buffers become dangling)."""
        self._next = 0

    def read_bytes(self, offset: int, nbytes: int) -> bytes:
        return bytes(self.data[offset : offset + nbytes])

    def write_bytes(self, offset: int, payload: bytes | bytearray | memoryview) -> None:
        self.data[offset : offset + nbytes_of(payload)] = payload


def nbytes_of(payload: bytes | bytearray | memoryview) -> int:
    return len(payload)
