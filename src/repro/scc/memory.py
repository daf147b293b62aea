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

from collections import OrderedDict

from .config import CACHE_LINE, SccConfig


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

    def snapshot(self) -> tuple[OrderedDict[int, None], int, int]:
        """The full state (resident lines in LRU order, counters), for
        :meth:`restore` to roll speculative accesses back."""
        return self._lines.copy(), self.hits, self.misses

    def restore(self, snap: tuple[OrderedDict[int, None], int, int]) -> None:
        self._lines, self.hits, self.misses = snap

    def __len__(self) -> int:
        return len(self._lines)


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
