"""Symmetric MPB space allocation.

Like RCCE's ``RCCE_malloc``, allocation is *symmetric*: one allocation
reserves the same offset range in every participating core's MPB, so a
core can address a peer's buffer with its own offsets.  The allocator is
owned by the :class:`~repro.rcce.comm.Comm` world; every algorithm layered
on a world allocates from the same line pool and gets non-overlapping
regions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..scc.config import CACHE_LINE


@dataclass(frozen=True)
class MpbRegion:
    """A symmetric region: the same [offset, offset+nbytes) in every MPB."""

    offset: int
    nbytes: int

    @property
    def lines(self) -> int:
        return self.nbytes // CACHE_LINE

    def line(self, i: int) -> int:
        """Byte offset of the i-th cache line of the region."""
        if not 0 <= i < self.lines:
            raise IndexError(f"line {i} outside region of {self.lines} lines")
        return self.offset + i * CACHE_LINE

    def sub(self, line_offset: int, lines: int) -> "MpbRegion":
        """A sub-region given in cache lines."""
        if line_offset < 0 or lines < 0 or (line_offset + lines) > self.lines:
            raise IndexError(
                f"sub-region [{line_offset}, {line_offset + lines}) outside "
                f"region of {self.lines} lines"
            )
        return MpbRegion(self.offset + line_offset * CACHE_LINE, lines * CACHE_LINE)


class MpbLayout:
    """Line-granular symmetric bump allocator over the per-core MPB."""

    def __init__(self, mpb_lines: int) -> None:
        self.mpb_lines = mpb_lines
        self._next_line = 0

    @property
    def free_lines(self) -> int:
        return self.mpb_lines - self._next_line

    def alloc_lines(self, lines: int) -> MpbRegion:
        """Reserve ``lines`` cache lines symmetrically in every MPB."""
        if lines < 0:
            raise ValueError("allocation must be >= 0 lines")
        if self._next_line + lines > self.mpb_lines:
            raise MemoryError(
                f"MPB layout exhausted: requested {lines} lines, "
                f"{self.free_lines} of {self.mpb_lines} free"
            )
        region = MpbRegion(self._next_line * CACHE_LINE, lines * CACHE_LINE)
        self._next_line += lines
        return region
