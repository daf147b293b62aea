"""MPB synchronization flags: layouts and codecs.

The SCC guarantees read/write atomicity at cache-line (32 B) granularity,
so one cache line per flag needs no locks (paper Section 5.1).  A flag
here carries a :class:`FlagValue` -- a ``(tag, seq)`` pair -- rather than
a bare boolean: monotonically increasing sequence numbers let OC-Bcast's
double buffering and RCCE's send/recv reuse the same flag line across
chunks and invocations without clearing it (clearing would cost an extra
remote put per chunk).

This module only says *where* a flag or slot lives and *how* its bytes
encode a value.  The timed operations on them -- plain and acked writes,
polls, the event-driven waits with their detection-delay cost model and
poll budgets -- are written once, for every transport backend, in
:class:`repro.rcce.endpoint.Endpoint`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..scc.config import CACHE_LINE
from .layout import MpbRegion

if TYPE_CHECKING:  # pragma: no cover
    from ..scc.chip import SccChip

_STRUCT = struct.Struct("<qq")  # tag, seq -- 16 of the 32 flag bytes


@dataclass(frozen=True, order=True)
class FlagValue:
    """The content of a flag line: an opaque tag and a sequence number."""

    tag: int = 0
    seq: int = 0

    def encode(self) -> bytes:
        return _STRUCT.pack(self.tag, self.seq) + b"\x00" * (
            CACHE_LINE - _STRUCT.size
        )

    @classmethod
    def decode(cls, raw: bytes) -> "FlagValue":
        tag, seq = _STRUCT.unpack_from(raw)
        return cls(tag, seq)


ZERO = FlagValue(0, 0)


@dataclass(frozen=True)
class Flag:
    """A symmetric one-cache-line flag: core ``i``'s copy lives at
    ``region.offset`` in core ``i``'s MPB."""

    region: MpbRegion
    name: str = "flag"

    def __post_init__(self) -> None:
        if self.region.nbytes != CACHE_LINE:
            raise ValueError(f"flag must be exactly one cache line, got {self.region.nbytes}")

    @property
    def offset(self) -> int:
        return self.region.offset

    def peek(self, chip: "SccChip", owner_core: int) -> FlagValue:
        """Untimed read of the flag in ``owner_core``'s MPB (for tests)."""
        raw = chip.mpbs[owner_core].read_bytes(self.offset, CACHE_LINE)
        return FlagValue.decode(raw)


class _SlotArray:
    """Layout shared by the per-partner slot arrays: ``nslots`` fixed-width
    slots packed into consecutive cache lines.  The array is symmetric --
    every core's MPB holds its own copy at ``region.offset`` -- and slot
    ``i`` has exactly ONE writer (the partner it is named after), so
    there are no write races and a write touches only its own bytes."""

    SLOT_BYTES: int
    _KIND: str  # "slot" / "vote", for error messages

    def __init__(self, region: MpbRegion, nslots: int, name: str) -> None:
        need = self.lines_needed(nslots)
        if region.lines < need:
            raise ValueError(
                f"{self._KIND} array {name!r} needs {need} lines for {nslots} "
                f"slots, got {region.lines}"
            )
        self.region = region
        self.nslots = nslots
        self.name = name

    @classmethod
    def lines_needed(cls, nslots: int) -> int:
        return -(-nslots * cls.SLOT_BYTES // CACHE_LINE)

    def slot_offset(self, slot: int) -> int:
        if not 0 <= slot < self.nslots:
            raise IndexError(f"slot {slot} outside 0..{self.nslots - 1}")
        return self.region.offset + slot * self.SLOT_BYTES

    def peek(self, chip: "SccChip", owner_core: int, slot: int):
        """Untimed read of one slot of ``owner_core``'s copy."""
        return self.decode(
            chip.mpbs[owner_core].read_bytes(self.slot_offset(slot), self.SLOT_BYTES)
        )


class FlagSlotArray(_SlotArray):
    """Per-partner flag slots packed into few cache lines (RCCE-style).

    Real RCCE keeps one flag per communication partner and bit-packs them
    so 48 partners cost a handful of bytes rather than 48 cache lines; we
    model the same with one little-endian 16-bit sequence counter per
    partner (16 slots per line) -- the single-writer packing is the
    property RCCE's bit-flags rely on.
    """

    SLOT_BYTES = 2
    MAX_SEQ = 0xFFFF
    _KIND = "slot"

    def __init__(self, region: MpbRegion, nslots: int, name: str = "slots") -> None:
        super().__init__(region, nslots, name)

    def encode(self, value: int) -> bytes:
        if not 0 <= value <= self.MAX_SEQ:
            raise ValueError(
                f"slot value {value} exceeds 16-bit sequence space; "
                f"reinitialise the communicator for longer runs"
            )
        return value.to_bytes(self.SLOT_BYTES, "little")

    @staticmethod
    def decode(raw: bytes) -> int:
        return int.from_bytes(raw, "little")


_VOTE = struct.Struct("<II")  # round seq, digest -- 8 of the slot's 8 bytes


class DigestSlotArray(_SlotArray):
    """Per-partner ``(seq, digest)`` vote slots -- the RBC wire format.

    :class:`FlagSlotArray`'s 16-bit slots are too narrow to carry a
    payload digest, so quorum votes get 8-byte slots (4 per cache line):
    a 32-bit round sequence number qualifying the vote and a 32-bit
    digest being voted for.  The single-writer discipline is identical --
    slot ``i`` is written only by member ``i`` -- which is exactly the
    trust base the Byzantine mode leans on: a compromised core can forge
    values *in its own slots* (vote equivocation) but cannot overwrite
    another member's vote.  A voter pushes its vote into every member's
    tally copy.
    """

    SLOT_BYTES = 8
    MAX_SEQ = 0xFFFFFFFF
    _KIND = "vote"

    def __init__(self, region: MpbRegion, nslots: int, name: str = "votes") -> None:
        super().__init__(region, nslots, name)

    def encode(self, seq: int, digest: int) -> bytes:
        if not 0 <= seq <= self.MAX_SEQ:
            raise ValueError(f"vote seq {seq} exceeds 32-bit sequence space")
        if not 0 <= digest <= 0xFFFFFFFF:
            raise ValueError(f"digest {digest:#x} is not a 32-bit value")
        return _VOTE.pack(seq, digest)

    @staticmethod
    def decode(raw: bytes) -> tuple[int, int]:
        return _VOTE.unpack(raw)

    def count(self, raw: bytes, seq: int) -> dict[int, int]:
        """Votes at round ``seq`` in ``raw`` (the bytes of one whole tally
        copy): digest -> number of distinct voters."""
        counts: dict[int, int] = {}
        for got_seq, got_digest in _VOTE.iter_unpack(raw):
            if got_seq == seq:
                counts[got_digest] = counts.get(got_digest, 0) + 1
        return counts
