"""The membership service's decisions, as pure functions of values.

The recovery generators (:mod:`.heartbeat`, :mod:`.election`,
:mod:`.service`) only wait, write, trace and count; every choice they
make between two waits is made here, so it can be checked over its
whole input space without running a world (``tests/test_decision_core.py``):

- the **heartbeat slot codec**: a member reports ``2 * round + ok``; a
  collector reads a slot at or past the round's floor ``2 * round`` as
  an answer and its low bit as the delivered vote; the slot of a member
  one round behind sits at the lag floor ``2 * round - 2``;
- the **completion rule**: what a coordinator decides about the
  in-flight message once it knows who answered (:func:`complete`);
- **ranked succession**: who runs in an election and who outranks whom
  (:func:`succession`, :func:`lowest_claimant`);
- the **source pick** of each broadcast attempt (:func:`pick_source`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Iterable

#: Completion-directive codes (what the coordinator decided about the
#: message that was in flight when the view changed).
DIRECTIVE_NONE = 0
DIRECTIVE_REBROADCAST = 1
DIRECTIVE_ABORT = 2

_DIRECTIVE = struct.Struct("<BBH")  # code, source, round


@dataclass(frozen=True)
class CompletionDirective:
    """The coordinator's verdict on the in-flight message, piggybacked
    on the view install: re-broadcast from a fully-delivered survivor
    (``DIRECTIVE_REBROADCAST``, ``source`` holds the payload) or
    uniformly abort (``DIRECTIVE_ABORT``).  ``round_no`` stamps the
    recovery round the verdict belongs to -- a member only applies a
    directive for the round it is currently recovering."""

    code: int
    source: int
    round_no: int

    def __post_init__(self) -> None:
        if self.code not in (DIRECTIVE_NONE, DIRECTIVE_REBROADCAST, DIRECTIVE_ABORT):
            raise ValueError(f"unknown directive code {self.code}")
        if not 0 <= self.source < 256:  # one byte on the wire
            raise ValueError(f"directive source {self.source} out of range")
        if self.round_no < 0:
            raise ValueError("directive round must be >= 0")

    def encode(self) -> bytes:
        return _DIRECTIVE.pack(self.code, self.source, self.round_no)

    @classmethod
    def decode(cls, raw: bytes) -> "CompletionDirective":
        return cls(*_DIRECTIVE.unpack_from(raw))


NO_DIRECTIVE = CompletionDirective(DIRECTIVE_NONE, 0, 0)
DIRECTIVE_SIZE = _DIRECTIVE.size


# -- the heartbeat slot codec -------------------------------------------------


def hb_value(round_no: int, ok: bool) -> int:
    """The slot value a member reports for ``round_no``."""
    return 2 * round_no + (1 if ok else 0)


def hb_floor(round_no: int) -> int:
    """The least slot value that answers ``round_no``."""
    return 2 * round_no


def hb_lag_floor(round_no: int) -> int:
    """The least slot value of a member that answered the round before."""
    return 2 * round_no - 2


def hb_statuses(slots: dict[int, int]) -> dict[int, bool]:
    """Each answering member's delivered vote: the low bit of its slot."""
    return {m: bool(v & 1) for m, v in slots.items()}


# -- completion ---------------------------------------------------------------


def complete(view, statuses: dict[int, bool], suspects, src: int, me: int,
             delivered: bool, round_no: int):
    """The coordinator's decision for round ``round_no``: the next view
    (``view`` without ``suspects``), the completion directive (``None``
    while the source ``src`` survives) and how many holders voted.

    The source gone, the members that answered with a delivered vote and
    survive into the new view -- plus the coordinator ``me`` itself when
    it ``delivered`` -- are the holders: the lowest one re-broadcasts,
    and nobody holding means a uniform abort."""
    new_view = view.without(suspects) if suspects else view
    if src in new_view:
        return new_view, None, 0
    holders = {m for m, ok in statuses.items() if ok and m in new_view}
    if delivered:
        holders.add(me)
    if holders:
        return new_view, CompletionDirective(
            DIRECTIVE_REBROADCAST, min(holders), round_no
        ), len(holders)
    return new_view, CompletionDirective(DIRECTIVE_ABORT, 0, round_no), 0


# -- succession ---------------------------------------------------------------


def succession(view, suspects: Iterable[int], me: int):
    """``(candidates, index, lower)`` of an election: ``view``'s members
    minus ``suspects`` in rank order, ``me``'s place among them and the
    candidates it defers to."""
    gone = set(suspects)
    candidates = [m for m in view.members if m not in gone]
    if me not in candidates:
        raise ValueError(
            f"rank {me} cannot run an election it is not a "
            f"candidate of (view epoch {view.epoch})"
        )
    index = candidates.index(me)
    return candidates, index, candidates[:index]


def lowest_claimant(claim_of: Callable[[int], int], ranks: Iterable[int],
                    floor: int) -> int | None:
    """The lowest of ``ranks`` whose claim has reached ``floor``."""
    for r in sorted(ranks):
        if claim_of(r) >= floor:
            return r
    return None


# -- the source of an attempt -------------------------------------------------


def pick_source(view, override: int | None, source: int | None, root: int,
                coord: int) -> int:
    """Who broadcasts the next attempt: a directive's re-broadcast
    source, else the caller's choice, else the static root -- and the
    coordinator when that rank is out of ``view``."""
    if override is not None:
        source = override
    elif source is None:
        source = root
    return source if source in view else coord
