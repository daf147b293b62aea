"""The service's pure decisions (``repro.member.rules``), checked over
their whole input space.

A truth is, for n = 2..8 ranks with rank 0 the source: the source dead
or alive (an alive source holds the payload) and every other rank dead,
alive or a holder.  Every alive rank in turn coordinates the round: it
reads each other rank's heartbeat slot in its own MPB -- a dead rank's
still holds the previous round's value -- and decides with
:func:`rules.complete`.  At most one alive rank's slot is corrupted as
``value ^ 0xFFFF``, which is what ``ByteStore.store``'s byte-wise XOR
does to a 16-bit slot; the acked write reads it back as ``>= value``,
so the corruption stands.

Three properties, when the source is gone:

- validity: a ``REBROADCAST`` names a true, alive holder;
- ``ABORT`` happens iff no true holder is alive;
- every alive coordinator decides alike on the same truth.

Corruption splits into two named classes.  The *forged holder vote*:
a non-holder's ``2r`` corrupts to an odd value at or above the floor
and reads as *delivered*, so a coordinator may name a rank that holds
nothing as the new source (the chain
``tests/chaos_bundles/service-forged-holder-vote-*.json`` replayed
until slot writes acked only exactly what they wrote).  The *lost
holder vote*: a holder's ``2r + 1`` corrupts to an even value at or
above the floor and reads as *not delivered*, so a coordinator may
abort while that holder lives.  The model takes the corrupted value as
what the collector reads, before any re-send: that reader-side window
is open (ROADMAP item 2(b)), so both classes stay strict-xfail here.
"""

import functools
import itertools

import pytest

from repro.member import rules
from repro.member.heartbeat import MembershipView

DEAD, ALIVE, HOLDER = "dead", "alive", "holder"
SOURCE = 0
ROUND = 3
SIZES = range(2, 9)


def truths(n):
    """Every truth of an n-rank group with somebody alive."""
    for source in (DEAD, HOLDER):
        for rest in itertools.product((DEAD, ALIVE, HOLDER), repeat=n - 1):
            state = (source,) + rest
            if any(s != DEAD for s in state):
                yield state


def decide(state, coord, corrupt=None):
    """``coord``'s decision on ``state``, with ``corrupt``'s slot
    inverted: the collect of :meth:`MembershipService.collect` without
    the waits (a slot below the floor times out)."""
    floor = rules.hb_floor(ROUND)
    slots, suspects = {}, []
    for m, s in enumerate(state):
        if m == coord:
            continue
        value = rules.hb_value(ROUND - (s == DEAD), s == HOLDER)
        if m == corrupt:
            value ^= 0xFFFF
        if value >= floor:
            slots[m] = value
        else:
            suspects.append(m)
    view, directive, _ = rules.complete(
        MembershipView.full(len(state)), rules.hb_statuses(slots), suspects,
        SOURCE, coord, state[coord] == HOLDER, ROUND,
    )
    return view.members, directive


def violations(state, decision):
    """Which properties ``decision`` breaks on ``state`` (validity, iff)."""
    _, directive = decision
    holders = {m for m, s in enumerate(state) if s == HOLDER}
    broken = []
    if state[SOURCE] != DEAD:
        return broken if directive is None else ["source-alive"]
    if directive.code == rules.DIRECTIVE_REBROADCAST and (
        directive.source not in holders
    ):
        broken.append("validity")
    if (directive.code == rules.DIRECTIVE_ABORT) != (not holders):
        broken.append("abort-iff-no-holder")
    return broken


def corrupted_cases(n, victim_state):
    """``(state, coordinator, corrupted rank)`` for every corruption of
    a rank in ``victim_state``."""
    for state in truths(n):
        alive = [m for m, s in enumerate(state) if s != DEAD]
        for coord in alive:
            for victim in alive:
                if victim != coord and state[victim] == victim_state:
                    yield state, coord, victim


def test_slot_codec():
    for r in (1, 2, 1000):
        assert rules.hb_value(r, False) == rules.hb_floor(r)
        assert rules.hb_value(r, True) == rules.hb_floor(r) + 1
        assert rules.hb_value(r - 1, True) < rules.hb_floor(r)
        assert rules.hb_lag_floor(r) == rules.hb_floor(r - 1)
        assert rules.hb_statuses(
            {1: rules.hb_value(r, True), 2: rules.hb_value(r, False)}
        ) == {1: True, 2: False}


@pytest.mark.parametrize("n", SIZES)
def test_intact_heartbeats_decide_validly_and_alike(n):
    for state in truths(n):
        decisions = {
            decide(state, coord)
            for coord, s in enumerate(state) if s != DEAD
        }
        assert len(decisions) == 1, state
        decision = decisions.pop()
        assert violations(state, decision) == [], state
        members, _ = decision
        assert members == tuple(m for m, s in enumerate(state) if s != DEAD)


@functools.lru_cache(maxsize=None)
def _broken(n, victim_state):
    """The corruptions of a rank in ``victim_state`` that break a
    property, with what they break."""
    return [
        (state, coord, victim, broken)
        for state, coord, victim in corrupted_cases(n, victim_state)
        if (broken := violations(state, decide(state, coord, victim)))
    ]


@pytest.mark.xfail(strict=True, reason="forged holder vote: ROADMAP item 2")
def test_forged_holder_vote_never_names_a_non_holder():
    assert [case for n in SIZES for case in _broken(n, ALIVE)] == []


@pytest.mark.xfail(strict=True, reason="lost holder vote: ROADMAP item 2")
def test_lost_holder_vote_never_aborts_beside_a_live_holder():
    assert [case for n in SIZES for case in _broken(n, HOLDER)] == []


def test_the_two_vote_classes_break_what_they_are_named_for():
    forged = {tuple(b) for n in SIZES for *_, b in _broken(n, ALIVE)}
    lost = {tuple(b) for n in SIZES for *_, b in _broken(n, HOLDER)}
    assert forged == {("validity",), ("validity", "abort-iff-no-holder")}
    assert lost == {("abort-iff-no-holder",)}


@pytest.mark.parametrize("n", SIZES)
def test_succession_and_lowest_claimant(n):
    view = MembershipView.full(n)
    for k in range(n):
        for suspects in itertools.combinations(range(n), k):
            for me in set(range(n)) - set(suspects):
                candidates, index, lower = rules.succession(view, suspects, me)
                assert candidates == sorted(set(range(n)) - set(suspects))
                assert candidates[index] == me
                assert lower == [c for c in candidates if c < me]
            if suspects:
                claims = dict.fromkeys(range(n), ROUND - 1)
                claims.update(dict.fromkeys(suspects, ROUND))
                assert rules.lowest_claimant(
                    claims.__getitem__, range(n), ROUND
                ) == min(suspects)
                assert rules.lowest_claimant(
                    claims.__getitem__, range(n), ROUND + 1
                ) is None
    with pytest.raises(ValueError):
        rules.succession(view, [0], 0)


def test_pick_source():
    view = MembershipView(1, (1, 2, 3))
    assert rules.pick_source(view, None, None, 1, 2) == 1
    assert rules.pick_source(view, None, 3, 1, 2) == 3
    assert rules.pick_source(view, 2, 3, 1, 3) == 2
    # A source out of the view hands the attempt to the coordinator.
    assert rules.pick_source(view, None, None, 0, 2) == 2
    assert rules.pick_source(view, 0, 3, 1, 3) == 3
