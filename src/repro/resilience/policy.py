"""Unified retry pacing policies for bounded-retry sites.

Every acked/verified operation in the stack (flag, slot, and vote
writes in :mod:`repro.rcce.flags`, verified put/get in
:mod:`repro.rcce.onesided`, heartbeat reports and view installs in
:mod:`repro.member`, election claim re-casts, RBC vote re-casts)
retries a bounded number of times.  Before this module each site
hard-coded *immediate* re-send: correct for a single dropped flag, but
under sustained congestion every rank re-hammers the mesh in lockstep.

:class:`RetryPolicy` makes the pacing declarative.  A policy is an
immutable schedule description; :meth:`RetryPolicy.delays` expands it
into the concrete tuple of pauses (microseconds) inserted *before*
each re-send at one call site.  Determinism contract:

- no wall clock, no global RNG -- jitter comes from a
  ``random.Random`` seeded from ``(policy.seed, rank, site)``, so the
  same run replays the same delays and two sites on the same rank get
  independent streams;
- every site takes a policy -- there is no "no policy": the default,
  :data:`IMMEDIATE`, is three immediate re-sends, the schedule every
  site hard-coded before this module existed;
- a zero delay inserts *no* simulator event at all -- only strictly
  positive pauses are yielded by the call sites -- so an immediate
  policy leaves default traces bit-identical to the pre-policy ones.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from random import Random
from typing import Tuple

__all__ = ["IMMEDIATE", "OverloadError", "RetryPolicy"]


class OverloadError(RuntimeError):
    """Deterministic REFUSE: a message's retry budget is exhausted.

    Raised by :class:`repro.member.service.OcBcastService` when the
    per-message recovery budget (``MembershipConfig.retry_budget``) is
    spent.  Carries structured fields so campaigns and chaos runners
    can classify the refusal without parsing the message text.
    """

    def __init__(self, *, msg_id: int, rank: int, epoch: int, spent: int, budget: int):
        self.msg_id = msg_id
        self.rank = rank
        self.epoch = epoch
        self.spent = spent
        self.budget = budget
        super().__init__(
            f"msg {msg_id} refused at rank {rank} (epoch {epoch}): "
            f"retry budget exhausted ({spent}/{budget} recovery rounds)"
        )


def _stream_seed(seed: int, rank: int, site: str) -> int:
    """Mix (seed, rank, site) into one deterministic stream seed."""
    return (seed * 0x9E3779B1 + zlib.crc32(f"{rank}:{site}".encode())) & 0xFFFFFFFF


@dataclass(frozen=True)
class RetryPolicy:
    """Declarative pacing for one bounded-retry site.

    ``max_retries``
        Re-send attempts after the first send.
    ``base``
        Pause before the first re-send, in microseconds.  ``0.0``
        means immediate re-send (no pause events at all).
    ``factor``
        Multiplier applied per subsequent re-send (exponential
        backoff when > 1).
    ``cap``
        Upper bound on any single pause; ``0.0`` = uncapped.
    ``jitter``
        Fraction of each pause drawn uniformly from
        ``[-jitter, +jitter]`` relative to the nominal value, from the
        per-(rank, site) seeded stream.  Desynchronizes ranks that
        would otherwise re-send in lockstep.
    ``budget``
        Total pause time allowed across the schedule, in
        microseconds; ``0.0`` = unlimited.  A budget truncates the
        schedule: re-sends whose cumulative pause would exceed the
        budget are dropped, so the site fails (or refuses) earlier
        rather than stalling arbitrarily long.
    ``seed``
        Mixed with ``(rank, site)`` to seed the jitter stream.
    """

    max_retries: int = 3
    base: float = 0.0
    factor: float = 2.0
    cap: float = 0.0
    jitter: float = 0.0
    budget: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base < 0.0:
            raise ValueError("base pause must be >= 0")
        if self.factor <= 0.0:
            raise ValueError("backoff factor must be > 0")
        if self.cap < 0.0:
            raise ValueError("cap must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.budget < 0.0:
            raise ValueError("budget must be >= 0")
        # A jitter-free schedule is the same at every (rank, site), and
        # acked writes ask for it on every call: expand it once.  Not a
        # field, so ==, hash and repr see the declared values only.
        object.__setattr__(
            self, "_fixed", None if self.jitter > 0.0 else self._expand(None)
        )

    @classmethod
    def immediate(cls, max_retries: int = 3) -> "RetryPolicy":
        """Bounded immediate re-sends, no pauses."""
        return cls(max_retries=max_retries)

    @classmethod
    def backoff(
        cls,
        max_retries: int = 3,
        base: float = 50.0,
        factor: float = 2.0,
        cap: float = 0.0,
        jitter: float = 0.1,
        budget: float = 0.0,
        seed: int = 0,
    ) -> "RetryPolicy":
        """Exponential backoff with seeded jitter."""
        return cls(
            max_retries=max_retries,
            base=base,
            factor=factor,
            cap=cap,
            jitter=jitter,
            budget=budget,
            seed=seed,
        )

    def _nominal(self, attempt: int) -> float:
        """Jitter-free pause before re-send number ``attempt`` (1-based)."""
        if self.base <= 0.0:
            return 0.0
        d = self.base * (self.factor ** (attempt - 1))
        if self.cap > 0.0:
            d = min(d, self.cap)
        return d

    def _expand(self, rng: "Random | None") -> Tuple[float, ...]:
        """The schedule, jittered from ``rng`` when one is given."""
        out = []
        spent = 0.0
        for attempt in range(1, self.max_retries + 1):
            d = self._nominal(attempt)
            if rng is not None and d > 0.0:
                d *= 1.0 + rng.uniform(-self.jitter, self.jitter)
            if self.budget > 0.0 and spent + d > self.budget:
                break
            spent += d
            out.append(d)
        return tuple(out)

    def delays(self, rank: int, site: str) -> Tuple[float, ...]:
        """Concrete pause schedule for one call site.

        Returns one pause (us, possibly 0.0) per allowed re-send, in
        order.  The length is at most ``max_retries``; a budget may
        truncate it.  Deterministic in ``(self, rank, site)``.
        """
        if self._fixed is not None:
            return self._fixed
        return self._expand(Random(_stream_seed(self.seed, rank, site)))

    def max_total_pause(self) -> float:
        """Worst-case cumulative pause across the schedule (any rank/site).

        Used by config coherence checks (e.g. the membership suspicion
        window must exceed this bound, or a member pacing its re-sends
        is suspected inside its own legal schedule).
        """
        total = 0.0
        for attempt in range(1, self.max_retries + 1):
            d = self._nominal(attempt) * (1.0 + self.jitter)
            if self.budget > 0.0 and total + d > self.budget:
                break
            total += d
        return total


#: The default of every bounded-retry site: three immediate re-sends.
IMMEDIATE = RetryPolicy.immediate()
