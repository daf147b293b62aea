"""Adaptive resilience: retry pacing and accrual failure detection.

PRs 1-9 hard-code every robustness time constant: acked writes re-send
immediately with a fixed bounded count, and membership suspicion is one
shared poll deadline.  Those constants are sized for a single dropped
flag; under *sustained* fault regimes (flapping links, repeated
crashes, congestion storms) they either hammer a congested mesh with
synchronized retries or false-evict healthy members.  This package
makes the time constants adaptive:

- :class:`RetryPolicy` -- one declarative pacing policy (immediate /
  exponential backoff with seeded jitter / budget-capped) threaded
  through every bounded-retry site of :mod:`repro.rcce` and
  :mod:`repro.member`.  Deterministic: delays come from a per
  ``(rank, site)`` seeded stream, never from wall clock, so faulted
  runs stay byte-identical and the default (:data:`IMMEDIATE`) paths
  are bit-identical to the pre-policy traces.
- :class:`PhiAccrualDetector` -- a phi-accrual failure detector
  [Hayashibara 04] adapted to the round-solicited heartbeats of
  :class:`repro.member.heartbeat.MembershipService`: per-member
  response-delay history, a suspicion level phi from the empirical
  distribution, and a threshold trading detection time against false
  positives.
- :class:`OverloadError` -- the structured REFUSE signal of the
  service's graceful degradation: when a message's retry budget is
  exhausted the service refuses deterministically instead of
  re-attempting unboundedly.
"""

from .detector import DetectorConfig, PhiAccrualDetector
from .policy import IMMEDIATE, OverloadError, RetryPolicy

__all__ = [
    "DetectorConfig",
    "IMMEDIATE",
    "OverloadError",
    "PhiAccrualDetector",
    "RetryPolicy",
]
