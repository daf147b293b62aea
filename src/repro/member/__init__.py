"""Membership, failure detection, and the crash-surviving broadcast service.

- :mod:`repro.member.heartbeat` -- MPB-flag heartbeats with poll-budget
  suspicion, and epoch-stamped membership views agreed through the acked
  flag primitives (:class:`MembershipService`); views carry a
  :class:`CompletionDirective` verdict for the in-flight message.
- :mod:`repro.member.election` -- ranked-succession leader election over
  MPB claim slots (:class:`ElectionService`): when the coordinator
  crashes, the lowest live rank of the last installed view takes over
  and re-installs a bumped-epoch view (the epoch handoff).
- :mod:`repro.member.service` -- :class:`OcBcastService`, the epoch-aware
  FT OC-Bcast service: between rounds the propagation and notification
  trees are rebuilt over the current view's survivors, so an interior
  crash degrades to a smaller tree instead of orphaning a subtree; a
  *source* crash mid-message resolves by uniform agreement -- re-broadcast
  from a fully-delivered survivor, or a group-wide abort.  A recovery
  round is one loop over the current leader: coordinate, or follow and
  elect the next when it installs nothing.
- :mod:`repro.member.rules` -- every decision of the three modules above
  as a pure function of values: the heartbeat slot codec, the completion
  rule (:class:`CompletionDirective`), ranked succession, the lowest
  claimant of a claim sweep and the source of each attempt.
"""

from .election import ElectionService
from .heartbeat import MembershipConfig, MembershipService, MembershipView
from .rbc import RbcService, echo_quorum, max_faulty, ready_amplify, ready_quorum
from .rules import CompletionDirective
from .service import OcBcastService

__all__ = [
    "RbcService",
    "echo_quorum",
    "max_faulty",
    "ready_amplify",
    "ready_quorum",
    "CompletionDirective",
    "ElectionService",
    "MembershipConfig",
    "MembershipService",
    "MembershipView",
    "OcBcastService",
]
