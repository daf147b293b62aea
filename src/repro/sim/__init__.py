"""Minimal deterministic discrete-event simulation kernel.

The kernel follows the classic process-interaction style (compare SimPy):
model code is written as Python generators that ``yield`` :class:`Event`
objects and are resumed when those events fire.  Everything is single
threaded and deterministic: events scheduled for the same timestamp fire
in scheduling order.

Public surface:

- :class:`Simulator` -- the event loop (``now``, ``run``, ``process``,
  ``timeout``, ``event``).
- :class:`Event` -- one-shot occurrence carrying an optional value.
- :class:`Process` -- a running generator; itself an event that fires when
  the generator returns (its value is the generator's return value).
- :class:`Resource` -- FIFO server used to model contended hardware ports.
- :class:`LegScript` -- a list of holds and delays performed for a
  sleeping process by kernel callbacks, in the process's queue positions.
- :func:`all_of` / :func:`any_of` -- event combinators.
"""

from .errors import (
    DeadlockError,
    FaultInjected,
    Interrupted,
    SimError,
    TimeoutError,
    WatchdogError,
)
from .kernel import Event, Process, Simulator, all_of, any_of
from .resources import LegScript, Resource
from .trace import TraceRecord, Tracer

__all__ = [
    "DeadlockError",
    "Event",
    "FaultInjected",
    "Interrupted",
    "LegScript",
    "Process",
    "Resource",
    "SimError",
    "Simulator",
    "TimeoutError",
    "TraceRecord",
    "Tracer",
    "WatchdogError",
    "all_of",
    "any_of",
]
