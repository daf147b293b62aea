"""Parallel execution of independent simulation runs.

Every benchmark in this package is a grid of *independent* simulations: a
sweep runs one fresh chip per ``(spec, size)`` point, a fault campaign one
fresh chip per trial.  Each point is deterministic given its inputs (the
spec carries the algorithm, the config carries the jitter seed, the
campaign derives per-trial plans from its seed), so the grid can be fanned
out across worker processes and merged back **in submission order**
without changing a single output bit -- ``jobs=1`` and ``jobs=N`` produce
identical results (:func:`repro.bench.sweep_broadcast`,
:meth:`repro.bench.FaultCampaign.run_trials`).

The workers are plain module-level functions over picklable dataclasses,
so the pool works with any start method.  ``jobs <= 1`` short-circuits to
an in-process loop (no pool, no pickling) -- callers can pass ``--jobs``
straight through without special-casing.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")


def default_jobs() -> int:
    """A sensible worker count for this machine (cores, capped at 8 --
    each worker is a full simulator, memory-hungry beyond that)."""
    return min(os.cpu_count() or 1, 8)


def parallel_map(
    fn: Callable[[_T], _R], items: Iterable[_T], *, jobs: int = 1
) -> list[_R]:
    """Apply ``fn`` to every item, in worker processes when ``jobs > 1``.

    Results come back in input order regardless of completion order, so a
    deterministic ``fn`` makes the whole call deterministic.  ``fn`` must
    be a module-level function and items/results picklable when
    ``jobs > 1``.
    """
    work = list(items)
    if jobs <= 1 or len(work) <= 1:
        return [fn(item) for item in work]
    with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
        return list(pool.map(fn, work))
