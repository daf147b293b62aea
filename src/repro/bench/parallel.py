"""Parallel execution of independent simulation runs.

Every benchmark in this package is a grid of *independent* simulations: a
sweep runs one fresh chip per ``(spec, size)`` point, a fault campaign one
fresh chip per trial.  Each point is deterministic given its inputs (the
spec carries the algorithm, the config carries the jitter seed, the
campaign derives per-trial plans from its seed), so the grid can be fanned
out across worker processes and merged back **in submission order**
without changing a single output bit -- ``jobs=1`` and ``jobs=N`` produce
identical results, and both match the serial loops in
:mod:`repro.bench.harness` / :mod:`repro.bench.faultcampaign`.

The workers are plain module-level functions over picklable dataclasses,
so the pool works with any start method.  ``jobs <= 1`` short-circuits to
an in-process loop (no pool, no pickling) -- callers can pass ``--jobs``
straight through without special-casing.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from ..scc import SccConfig
from ..scc.config import CACHE_LINE, ContentionMode
from .harness import BcastResult, BcastSpec, run_broadcast, sweep_broadcast

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


# -- broadcast sweeps ---------------------------------------------------------


def _bcast_point(
    point: tuple[BcastSpec, int, SccConfig | None, int, int, bool, int],
) -> BcastResult:
    """Worker: one ``(spec, size)`` grid point on a fresh chip."""
    spec, nbytes, config, iters, warmup, verify, seed = point
    return run_broadcast(
        spec, nbytes, config=config,
        iters=iters, warmup=warmup, verify=verify, seed=seed,
    )


def sweep_broadcast_parallel(
    specs: Sequence[BcastSpec],
    sizes_cache_lines: Sequence[int],
    *,
    config: SccConfig | None = None,
    iters: int = 3,
    warmup: int = 1,
    verify: bool = True,
    seed: int = 1,
    jobs: int = 1,
) -> dict[str, list[BcastResult]]:
    """Parallel equivalent of :func:`repro.bench.sweep_broadcast`.

    The full ``specs x sizes`` grid is fanned across ``jobs`` workers;
    every point carries the same explicit ``seed`` the serial sweep uses,
    and the merge is by grid position -- the returned mapping is equal to
    the serial one for any ``jobs``.

    Under :attr:`ContentionMode.ANALYTIC` the grid is handed straight to
    the serial sweep: one vectorised engine batch per spec beats fanning
    per-point engine builds across processes, and the seed never matters
    analytically (no payload bytes move).
    """
    if config is not None and config.contention_mode is ContentionMode.ANALYTIC:
        return sweep_broadcast(
            specs, sizes_cache_lines, config=config,
            iters=iters, warmup=warmup, verify=verify,
        )
    points = [
        (spec, ncl * CACHE_LINE, config, iters, warmup, verify, seed)
        for spec in specs
        for ncl in sizes_cache_lines
    ]
    flat = parallel_map(_bcast_point, points, jobs=jobs)
    n = len(sizes_cache_lines)
    return {
        spec.label: flat[i * n:(i + 1) * n] for i, spec in enumerate(specs)
    }
