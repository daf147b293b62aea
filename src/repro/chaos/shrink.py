"""Delta-debugging shrinker: minimise a failing chaos schedule.

Greedy ddmin over the schedule's structure: starting from a schedule
whose run matches a *target* ``(classification, status)`` pair (by
default, whatever the schedule currently produces -- typically a
``violation``), repeatedly try strictly smaller variants and keep any
that still reproduce the target:

- drop whole composite events (injector specs, the crash coordinate,
  a lossy network model);
- cut the message to fewer chunks;
- move to a smaller mesh (a candidate naming cores outside the smaller
  communicator is skipped by validation);
- narrow windows: halve stall/burst/pause durations and occurrence
  numbers, pull partition heal times in, drop a pure-delay model.

Every accepted step restarts the pass, so the result is 1-minimal with
respect to these operators: no single remaining event, chunk, mesh step
or halving can be removed without losing the failure.  The whole search
is bounded by ``max_runs`` schedule executions; determinism of
:func:`repro.chaos.runner.run_schedule` makes the shrink itself
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from ..core.ocbcast import DEFAULT_CHUNK_LINES
from ..faults.plan import FaultSpec
from .runner import ChaosOutcome, run_schedule
from .schedule import ChaosSchedule

#: Meshes the shrinker may move down to, smallest first.
MESH_LADDER = ((1, 1), (2, 1), (2, 2), (3, 2), (4, 3))

#: Durations are not halved below this floor (us) -- a near-zero stall
#: stops being the fault it was.
MIN_DURATION = 50.0


@dataclass(frozen=True)
class ShrinkResult:
    """The minimised schedule plus the search's bookkeeping."""

    original: ChaosSchedule
    schedule: ChaosSchedule
    outcome: ChaosOutcome
    target: tuple[str, str]
    n_runs: int
    n_steps: int

    def describe(self) -> str:
        return (
            f"shrunk {self.original.n_events} event(s) on "
            f"{self.original.mesh[0]}x{self.original.mesh[1]}/"
            f"{self.original.length} to {self.schedule.n_events} on "
            f"{self.schedule.mesh[0]}x{self.schedule.mesh[1]}/"
            f"{self.schedule.length} in {self.n_steps} step(s) "
            f"({self.n_runs} runs); still "
            f"{self.outcome.classification}/{self.outcome.status}"
        )


def _spec_variants(spec: FaultSpec) -> Iterator[FaultSpec]:
    """Strictly narrower versions of one injector spec."""
    if spec.duration and spec.duration > MIN_DURATION \
            and not spec.kind.adversarial:
        yield replace(spec, duration=max(MIN_DURATION, spec.duration / 2))
    if spec.nth > 1:
        yield replace(spec, nth=1)
        if spec.nth > 2:
            yield replace(spec, nth=spec.nth // 2)


def _candidates(s: ChaosSchedule) -> Iterator[ChaosSchedule]:
    """Strictly smaller variants, most aggressive first."""
    # Whole-event removal.
    for i in reversed(range(s.n_events)):
        try:
            yield s.without_event(i)
        except IndexError:  # pragma: no cover - n_events bounds the range
            pass
    # Fewer chunks.
    if s.chunks > 1:
        yield replace(s, cache_lines=DEFAULT_CHUNK_LINES)
        if s.chunks > 2:
            yield replace(s, cache_lines=s.chunks // 2 * DEFAULT_CHUNK_LINES)
    # Smaller meshes (invalid core references are filtered by
    # schedule.validate() at the call site).
    for mesh in MESH_LADDER:
        if 2 * mesh[0] * mesh[1] < s.nranks:
            yield replace(s, mesh=mesh)
    # Narrower injector specs.
    for i, spec in enumerate(s.specs):
        for variant in _spec_variants(spec):
            yield replace(
                s, specs=s.specs[:i] + (variant,) + s.specs[i + 1:]
            )
    # Earlier crash occurrence.
    if s.crash is not None and s.crash[2] > 1:
        yield replace(s, crash=(s.crash[0], s.crash[1], 1))
    # Simpler network model: a pure-delay model vanishes outright (it is
    # not a composite event, so without_event never offers it); lossy
    # models narrow their windows.
    if s.model is not None:
        if not s.model.faulty and s.model.name != "none":
            yield replace(s, model=None)
        if s.model.name == "partition" and s.model.heal_at > MIN_DURATION:
            yield replace(
                s,
                model=replace(s.model, heal_at=s.model.heal_at / 2),
            )


def shrink(
    schedule: ChaosSchedule,
    *,
    target: tuple[str, str] | None = None,
    max_runs: int = 250,
) -> ShrinkResult:
    """Minimise ``schedule`` while its run keeps reproducing ``target``
    (default: the schedule's current ``(classification, status)``)."""
    n_runs = 0

    def execute(s: ChaosSchedule) -> ChaosOutcome:
        nonlocal n_runs
        n_runs += 1
        return run_schedule(s)

    outcome = execute(schedule)
    got = (outcome.classification, outcome.status)
    if target is None:
        target = got
    elif got != target:
        raise ValueError(
            f"schedule does not reproduce the target: wanted {target}, "
            f"got {got}"
        )

    best, best_out = schedule, outcome
    n_steps = 0
    improved = True
    while improved and n_runs < max_runs:
        improved = False
        for candidate in _candidates(best):
            if n_runs >= max_runs:
                break
            try:
                candidate.validate()
            except ValueError:
                continue
            out = execute(candidate)
            if (out.classification, out.status) == target:
                best, best_out = candidate, out
                n_steps += 1
                improved = True
                break  # restart the pass from the smaller schedule
    return ShrinkResult(
        original=schedule,
        schedule=best,
        outcome=best_out,
        target=target,
        n_runs=n_runs,
        n_steps=n_steps,
    )
