"""The chaos soak loop: generate, run, classify, shrink, bundle.

:func:`run_soak` drives a :class:`~repro.chaos.generate.ScheduleGenerator`
for a fixed trial count and/or wall-clock budget, fanning schedule
executions across worker processes
(:func:`repro.bench.parallel.parallel_map` -- schedules and outcomes are
plain picklable dataclasses), and aggregates the three-way
classification.  Every *violation* is minimised by the delta-debugging
shrinker and written out as a replayable repro bundle -- the nightly CI
job uploads those as artifacts, so a red soak arrives with its
counterexamples attached, each carrying its own one-line replay
command.

Outcome metrics land in a :class:`repro.obs.MetricsRegistry` when one is
passed (``chaos.trials``, ``chaos.tolerated`` / ``chaos.refused`` /
``chaos.violation``, per-status counters and a latency histogram) --
see docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from ..obs.metrics import MetricsRegistry
from .bundle import repro_command, write_bundle
from .generate import ScheduleGenerator
from .runner import CLASSIFICATIONS, ChaosOutcome, run_schedule
from .shrink import ShrinkResult, shrink


@dataclass(frozen=True)
class SoakResult:
    """Aggregate result of one chaos soak."""

    n_trials: int
    counts: Counter
    status_counts: Counter
    elapsed: float
    #: The (shrunk) violating outcomes, with their bundle paths.
    violations: tuple[ChaosOutcome, ...] = ()
    shrinks: tuple[ShrinkResult, ...] = ()
    bundles: tuple[str, ...] = ()
    seed: int = 0

    @property
    def ok(self) -> bool:
        return self.counts.get("violation", 0) == 0

    def summary(self) -> str:
        from ..bench.reporting import format_series

        lines = [
            format_series(
                "classification", CLASSIFICATIONS,
                {"schedules": [self.counts[c] for c in CLASSIFICATIONS]},
                title=f"Chaos soak: {self.n_trials} schedules, "
                      f"seed={self.seed}, {self.elapsed:.1f}s",
            ),
            "",
            "statuses: " + ", ".join(
                f"{status}={n}"
                for status, n in sorted(self.status_counts.items())
            ),
        ]
        for outcome, path in zip(self.violations, self.bundles):
            lines.append(f"counterexample: {outcome.describe()}")
            lines.append(f"  repro: {repro_command(path)}")
        for outcome in self.violations[len(self.bundles):]:
            lines.append(f"counterexample (no bundle): {outcome.describe()}")
        if self.ok:
            lines.append(
                "zero violations: every schedule was tolerated or "
                "detected-and-refused"
            )
        return "\n".join(lines)


def run_soak(
    generator: ScheduleGenerator,
    *,
    trials: int | None = None,
    budget: float | None = None,
    jobs: int = 1,
    out_dir: str | None = None,
    shrink_failures: bool = True,
    shrink_runs: int = 250,
    metrics: MetricsRegistry | None = None,
    log: Callable[[str], None] | None = None,
) -> SoakResult:
    """Run the soak until ``trials`` schedules have executed or the
    wall-clock ``budget`` (seconds) runs out, whichever comes first; at
    least one batch always runs.  With neither bound given, 100 trials.
    """
    from ..bench.parallel import parallel_map

    if trials is None and budget is None:
        trials = 100
    start = time.monotonic()
    batch_size = max(1, jobs) * 4
    counts: Counter = Counter()
    status_counts: Counter = Counter()
    violations: list[ChaosOutcome] = []
    shrinks: list[ShrinkResult] = []
    bundles: list[str] = []
    n_done = 0

    def out_of_budget() -> bool:
        return budget is not None and time.monotonic() - start >= budget

    while True:
        if trials is not None and n_done >= trials:
            break
        if n_done and out_of_budget():
            break
        n = batch_size
        if trials is not None:
            n = min(n, trials - n_done)
        batch = generator.generate(n)
        outcomes = parallel_map(run_schedule, batch, jobs=jobs)
        for outcome in outcomes:
            n_done += 1
            counts[outcome.classification] += 1
            status_counts[outcome.status] += 1
            if metrics is not None:
                metrics.counter("chaos.trials").inc()
                metrics.counter(
                    f"chaos.{outcome.classification}"
                ).inc()
                metrics.counter(f"chaos.status.{outcome.status}").inc()
                if outcome.latency > 0.0:
                    metrics.histogram("chaos.latency_us").observe(
                        outcome.latency
                    )
            if outcome.classification != "violation":
                continue
            if shrink_failures:
                result = shrink(outcome.schedule, max_runs=shrink_runs)
                shrinks.append(result)
                outcome = result.outcome
                if metrics is not None:
                    metrics.counter("chaos.shrink_runs").inc(result.n_runs)
            violations.append(outcome)
            if out_dir is not None:
                path = write_bundle(outcome, out_dir)
                bundles.append(path)
                if log is not None:
                    log(f"counterexample bundled: {repro_command(path)}")
            elif log is not None:
                log(f"counterexample: {outcome.describe()}")
        if log is not None:
            log(
                f"chaos soak: {n_done} schedule(s), "
                f"{counts.get('violation', 0)} violation(s), "
                f"{time.monotonic() - start:.1f}s"
            )
    return SoakResult(
        n_trials=n_done,
        counts=counts,
        status_counts=status_counts,
        elapsed=time.monotonic() - start,
        violations=tuple(violations),
        shrinks=tuple(shrinks),
        bundles=tuple(bundles),
        seed=generator.seed,
    )
