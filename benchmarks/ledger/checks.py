"""Output checks: every operation's result is checked, and a failed check
counts in ``failed_share`` against the operations attempted.

Each function takes what the program returned and answers "is this the
right output"; none of them looks at timing.
"""

from __future__ import annotations

from typing import Sequence

#: ``TrialRun.outcome`` values that are a correct answer to a fault the
#: bare fault-tolerant OC-Bcast is meant to absorb (dropped or corrupted
#: flag write, crashed leaf).
FT_OUTCOMES = frozenset({"delivered", "recovered"})

#: ... and to one the membership service is meant to survive (interior
#: crash mid-stream plus a corrupted data line): a uniform abort is a
#: correct refusal when no payload holder survives.
SERVICE_OUTCOMES = frozenset({"delivered", "recovered", "aborted"})


def bcast_verified(result) -> bool:
    """``BcastResult.verified``: every core read back the exact payload."""
    return bool(result.verified)


def analytic_repeats(latencies: Sequence[float], first_pass: Sequence[float]) -> bool:
    """A fresh engine predicts bit-for-bit what the first engine did."""
    return tuple(latencies) == tuple(first_pass)


def analytic_matches_ideal(
    latencies: Sequence[float], spots: dict[int, float]
) -> bool:
    """At the spot sizes (index into the batch -> IDEAL kernel latency)
    the engine equals the event kernel exactly -- the bit-identity
    contract of ``repro.scc.analytic``."""
    return all(latencies[i] == ideal for i, ideal in spots.items())


def service_agrees(run_result, oracle_digest: str, expected_outcomes: tuple) -> bool:
    """The differential invariant as oracle: this backend's decision
    digest equals the one the *other* backend produced for the same
    scenario and seed, and the per-rank outcomes are the expected ones."""
    return (
        run_result.digest == oracle_digest
        and tuple(run_result.outcomes) == expected_outcomes
    )


def trial_survived(trial_run, *, service: bool) -> bool:
    allowed = SERVICE_OUTCOMES if service else FT_OUTCOMES
    return trial_run.outcome in allowed


def chaos_held(outcome) -> bool:
    """No safety or termination promise broke under the schedule."""
    return outcome.classification != "violation"
