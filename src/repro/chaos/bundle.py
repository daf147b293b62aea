"""Deterministic repro bundles: a chaos failure as a JSON artifact.

A :class:`ReproBundle` pins everything needed to reproduce one chaos
run bit-for-bit: the full :class:`~repro.chaos.schedule.ChaosSchedule`
(backend, geometry, mode, seed, fault events, network model) plus the
*expected* result -- classification, fine-grained status, decision
digest and injection count.  ``python -m repro chaos
--replay bundle.json`` re-runs the schedule and diffs the outcome
against the expectation; the pinned bundles under
``tests/chaos_bundles/`` do the same as tier-1 pytest parameters.

Campaign bridge (the self-reproducing-failure path): a lost
:class:`~repro.bench.faultcampaign.FaultCampaign` trial converts 1:1
into a chaos schedule -- same seed (hence the same
``np.random.default_rng`` payload), same fault plan -- so ``repro
faults`` failures emit a one-line replay command
instead of just bumping a counter.  Written bundles are
*self-validating*: the expectation recorded is the chaos runner's own
result for the converted schedule (re-run at write time), with the
original campaign classification kept in ``meta`` for cross-reference.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from ..core.ocbcast import DEFAULT_CHUNK_LINES
from ..faults.plan import FaultKind
from ..scc.config import CACHE_LINE, SccConfig
from .runner import ChaosOutcome, run_schedule
from .schedule import ChaosSchedule, reject_unknown_keys

if TYPE_CHECKING:  # pragma: no cover
    from ..bench.faultcampaign import CampaignResult, FaultCampaign

BUNDLE_VERSION = 1

#: What a bundle can pin about its outcome (:class:`ChaosOutcome` fields).
EXPECTED_KEYS = ("classification", "status", "digest", "n_injected")

#: Per-leg outcomes that count as *lost* (not recovered, not an expected
#: refusal) and deserve a repro bundle.  The baseline leg is absent on
#: purpose: its losses are the measurement, not a regression.
LOST_OUTCOMES = {
    "ft": ("deadlock", "timeout", "corrupt", "crashed"),
    "service": ("deadlock", "timeout", "corrupt", "crashed"),
    "byz": ("disagreement", "partial", "deadlock", "timeout", "crashed"),
}


def repro_command(path: str) -> str:
    """The one-liner that replays a bundle."""
    return f"PYTHONPATH=src python -m repro chaos --replay {path}"


@dataclass(frozen=True)
class ReproBundle:
    """One replayable chaos failure (or pinned regression case)."""

    schedule: ChaosSchedule
    #: Expected result: any of :data:`EXPECTED_KEYS`, at least one.
    #: Replay fails on any mismatch.
    expected: dict
    note: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        reject_unknown_keys("bundle expectation", self.expected, EXPECTED_KEYS)
        if not self.expected:
            raise ValueError(
                f"a bundle must expect at least one of {', '.join(EXPECTED_KEYS)}"
                f" -- replaying it would compare nothing"
            )

    def to_dict(self) -> dict:
        return {
            "version": BUNDLE_VERSION,
            "note": self.note,
            "schedule": self.schedule.to_dict(),
            "expected": dict(self.expected),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ReproBundle":
        version = d.get("version", BUNDLE_VERSION)
        if version != BUNDLE_VERSION:
            raise ValueError(
                f"unsupported bundle version {version!r} "
                f"(this build reads version {BUNDLE_VERSION})"
            )
        reject_unknown_keys(
            "bundle", d, ("version", "note", "schedule", "expected", "meta")
        )
        return cls(
            schedule=ChaosSchedule.from_dict(d["schedule"]),
            expected=dict(d.get("expected", {})),
            note=d.get("note", ""),
            meta=dict(d.get("meta", {})),
        )

    def save(self, path: str) -> str:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "ReproBundle":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def replay(self) -> tuple[ChaosOutcome, list[str]]:
        """Re-run the schedule; returns the outcome plus any mismatches
        against the recorded expectation (empty list = faithful repro)."""
        outcome = run_schedule(self.schedule)
        mismatches = []
        for key in EXPECTED_KEYS:
            want, got = self.expected.get(key), getattr(outcome, key)
            if want is not None and want != got:
                mismatches.append(f"{key}: expected {want!r}, got {got!r}")
        return outcome, mismatches


def make_bundle(
    outcome: ChaosOutcome, *, note: str = "", meta: dict | None = None
) -> ReproBundle:
    """Bundle an outcome the runner just produced."""
    return ReproBundle(
        schedule=outcome.schedule,
        expected={key: getattr(outcome, key) for key in EXPECTED_KEYS},
        note=note or outcome.describe(),
        meta=dict(meta or {}),
    )


def write_bundle(
    outcome: ChaosOutcome,
    out_dir: str,
    *,
    name: str = "",
    note: str = "",
    meta: dict | None = None,
) -> str:
    """Write one outcome's bundle under ``out_dir``; returns the path."""
    s = outcome.schedule
    stem = name or (
        f"chaos-{s.backend}-{s.mode}-{s.mesh[0]}x{s.mesh[1]}"
        f"-seed{s.seed}-{outcome.status}"
    )
    path = os.path.join(out_dir, f"{stem}.json")
    # Never clobber a distinct counterexample: suffix on collision.
    n = 1
    while os.path.exists(path):
        candidate = os.path.join(out_dir, f"{stem}-{n}.json")
        n += 1
        path = candidate
    make_bundle(outcome, note=note, meta=meta).save(path)
    return path


# -- campaign bridge ----------------------------------------------------------


def schedule_for_trial(
    campaign: "FaultCampaign", plan, leg: str
) -> ChaosSchedule:
    """Convert one campaign trial (its fault plan + the campaign's
    config) into a replayable chaos schedule.

    The conversion is exact for the default campaign geometry: same
    seed (hence the same payload bytes), same specs.  A campaign
    message length that is not a whole number of chunks rounds *up*
    (the schedule replays the enclosing-chunk neighborhood; the
    original ``nbytes`` is kept in the caller's ``meta``).  Only root-0
    campaigns convert -- the chaos runner pins the root.
    """
    if leg not in ("ft", "baseline", "service", "byz"):
        raise ValueError(f"unknown campaign leg {leg!r}")
    if campaign.root != 0:
        raise ValueError(
            f"only root-0 campaigns convert to chaos schedules "
            f"(campaign root is {campaign.root})"
        )
    cfg = campaign.config or SccConfig()
    chunk_bytes = DEFAULT_CHUNK_LINES * CACHE_LINE
    return ChaosSchedule(
        backend="scc",
        mesh=(cfg.mesh_cols, cfg.mesh_rows),
        chunks=max(1, math.ceil(campaign.nbytes / chunk_bytes)),
        mode=leg,
        seed=campaign.seed,
        specs=tuple(plan.specs),
        label=plan.label or f"campaign-seed{campaign.seed}",
        watchdog_us=campaign.watchdog_interval,
        ft_ack_data=FaultKind.DROP_DATA_WRITE in campaign.kinds,
    )


def campaign_counterexamples(
    result: "CampaignResult",
) -> Iterator[tuple[int, str, object]]:
    """Yield ``(trial index, leg, TrialRun)`` for every lost trial of a
    campaign result -- the runs worth a repro bundle."""
    for trial in result.trials:
        for leg in ("ft", "service", "byz"):
            run = getattr(trial, leg)
            if run is not None and run.outcome in LOST_OUTCOMES[leg]:
                yield trial.index, leg, run


def write_campaign_bundles(
    campaign: "FaultCampaign",
    result: "CampaignResult",
    out_dir: str,
    *,
    limit: int = 5,
) -> list[tuple[str, str, int]]:
    """Write repro bundles for a campaign's lost trials (satellite:
    self-reproducing failures).  At most ``limit`` bundles; returns
    ``(path, leg, trial index)`` triples.  Each bundle's expectation is
    the chaos runner's own result for the converted schedule (re-run
    here), so replays always match; the campaign's classification rides
    in ``meta`` for cross-reference."""
    written: list[tuple[str, str, int]] = []
    for index, leg, run in campaign_counterexamples(result):
        if len(written) >= limit:
            break
        plan = result.trials[index].plan
        try:
            schedule = schedule_for_trial(campaign, plan, leg)
        except ValueError:
            continue
        outcome = run_schedule(schedule)
        path = write_bundle(
            outcome, out_dir,
            name=f"campaign-seed{campaign.seed}-trial{index}-{leg}",
            note=(
                f"campaign seed={campaign.seed} trial={index} leg={leg} "
                f"lost as {run.outcome!r}"
            ),
            meta={
                "campaign_outcome": run.outcome,
                "campaign_detail": run.detail,
                "campaign_nbytes": campaign.nbytes,
                "trial_index": index,
                "leg": leg,
            },
        )
        written.append((path, leg, index))
    return written
