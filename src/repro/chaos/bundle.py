"""Deterministic repro bundles: a chaos failure as a JSON artifact.

A :class:`ReproBundle` pins everything needed to reproduce one chaos
run bit-for-bit: the full :class:`~repro.chaos.schedule.ChaosSchedule`
(backend, geometry, mode, seed, fault events, network model) plus the
*expected* result -- classification, fine-grained status, decision
digest and injection count.  ``python -m repro chaos
--replay bundle.json`` re-runs the schedule and diffs the outcome
against the expectation; the pinned bundles under
``tests/chaos_bundles/`` do the same as tier-1 pytest parameters.

A fault-campaign trial *is* a chaos schedule
(:meth:`~repro.bench.faultcampaign.FaultCampaign.trial_schedule`), so a
lost trial's bundle is that schedule as is, pinning the status and
injection count of the trial's own verdict (campaign outcome in
``meta``) -- but no digest or classification: campaign trials run
without the invariant checker and mostly untraced.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .runner import ChaosOutcome, chaos_status, run_schedule
from .schedule import ChaosSchedule, reject_unknown_keys

if TYPE_CHECKING:  # pragma: no cover
    from ..bench.faultcampaign import CampaignResult, FaultCampaign

BUNDLE_VERSION = 1

#: What a bundle can pin about its outcome (:class:`ChaosOutcome` fields).
EXPECTED_KEYS = ("classification", "status", "digest", "n_injected")


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
    return make_bundle(outcome, note=note, meta=meta).save(
        _fresh_path(out_dir, stem)
    )


def _fresh_path(out_dir: str, stem: str) -> str:
    """``out_dir/stem.json``, suffixed rather than clobbering a file."""
    path = os.path.join(out_dir, f"{stem}.json")
    n = 1
    while os.path.exists(path):
        path = os.path.join(out_dir, f"{stem}-{n}.json")
        n += 1
    return path


def write_campaign_bundles(
    campaign: "FaultCampaign",
    result: "CampaignResult",
    out_dir: str,
    *,
    limit: int = 5,
) -> list[tuple[str, str, int]]:
    """Bundle at most ``limit`` lost trials (:meth:`CampaignResult.lost`);
    returns ``(path, leg, trial index)`` triples."""
    written: list[tuple[str, str, int]] = []
    for index, leg, run in result.lost()[:limit]:
        bundle = ReproBundle(
            schedule=campaign.trial_schedule(result.trials[index].plan, leg),
            expected={
                "status": chaos_status(run.verdict)[0],
                "n_injected": run.n_injected,
            },
            note=(
                f"campaign seed={campaign.seed} trial={index} leg={leg} "
                f"lost as {run.outcome!r}"
            ),
            meta=dict(campaign_outcome=run.outcome, campaign_detail=run.detail,
                      trial_index=index, leg=leg),
        )
        path = bundle.save(_fresh_path(
            out_dir, f"campaign-seed{campaign.seed}-trial{index}-{leg}"
        ))
        written.append((path, leg, index))
    return written


