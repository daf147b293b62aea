"""Chaos search over the broadcast stack (see docs/FAULTS.md §9).

Randomized composite fault schedules over both transport backends,
three-way outcome classification against the online invariants and
agreement/termination oracles, deterministic JSON repro bundles, and a
delta-debugging shrinker -- the layer that turns the fixed fault
campaigns of PRs 1--6 into a continuously-running adversary.

Entry points: ``python -m repro chaos`` (soak / replay / shrink),
``make chaos``, the nightly ``chaos-soak`` CI job, and the pinned
bundles replayed by the tier-1 ``chaos`` marker tests.
"""

from .bundle import (
    BUNDLE_VERSION, ReproBundle, make_bundle, repro_command, write_bundle,
    write_campaign_bundles,
)
from .generate import ScheduleGenerator
from .runner import (
    CLASSIFICATIONS, ChaosOutcome, profile_counts,
    run_schedule,
)
from .schedule import (
    BACKENDS, MODES, SCC_ONLY_KINDS, ChaosSchedule, ModelSpec,
)
from .shrink import MESH_LADDER, ShrinkResult, shrink
from .soak import SoakResult, run_soak

__all__ = [
    "BACKENDS",
    "BUNDLE_VERSION",
    "CLASSIFICATIONS",
    "MESH_LADDER",
    "MODES",
    "SCC_ONLY_KINDS",
    "ChaosOutcome",
    "ChaosSchedule",
    "ModelSpec",
    "ReproBundle",
    "ScheduleGenerator",
    "ShrinkResult",
    "SoakResult",
    "make_bundle",
    "profile_counts",
    "repro_command",
    "run_schedule",
    "run_soak",
    "shrink",
    "write_bundle",
    "write_campaign_bundles",
]
