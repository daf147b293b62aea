#!/usr/bin/env python
"""Dump what every harness decides, as one JSON document.

Fault campaigns, the chaos runner, the differential scenarios and the
churn campaign each build a fresh world, run a per-rank broadcast body
and classify how the run ended.  This tool runs a small, fixed set of
each through the *public* API only and records every deterministic
field of the result -- outcome labels, counts, latencies, plans,
decision digests, fault timelines, the sha256 of the printed summary -- so a
refactor of the harness layer can be held to "the same bytes".

``TrialRun.detail`` / ``ChaosOutcome.detail`` are excluded on purpose:
watchdog-killed runs name one of the stalled processes and the pick is
not deterministic (see the note atop ``tests/test_analytic.py``).

    PYTHONPATH=src python tools/dump_harness_outcomes.py           # rewrite the golden
    PYTHONPATH=src python tools/dump_harness_outcomes.py --check   # regenerate and diff

``tests/test_harness_goldens.py`` runs the same comparison in tier-1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from repro.bench import (
    ChurnCampaign, FaultCampaign, campaign_summary, churn_summary,
)
from repro.chaos import ScheduleGenerator, profile_counts, run_schedule
from repro.faults import FaultKind
from repro.scc import SccConfig
from repro.scc.config import CACHE_LINE
from repro.transport.scenarios import SCENARIOS, run_asyncio, run_scc

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent
    / "tests" / "golden_harness_outcomes.json"
)

_SMALL = SccConfig(mesh_cols=3, mesh_rows=2)  # 12 cores

#: name -> (campaign, also run with jobs=2 and require equality).
CAMPAIGNS: dict[str, tuple[FaultCampaign, bool]] = {
    "ft_baseline": (FaultCampaign(
        trials=9, seed=3,
        kinds=(FaultKind.DROP_FLAG_WRITE, FaultKind.CORRUPT_FLAG_WRITE,
               FaultKind.CORE_CRASH),
    ), True),
    "data_faults": (FaultCampaign(
        trials=10, seed=4, nbytes=192 * CACHE_LINE,
        kinds=(FaultKind.DROP_DATA_WRITE, FaultKind.CORRUPT_DATA_WRITE,
               FaultKind.LINK_STALL, FaultKind.CORE_PAUSE,
               FaultKind.LINK_DOWN),
    ), False),
    "service_interior": (FaultCampaign(
        trials=3, seed=5, service=True, compare_baseline=False,
        kinds=(FaultKind.CORE_CRASH, FaultKind.CORRUPT_DATA_WRITE),
        crash_site="interior", mid_stream=True, faults_per_trial=2,
        nbytes=288 * CACHE_LINE,
    ), False),
    "service_root": (FaultCampaign(
        trials=2, seed=6, service=True, compare_baseline=False,
        kinds=(FaultKind.CORE_CRASH,), crash_site="root", mid_stream=True,
        nbytes=288 * CACHE_LINE,
    ), False),
    "sustained": (FaultCampaign(
        trials=6, seed=7, service=True, compare_baseline=False,
        kinds=(FaultKind.FLAPPING_LINK, FaultKind.REPEATED_CRASH,
               FaultKind.CONGESTION_STORM),
    ), False),
    "byz3": (FaultCampaign(
        trials=4, seed=8, byz=True, adversaries=3,
        nbytes=192 * CACHE_LINE,
    ), True),
    "byz_small": (FaultCampaign(
        trials=4, seed=12, byz=True, adversaries=3, config=_SMALL,
        nbytes=192 * CACHE_LINE,
        kinds=(FaultKind.EQUIVOCATE, FaultKind.LIE_IN_QUORUM),
    ), False),
    "adaptive": (FaultCampaign(
        trials=12, seed=9, service=True, fault_rate=0.3,
        fidelity="adaptive", config=_SMALL,
        kinds=(FaultKind.DROP_FLAG_WRITE, FaultKind.CORE_CRASH),
    ), False),
    "adaptive_byz": (FaultCampaign(
        trials=3, seed=10, byz=True, fault_rate=0.5, fidelity="adaptive",
        config=_SMALL,
    ), False),
}

#: The soak's generator at the seed that drew the forged holder vote
#: (ROADMAP item 2); 60 schedules so entry #58, now refused, is in the
#: golden.
CHAOS_SEED = 10
CHAOS_SCHEDULES = 60

_RUN_FIELDS = (
    "outcome", "latency", "n_injected", "n_recovered", "n_evicted",
    "ttd", "ttr", "tte", "n_self_evict", "n_report_failed",
)
_LEGS = ("ft", "baseline", "service", "byz")


def _trial(trial) -> dict:
    out = {}
    for leg in _LEGS:
        run = getattr(trial, leg)
        out[leg] = None if run is None else {
            f: getattr(run, f) for f in _RUN_FIELDS
        }
    return out


def _counts(counter) -> dict | None:
    return None if counter is None else dict(sorted(counter.items()))


def _campaign_result(result) -> dict:
    # The golden's format: one key per leg, an absent leg as null except
    # ``ft_counts`` (empty for a Byzantine campaign), an unmeasured
    # latency as 0.0.
    counts = {"ft": {}, **result.counts}
    return {
        "trials": [_trial(t) for t in result.trials],
        **{f"{leg}_counts": _counts(counts.get(leg)) for leg in _LEGS},
        "base_latency": result.latency["baseline"],
        **{f"{leg}_latency": result.latency.get(leg, 0.0)
           for leg in ("ft", "service", "byz")},
        "profile": dict(sorted(result.profile.items())),
        "fidelity": result.fidelity,
        "timeline": [[r.time, r.kind, r.source] for r in result.timeline],
        "summary_sha256": hashlib.sha256(
            campaign_summary(result).encode()
        ).hexdigest(),
    }


def dump_campaign(campaign: FaultCampaign, parallel: bool) -> dict:
    out = {"plans": [p.describe() for p in campaign.trial_plans()]}
    out.update(_campaign_result(campaign.run()))
    if parallel:
        out["jobs2_equal"] = (
            _campaign_result(campaign.run_trials(jobs=2))
            == {k: v for k, v in out.items() if k != "plans"}
        )
    return out


def dump_chaos(generator: ScheduleGenerator, n: int) -> list[dict]:
    rows = []
    for schedule in generator.generate(n):
        out = run_schedule(schedule)
        rows.append({
            "schedule": schedule.describe(),
            "classification": out.classification,
            "status": out.status,
            "digest": out.digest,
            "n_injected": out.n_injected,
            "n_recovered": out.n_recovered,
            "latency": out.latency,
            "invariants": list(out.invariants),
        })
    return rows


def dump_profile_counts() -> dict:
    out = {}
    for backend in ("scc", "asyncio"):
        for mesh in ((2, 1), (2, 2)):
            for chunks in (1, 2):
                for mode in ("baseline", "ft", "service", "byz"):
                    key = f"{backend}/{mesh[0]}x{mesh[1]}/{chunks}ch/{mode}"
                    counts = profile_counts(backend, mesh, chunks, mode)
                    out[key] = dict(sorted(counts.items()))
    return out


def dump_scenarios() -> dict:
    out = {}
    for name in sorted(SCENARIOS):
        for seed in (0, 1):
            for backend, runner in (("scc", run_scc), ("asyncio", run_asyncio)):
                res = runner(name, seed)
                faults = res.faults
                out[f"{name}/seed{seed}/{backend}"] = {
                    "digest": res.digest,
                    "outcomes": list(res.outcomes),
                    "n_records": len(res.records),
                    "end_time": res.records[-1].time,
                    "n_injected": 0 if faults is None else faults.n_injected,
                    "n_recovered": 0 if faults is None else faults.n_recovered,
                }
    return out


def dump_churn() -> dict:
    campaign = ChurnCampaign(trials=4, seed=1, broadcasts=4, config=_SMALL)
    result = campaign.run()
    fields = (
        "outcome", "completed", "n_injected", "n_false_evicted",
        "n_refused", "n_i8_violations",
    )

    def trial(t):
        return None if t is None else {f: getattr(t, f) for f in fields}

    return {
        "plans": [p.describe() for p in campaign.trial_plans()],
        "profile": dict(sorted(campaign.profile_sites().items())),
        "adaptive_latency": campaign.latency_once(adaptive=True),
        "fixed_latency": campaign.latency_once(adaptive=False),
        "trials": [[trial(a), trial(f)] for a, f in result.trials],
        "adaptive_counts": _counts(result.counts["adaptive"]),
        "fixed_counts": _counts(result.counts.get("fixed")),
        "summary_sha256": hashlib.sha256(
            churn_summary(result).encode()
        ).hexdigest(),
    }


#: section name -> builder; the tier-1 test runs one section per case.
SECTIONS = {
    "campaigns": lambda: {
        name: dump_campaign(c, parallel)
        for name, (c, parallel) in CAMPAIGNS.items()
    },
    "chaos": lambda: dump_chaos(
        ScheduleGenerator(seed=CHAOS_SEED), CHAOS_SCHEDULES
    ),
    # The fragile baseline loses on purpose: deadlocks and wrong bytes
    # on both backends, i.e. the run-ending ladder the hardened soak
    # above (almost) never reaches.
    "chaos_fragile": lambda: dump_chaos(
        ScheduleGenerator(
            seed=8, modes=("baseline", "baseline", "ft"), fragile=True,
            meshes=((2, 2), (3, 2)),
        ), 16,
    ),
    "profile_counts": dump_profile_counts,
    "scenarios": dump_scenarios,
    "churn": dump_churn,
}


def build() -> dict:
    # Through JSON and back, so tuples/lists and int/float keys compare
    # the way the committed file reads.
    return json.loads(render({name: fn() for name, fn in SECTIONS.items()}))


def render(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def diff(want, got, path: str = "") -> list[str]:
    """Paths (``campaigns.byz3.trials[2].byz.latency``) where two dumps
    differ, with both values."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = []
        for key in sorted(set(want) | set(got)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in want or key not in got:
                out.append(f"{sub}: only in "
                           f"{'golden' if key in want else 'this tree'}")
            else:
                out.extend(diff(want[key], got[key], sub))
        return out
    if isinstance(want, list) and isinstance(got, list) \
            and len(want) == len(got):
        out = []
        for i, (w, g) in enumerate(zip(want, got)):
            out.extend(diff(w, g, f"{path}[{i}]"))
        return out
    return [] if want == got else [f"{path}: golden {want!r}, got {got!r}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="regenerate and diff against the committed golden "
             "instead of rewriting it",
    )
    args = parser.parse_args(argv)
    doc = build()
    if not args.check:
        GOLDEN_PATH.write_text(render(doc))
        print(f"wrote {GOLDEN_PATH}")
        return 0
    drift = diff(json.loads(GOLDEN_PATH.read_text()), doc)
    for line in drift:
        print(f"DRIFT {line}")
    print(f"harness outcomes: {len(drift)} field(s) differ from "
          f"{GOLDEN_PATH.name}")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
