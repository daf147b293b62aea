"""The chaos engine: schedules, runner, shrinker, bundles, soak, CLI.

What is pinned here (docs/FAULTS.md §9):

- **Schedule validity layering**: :meth:`ChaosSchedule.validate` rejects
  backend/mode-incoherent schedules (core-primitive kinds off the SCC
  backend, adversary kinds outside Byzantine mode, network models off
  asyncio) *on top of* the existing :class:`FaultPlan` rules.
- **Deterministic classification**: running a schedule twice produces
  identical classification, status and decision digest -- the property
  repro bundles rely on; fault-free digests also agree *across*
  backends.
- **The acceptance counterexample**: a deliberately fragile baseline
  (``ft=False``) under dropped flag writes is a violation, the ddmin
  shrinker reduces it to <= 3 fault events, and the written bundle
  replays to the identical classification and digest.
- **Campaign trials are schedules**: a lost :class:`FaultCampaign`
  trial's bundle is the schedule the trial ran as, and replays that
  trial's status and simulated latency (self-reproducing failures).

``TrialRun``-style ``detail`` strings are *not* compared anywhere: the
watchdog names one of several stalled processes nondeterministically
(pre-existing kernel behaviour, see test_analytic.py); classification,
status, counts and digests are the deterministic surface.
"""

import json
import os
import re
from dataclasses import replace

import pytest

from repro.bench import FaultCampaign
from repro.chaos import (
    BACKENDS, ChaosSchedule, ModelSpec, ReproBundle, ScheduleGenerator,
    make_bundle, run_schedule, run_soak, shrink,
    write_bundle, write_campaign_bundles,
)
from repro.chaos.runner import chaos_status
from repro.cli import main as cli_main
from repro.faults import FaultKind, FaultSpec
from repro.obs import MetricsRegistry
from repro.scc import ContentionMode, SccConfig
from repro.scc.config import CACHE_LINE

# -- schedules ---------------------------------------------------------------


def _drop_flag(nth: int) -> FaultSpec:
    return FaultSpec(FaultKind.DROP_FLAG_WRITE, nth=nth)


class TestScheduleValidity:
    def test_fault_free_schedule_validates(self):
        for backend in BACKENDS:
            ChaosSchedule(backend=backend).validate()

    def test_core_kinds_rejected_off_scc(self):
        s = ChaosSchedule(
            backend="asyncio",
            specs=(FaultSpec(FaultKind.CORE_PAUSE, core=1, duration=200.0),),
        )
        with pytest.raises(ValueError, match="core primitives"):
            s.validate()

    def test_adversary_kinds_need_byz(self):
        s = ChaosSchedule(
            mode="service",
            specs=(FaultSpec(FaultKind.EQUIVOCATE, core=0, duration=1),),
        )
        with pytest.raises(ValueError, match="byz"):
            s.validate()

    def test_models_only_on_asyncio(self):
        s = ChaosSchedule(backend="scc", model=ModelSpec(name="uniform",
                                                         lo=0.1, hi=1.0))
        with pytest.raises(ValueError, match="asyncio"):
            s.validate()

    def test_out_of_range_coordinates_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ChaosSchedule(
                mesh=(2, 1),
                specs=(FaultSpec(FaultKind.LINK_DOWN, core=99,
                                 duration=200.0),),
            ).validate()
        with pytest.raises(ValueError, match="crash rank"):
            ChaosSchedule(mesh=(2, 1), crash=(99, "oc.fetch", 1)).validate()
        with pytest.raises(ValueError, match="partition group"):
            ChaosSchedule(
                backend="asyncio", mesh=(2, 1),
                model=ModelSpec(name="partition", groups=((0, 1), (99,)),
                                heal_at=100.0),
            ).validate()

    def test_plan_overlap_delegated_to_fault_rules(self):
        s = ChaosSchedule(specs=(_drop_flag(3), _drop_flag(3)))
        with pytest.raises(ValueError):
            s.validate()

    def test_json_round_trip(self):
        s = ChaosSchedule(
            backend="asyncio", mesh=(3, 2), cache_lines=192, mode="byz",
            seed=99,
            specs=(FaultSpec(FaultKind.EQUIVOCATE, core=0, duration=1),),
            crash=None,
            model=ModelSpec(name="linkdrop", p=0.05, lo=0.05, hi=2.0),
            label="pinned", ft_ack_data=True,
        )
        assert ChaosSchedule.from_json(s.to_json()) == s
        d = s.to_dict()
        d["version"] = 999
        with pytest.raises(ValueError, match="version"):
            ChaosSchedule.from_dict(d)

    @pytest.mark.parametrize("extra, match", [
        ({"chunk": 3}, "schedule: unknown key.*'chunk'"),
        ({"k": 0}, "'k' is the constant 7"),
        ({"chunk_lines": -5}, "'chunk_lines' is the constant 96"),
        ({"num_buffers": 9}, "'num_buffers' is the constant 2"),
        ({"model": {"name": "uniform", "high": 2.0}},
         "network model: unknown key.*'high'"),
        ({"specs": [{"kind": "drop_flag_write", "nht": 2}]},
         "fault spec: unknown key.*'nht'"),
        ({"config": {"contention_mod": "exact"}},
         "schedule config: unknown key.*'contention_mod'"),
        ({"config": {"mesh_cols": 3}},
         "schedule config: unknown key.*'mesh_cols'"),
        ({"chunks": 2}, "give 'chunks' or 'cache_lines'"),
    ], ids=["typo", "k", "chunk_lines", "num_buffers", "model-key",
            "spec-key", "config-key", "config-mesh", "two-lengths"])
    def test_codec_rejects_what_it_does_not_understand(self, extra, match):
        """A typo'd or out-of-range key used to be ignored or to
        mis-simulate (nbytes == -160, a raw MemoryError)."""
        with pytest.raises(ValueError, match=match):
            ChaosSchedule.from_dict({**ChaosSchedule().to_dict(), **extra})

    def test_retired_keys_load_at_their_constant_and_are_not_written(self):
        s = ChaosSchedule(seed=4, specs=(_drop_flag(2),))
        d = s.to_dict()
        retired = {"k": 7, "chunk_lines": 96, "num_buffers": 2,
                   "ft_max_retries": 3}
        assert not retired.keys() & d.keys()
        assert ChaosSchedule.from_dict({**d, **retired}) == s

    def test_length_and_chip_config(self):
        """A length in cache lines and the chip fields beyond the mesh
        survive the codec; a version-1 ``"chunks"`` length still loads,
        and ``describe`` keeps ``Nch`` for whole chunks."""
        s = ChaosSchedule(
            mode="ft", cache_lines=100,
            config={"contention_mode": ContentionMode.EXACT,
                    "exact_coalescing": False},
        )
        d = s.to_dict()
        assert d["config"] == {"contention_mode": "exact",
                               "exact_coalescing": False}
        assert ChaosSchedule.from_json(s.to_json()) == s
        assert (s.chunks, s.nbytes) == (2, 100 * CACHE_LINE)
        assert s.scc_config() == SccConfig(
            mesh_cols=2, mesh_rows=2, contention_mode=ContentionMode.EXACT,
            exact_coalescing=False,
        )
        assert "100CL contention_mode=exact exact_coalescing=False" \
            in s.describe()
        del d["cache_lines"]
        legacy = ChaosSchedule.from_dict({**d, "chunks": 3})
        assert legacy.cache_lines == 288 and " 3ch " in legacy.describe()

    @pytest.mark.parametrize("kwargs, match", [
        (dict(cache_lines=0), "cache_lines"),
        (dict(backend="asyncio", config={"jitter": 0.1}), "scc backend"),
        (dict(config={"o_mpb": -1.0}), "o_mpb"),
        (dict(config={"contention_mode": "exactly"}), "ContentionMode"),
        (dict(config={"cores_per_tile": 1}), "unknown key.*cores_per_tile"),
    ], ids=["no-length", "config-off-scc", "bad-value", "bad-mode",
            "geometry"])
    def test_bad_length_or_config_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ChaosSchedule(**kwargs).validate()

    def test_without_event_order(self):
        s = ChaosSchedule(
            backend="asyncio",
            specs=(_drop_flag(1), _drop_flag(4)),
            crash=(1, "oc.fetch", 1),
            model=ModelSpec(name="linkdrop", p=0.02),
        )
        assert s.n_events == 4
        assert s.without_event(0).specs == (_drop_flag(4),)
        assert s.without_event(2).crash is None
        assert s.without_event(3).model is None
        with pytest.raises(IndexError):
            s.without_event(4)


# -- runner / classification -------------------------------------------------


class TestRunnerClassification:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode", ["service", "byz", "ft", "baseline"])
    def test_fault_free_delivers(self, backend, mode):
        out = run_schedule(ChaosSchedule(backend=backend, mode=mode, seed=4))
        assert out.classification == "tolerated"
        assert out.status == "delivered"
        assert out.ok and not out.invariants
        assert out.digest

    @pytest.mark.parametrize("mode", ["service", "ft"])
    def test_fault_free_digest_matches_across_backends(self, mode):
        digests = {
            backend: run_schedule(
                ChaosSchedule(backend=backend, mode=mode, seed=4)
            ).digest
            for backend in BACKENDS
        }
        assert digests["scc"] == digests["asyncio"]

    def test_run_is_deterministic(self):
        s = ChaosSchedule(mode="service", seed=13, specs=(_drop_flag(2),))
        a, b = run_schedule(s), run_schedule(s)
        assert (a.classification, a.status, a.digest, a.n_injected) \
            == (b.classification, b.status, b.digest, b.n_injected)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ft_masks_dropped_flag(self, backend):
        out = run_schedule(ChaosSchedule(
            backend=backend, mode="ft", seed=7, specs=(_drop_flag(2),),
        ))
        assert out.classification == "tolerated"
        assert out.status == "recovered"
        assert out.n_injected >= 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_service_survives_member_crash(self, backend):
        out = run_schedule(ChaosSchedule(
            backend=backend, mode="service", mesh=(2, 2), seed=9,
            crash=(3, "oc.fetch", 1),
        ))
        assert out.classification == "tolerated"
        assert out.status == "recovered"

    def test_byz_source_equivocation_is_not_a_violation(self):
        # Bracha validity only binds for an honest source: uniform
        # agreement on the attacker's variant must classify tolerated.
        out = run_schedule(ChaosSchedule(
            mode="byz", mesh=(2, 2), seed=21,
            specs=(FaultSpec(FaultKind.EQUIVOCATE, core=0, nth=1,
                             duration=1),),
        ))
        assert out.classification in ("tolerated", "refused")
        assert out.status != "corrupt"

    def test_asyncio_partition_heals_inside_suspicion(self):
        out = run_schedule(ChaosSchedule(
            backend="asyncio", mode="service", mesh=(2, 2), seed=5,
            model=ModelSpec(name="partition", groups=((0, 1, 2, 3, 4, 5),
                                                      (6, 7)),
                            heal_at=400.0),
        ))
        assert out.ok

    def test_baseline_under_drops_is_a_violation(self):
        out = run_schedule(_broken_schedule())
        assert out.classification == "violation"
        assert out.status == "deadlock"
        assert not out.ok


def _broken_schedule() -> ChaosSchedule:
    """The acceptance-criteria demo: ``ft=False`` under dropped flag
    writes deadlocks (a receiver spins on a flag that never flips).
    Only the core-1 drop is load-bearing; the other two events exist
    for the shrinker to strip."""
    return ChaosSchedule(
        backend="scc", mesh=(4, 3), cache_lines=192, mode="baseline",
        seed=17,
        specs=(
            FaultSpec(FaultKind.DROP_FLAG_WRITE, core=1, nth=2),
            FaultSpec(FaultKind.DROP_FLAG_WRITE, core=3, nth=1),
            FaultSpec(FaultKind.DROP_FLAG_WRITE, core=5, nth=3),
        ),
        label="broken-config demo",
    )


# -- shrinker ----------------------------------------------------------------


class TestShrinker:
    def test_broken_config_shrinks_to_three_events_or_fewer(self):
        result = shrink(_broken_schedule())
        assert result.target == ("violation", "deadlock")
        assert result.shrunk
        assert result.schedule.n_events <= 3
        assert result.outcome.classification == "violation"
        assert result.outcome.status == "deadlock"
        # 1-minimality: no remaining event can be removed.
        for i in range(result.schedule.n_events):
            leaner = result.schedule.without_event(i)
            out = run_schedule(leaner)
            assert (out.classification, out.status) \
                != ("violation", "deadlock"), i

    def test_wrong_target_rejected(self):
        with pytest.raises(ValueError, match="does not reproduce"):
            shrink(ChaosSchedule(seed=3), target=("violation", "deadlock"))

    def test_run_budget_respected(self):
        result = shrink(_broken_schedule(), max_runs=5)
        assert result.n_runs <= 5


# -- bundles -----------------------------------------------------------------


class TestBundles:
    def test_round_trip_and_faithful_replay(self, tmp_path):
        outcome = run_schedule(_broken_schedule())
        path = write_bundle(outcome, str(tmp_path))
        loaded = ReproBundle.load(path)
        assert loaded.schedule == outcome.schedule
        replayed, mismatches = loaded.replay()
        assert mismatches == []
        assert replayed.digest == outcome.digest

    def test_replay_flags_divergence(self):
        outcome = run_schedule(ChaosSchedule(seed=2))
        bundle = make_bundle(outcome)
        forged = ReproBundle(
            schedule=bundle.schedule,
            expected={**bundle.expected, "digest": "bogus",
                      "status": "deadlock"},
        )
        _, mismatches = forged.replay()
        assert len(mismatches) == 2

    def test_collision_suffixing(self, tmp_path):
        outcome = run_schedule(ChaosSchedule(seed=2))
        first = write_bundle(outcome, str(tmp_path))
        second = write_bundle(outcome, str(tmp_path))
        assert first != second
        assert json.load(open(first)) == json.load(open(second))

    def test_version_gate(self):
        outcome = run_schedule(ChaosSchedule(seed=2))
        d = make_bundle(outcome).to_dict()
        d["version"] = 999
        with pytest.raises(ValueError, match="version"):
            ReproBundle.from_dict(d)


    @pytest.mark.parametrize("expected", [
        {}, {"clasification": "tolerated"},
    ], ids=["empty", "misspelt"])
    def test_expectation_that_compares_nothing_is_rejected(self, expected):
        """Such a bundle used to replay as ``[OK]`` whatever happened."""
        d = {"schedule": ChaosSchedule().to_dict(), "expected": expected}
        with pytest.raises(ValueError, match="expect"):
            ReproBundle.from_dict(d)

    def test_unknown_bundle_key_rejected(self):
        d = {"schedule": ChaosSchedule().to_dict(),
             "expected": {"status": "delivered"}, "expects": {}}
        with pytest.raises(ValueError, match="bundle: unknown key.*'expects'"):
            ReproBundle.from_dict(d)


# -- campaign trials are schedules (self-reproducing failures) -------------


def _corrupt_data_campaign(**kw) -> FaultCampaign:
    # Bare FT has no integrity layer: corrupted data lines are lost
    # trials by design, exactly the kind that must self-reproduce.
    return FaultCampaign(
        trials=1, seed=6, compare_baseline=False,
        kinds=(FaultKind.CORRUPT_DATA_WRITE,), **kw,
    )


class TestCampaignBridge:
    def test_lost_campaign_trials_become_replayable_bundles(self, tmp_path):
        campaign = _corrupt_data_campaign()
        result = campaign.run()
        assert result.lost(), "corrupt-data campaign should lose FT trials"
        written = write_campaign_bundles(
            campaign, result, str(tmp_path), limit=2
        )
        assert 1 <= len(written) <= 2
        for path, leg, index in written:
            bundle = ReproBundle.load(path)
            assert bundle.meta["leg"] == leg
            assert bundle.meta["trial_index"] == index
            assert set(bundle.expected) == {"status", "n_injected"}
            _, mismatches = bundle.replay()
            assert mismatches == []

    @pytest.mark.parametrize("campaign", [
        _corrupt_data_campaign(
            config=SccConfig(contention_mode=ContentionMode.EXACT)
        ),
        _corrupt_data_campaign(nbytes=100 * CACHE_LINE),
    ], ids=["exact", "100cl"])
    def test_campaign_bundle_replays_its_own_trial(self, campaign, tmp_path):
        """The bundle of a lost trial is the trial's own schedule: the
        same payload and specs, the campaign's contention mode and exact
        length -- so its replay reports the trial's status *and*
        simulated latency.  (A converted schedule used to replay in
        BATCH, or rounded up to whole chunks, and still print ``[OK]``.)"""
        result = campaign.run()
        [(path, leg, index)] = write_campaign_bundles(
            campaign, result, str(tmp_path)
        )
        trial = result.trials[index]
        run = getattr(trial, leg)
        bundle = ReproBundle.load(path)
        assert bundle.schedule == campaign.trial_schedule(trial.plan, leg)
        assert bundle.schedule.specs == trial.plan.specs
        assert bundle.schedule.nbytes == campaign.nbytes
        outcome, mismatches = bundle.replay()
        assert mismatches == []
        assert (outcome.status, outcome.latency) == (
            chaos_status(run.verdict)[0], run.latency
        )


# -- generator + soak --------------------------------------------------------


class TestSoak:
    def test_hardened_soak_is_violation_free(self):
        gen = ScheduleGenerator(seed=3, meshes=((2, 2), (3, 2)))
        metrics = MetricsRegistry()
        result = run_soak(gen, trials=12, jobs=1, metrics=metrics)
        assert result.n_trials == 12
        assert result.ok
        assert sum(result.counts.values()) == 12
        assert metrics.flat()["chaos.trials"] == 12
        assert "zero violations" in result.summary()

    def test_fragile_soak_shrinks_and_bundles(self, tmp_path):
        gen = ScheduleGenerator(
            seed=8, backends=("scc",), meshes=((2, 2),),
            modes=("baseline",), fragile=True,
        )
        result = run_soak(
            gen, trials=8, jobs=1, out_dir=str(tmp_path), shrink_runs=40,
        )
        assert not result.ok
        assert result.violations and result.bundles
        assert len(result.shrinks) == len(result.violations)
        for path in result.bundles:
            _, mismatches = ReproBundle.load(path).replay()
            assert mismatches == []
        assert "counterexample" in result.summary()

    def test_baseline_mode_needs_fragile_opt_in(self):
        with pytest.raises(ValueError, match="fragile"):
            ScheduleGenerator(modes=("baseline",))

    @pytest.mark.parametrize("kwargs,field", [
        (dict(max_chunks=0), "max_chunks"),
        (dict(backends=()), "backends"),
        (dict(meshes=()), "meshes"),
        (dict(modes=()), "modes"),
        (dict(backends=("tcp",)), "backends"),
        (dict(backends=("scc", "tcp")), "backends"),
        (dict(modes=("service", "election")), "modes"),
    ], ids=[
        "zero-chunks", "no-backends", "no-meshes", "no-modes",
        "unknown-backend", "one-unknown-backend", "unknown-mode",
    ])
    def test_bad_bounds_rejected_at_construction(self, kwargs, field):
        """Each bound that would only fail mid-draw -- in ``randrange``,
        ``rng.choice`` or after 64 rejected draws -- names its field when
        the generator is built."""
        with pytest.raises(ValueError, match=f"^{field} must"):
            ScheduleGenerator(**kwargs)


# -- pinned bundles ----------------------------------------------------------

_BUNDLE_DIR = os.path.join(os.path.dirname(__file__), "chaos_bundles")
_PINNED = sorted(
    os.path.join(_BUNDLE_DIR, f)
    for f in os.listdir(_BUNDLE_DIR) if f.endswith(".json")
)


@pytest.mark.chaos
class TestPinnedBundles:
    """Tier-1 chaos smoke: the committed bundles must replay to their
    recorded classification, status, digest and injection count on
    every build -- a drift in any of those is a protocol or
    determinism regression, not a flake."""

    def test_pinned_coordinates_are_all_present(self):
        assert len(_PINNED) == 6

    @pytest.mark.parametrize(
        "path", _PINNED, ids=[os.path.basename(p) for p in _PINNED]
    )
    def test_pinned_bundle_replays_exactly(self, path):
        bundle = ReproBundle.load(path)
        outcome, mismatches = bundle.replay()
        assert mismatches == [], outcome.describe()

    def test_pinned_set_spans_the_classification_space(self):
        got = set()
        for path in _PINNED:
            got.add(ReproBundle.load(path).expected["classification"])
        assert got == {"tolerated", "refused", "violation"}


_FORGED_VOTE = [p for p in _PINNED if "forged-holder-vote" in p]


@pytest.mark.chaos
class TestForgedHolderVote:
    """ROADMAP item 1's open safety violation as a file: root crash
    before staging + one corrupted heartbeat flag write, on both
    backends.  The bundles record what the protocol does today
    (``violation/corrupt``, replayed bit-for-bit by
    :class:`TestPinnedBundles`); the strict xfail states what it must
    do, so the protocol fix flips one marker and re-records two files
    instead of re-deriving the schedule."""

    def test_recorded_on_both_backends_with_one_digest(self):
        bundles = [ReproBundle.load(p) for p in _FORGED_VOTE]
        assert sorted(b.schedule.backend for b in bundles) == ["asyncio", "scc"]
        assert len({b.expected["digest"] for b in bundles}) == 1
        assert all(b.schedule.model is None for b in bundles)

    @pytest.mark.parametrize(
        "path", _FORGED_VOTE, ids=[os.path.basename(p) for p in _FORGED_VOTE]
    )
    def test_schedule_is_one_minimal(self, path):
        """Neither event, chunk, mesh step nor halving can go: without
        the corrupt write the run is refused, without the crash it is
        tolerated."""
        schedule = ReproBundle.load(path).schedule
        assert schedule.n_events == 2
        result = shrink(schedule)
        assert not result.shrunk and result.schedule == schedule
        no_corrupt = run_schedule(replace(schedule, specs=()))
        no_crash = run_schedule(replace(schedule, crash=None))
        assert (no_corrupt.classification, no_crash.classification) == (
            "refused", "tolerated"
        )

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1(b): a single forged heartbeat value still "
               "names a data source; seven survivors commit all-zero bytes",
    )
    @pytest.mark.parametrize(
        "path", _FORGED_VOTE, ids=[os.path.basename(p) for p in _FORGED_VOTE]
    )
    def test_forged_holder_vote_is_not_committed(self, path):
        outcome = run_schedule(ReproBundle.load(path).schedule)
        assert outcome.classification in ("refused", "tolerated"), (
            outcome.describe()
        )


# -- CLI ---------------------------------------------------------------------


class TestChaosCli:
    def test_soak_smoke(self, capsys):
        rc = cli_main(["chaos", "--trials", "8", "--seed", "2",
                       "--meshes", "2x2", "--jobs", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Chaos soak: 8 schedules" in out

    def test_replay_pinned_bundle(self, tmp_path, capsys):
        outcome = run_schedule(ChaosSchedule(seed=2))
        path = write_bundle(outcome, str(tmp_path))
        assert cli_main(["chaos", "--replay", path]) == 0
        assert "[OK]" in capsys.readouterr().out

    def test_replay_mismatch_fails(self, tmp_path, capsys):
        outcome = run_schedule(ChaosSchedule(seed=2))
        bundle = make_bundle(outcome)
        forged = ReproBundle(
            schedule=bundle.schedule,
            expected={**bundle.expected, "digest": "bogus"},
        )
        path = str(tmp_path / "forged.json")
        forged.save(path)
        assert cli_main(["chaos", "--replay", path]) == 1
        assert "[MISMATCH]" in capsys.readouterr().out

    def test_baseline_without_fragile_is_usage_error(self, capsys):
        rc = cli_main(["chaos", "--trials", "1", "--modes", "baseline"])
        assert rc == 2
        assert "fragile" in capsys.readouterr().err

    def test_zero_trials_is_usage_error(self, capsys):
        assert cli_main(["chaos", "--trials", "0"]) == 2
        assert "ERROR" in capsys.readouterr().err

    def test_bad_mesh_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["chaos", "--trials", "1", "--meshes", "wide"])

    def test_faults_bundle_dir_emits_repro_lines(self, tmp_path, capsys):
        rc = cli_main([
            "faults", "--trials", "3", "--seed", "6", "--no-baseline",
            "--kinds", "corrupt_data", "--jobs", "1",
            "--bundle-dir", str(tmp_path),
        ])
        assert rc == 1  # lost trials: that is the point
        out = capsys.readouterr().out
        assert "repro: PYTHONPATH=src python -m repro chaos --replay" in out
        assert list(tmp_path.glob("campaign-seed6-trial*.json"))

    def test_faults_timeouts_are_not_lost_trials(self, tmp_path, capsys):
        """A root crash exhausts bare FT's retry budget (``timeout``)
        while the service uniformly aborts: both are refusals, so the
        campaign passes and writes no bundle -- the chaos runner
        classifies such a trial ``refused``, not a violation."""
        rc = cli_main([
            "faults", "--trials", "2", "--service", "--no-baseline",
            "--kinds", "crash", "--crash-site", "root", "--mid-stream",
            "--cache-lines", "288", "--mesh-cols", "1", "--mesh-rows", "1",
            "--jobs", "1", "--bundle-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert re.search(r"timeout\s+2\s+0\n", out)  # FT, service
        assert re.search(r"aborted\s+0\s+2\n", out)
        assert "lost trial" not in out
        assert not list(tmp_path.iterdir())
