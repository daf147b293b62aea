"""A quiet injector changes nothing: its countdowns against the loud reference.

An attached :class:`~repro.faults.FaultInjector` is entered only at an
armed occurrence (``repro.faults.injector``, "Countdowns"), and a leg
script consumes the occurrences of the per-op loop it replaces in bulk
when none of them is armed.  So a run under a *quiet* injector -- an
empty plan, or specs whose occurrences no script covers -- runs the leg
scripts, and must equal the *loud* reference: the same world under the
same plan plus one unfired chip-wide ``LINK_STALL`` at ``nth=2**62``,
which makes every MPB transaction enter the injector and so keeps every
script off.  Equal means ``==`` on the timed trace record list, each
rank's value, every ``CoreStats`` field, per MPB port ``stats()`` (the
virtual-stretch fields apart, busy time to 1e-9), the injector's
``counts`` and its injection records (time, spec, site).

Covered: BATCH, EXACT and IDEAL; ``ft``, ``service`` and ``byz``; 2x2
and 6x4 meshes; a CORE_PAUSE, per-core LINK_STALL or CORE_CRASH whose
nth falls inside a vote cast or an EXACT transfer (the fall-back: the
per-op loop runs there and fires at the same occurrence and instant);
and storm, flap and link-down regimes that end, after which the scripts
resume.
"""

import pytest

from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.scc import ContentionMode, SccConfig
from repro.transport.world import (
    bcast_body, mode_config, run_world, scc_world, seeded_payload,
)

pytestmark = pytest.mark.differential

BATCH, EXACT, IDEAL = ContentionMode.BATCH, ContentionMode.EXACT, ContentionMode.IDEAL
#: Unfired chip-wide spec: every MPB transaction enters the injector.
LOUD = FaultSpec(FaultKind.LINK_STALL, nth=2**62, duration=1.0)
#: Port fields only a virtual stretch moves (busy time compared to 1e-9).
STRETCH_FIELDS = ("busy_time", "utilisation", "coalesced_runs", "coalesced_cycles")


def _run(mode: str, contention: ContentionMode, mesh, specs, *, loud: bool,
         probe=None) -> dict:
    """One broadcast of ``mode`` under ``specs`` (plus :data:`LOUD` for
    the reference); everything that must be ``==``.  ``probe(chip,
    rec)`` sees every trace record as it is emitted."""
    cols, rows = mesh
    world = scc_world(
        SccConfig(mesh_cols=cols, mesh_rows=rows, contention_mode=contention),
        plan=FaultPlan((*specs, LOUD) if loud else specs), trace=True,
        watchdog_us=100_000.0,
    )
    chip = world.chip
    if probe is not None:
        chip.tracer.add_listener(lambda rec: probe(chip, rec))
    payload = seeded_payload(cols * 31 + rows, 96 * 32)
    run = run_world(world, bcast_body(world, mode_config(mode), payload))
    ports = [m.port.stats() for m in chip.mpbs]
    faults = chip.faults
    return {
        "status": run.status,
        "values": run.values,
        "records": run.records,
        "stats": [c.stats.as_dict() for c in chip.cores],
        "ports": [{k: v for k, v in p.items() if k not in STRETCH_FIELDS}
                  for p in ports],
        "busy": [p["busy_time"] for p in ports],
        "counts": faults.counts,
        "injected": [(r.time, r.spec, r.site) for r in faults.injected],
        "events": chip.sim.events_scheduled,
        "chip": chip,
    }


def _assert_quiet_equals_loud(mode, contention, mesh, specs=()) -> tuple[dict, dict]:
    quiet = _run(mode, contention, mesh, specs, loud=False)
    loud = _run(mode, contention, mesh, specs, loud=True)
    for key in ("status", "values", "records", "stats", "ports", "counts", "injected"):
        assert quiet[key] == loud[key], key
    assert quiet["busy"] == pytest.approx(loud["busy"], rel=1e-9, abs=0.0)
    return quiet, loud


@pytest.mark.parametrize("mesh", [(2, 2), (6, 4)], ids=["2x2", "6x4"])
@pytest.mark.parametrize("contention", [BATCH, EXACT, IDEAL], ids=["batch", "exact", "ideal"])
@pytest.mark.parametrize("mode", ["ft", "service", "byz"])
def test_empty_plan_runs_the_scripts_and_equals_the_loud_loop(mode, contention, mesh):
    quiet, loud = _assert_quiet_equals_loud(mode, contention, mesh)
    assert quiet["status"] == ""
    assert quiet["counts"]["core_op"] > 0 and quiet["counts"]["flag_write"] > 0
    # The scripts ran (fewer events) wherever the run has any: the EXACT
    # transfers, and the byz vote casts in every contention mode.
    if contention is EXACT or mode == "byz":
        assert quiet["events"] < loud["events"]
    else:
        assert quiet["events"] == loud["events"]
    assert all(core.scripts_lines is (contention is EXACT)
               for core in quiet["chip"].cores)
    assert not any(core.scripts_stores for core in loud["chip"].cores)


# -- specs firing inside a script's occurrences --------------------------------


def _inside(mode, contention, kind: str, index: int, counter: str, back: int) -> int:
    """An occurrence number of core 5's ``counter`` (``"ops"`` or
    ``"accesses"``): ``back`` occurrences before its ``index``-th
    ``kind`` record -- inside the vote cast / transfer that emitted it.
    Read off the loud (per-op) run, where the counters tick one by one."""
    seen = []

    def probe(chip, rec):
        if rec.kind == kind and rec.source == "core5":
            seen.append(getattr(chip.cores[5], counter))

    _run(mode, contention, (2, 2), (), loud=True, probe=probe)
    return seen[index] - back


#: (case id, mode, contention, record kind closing the scripted op, its
#: index, counter, occurrences back, spec builder) -- core 5 is a leaf
#: of the 8-core tree: a vote cast writes 8 votes (2 timed primitives
#: and 1 MPB transaction each; the 4th record is mid-cast), and its
#: first EXACT get fetches a 96-line chunk (2m+1 primitives, m
#: transactions).
FALLBACK_CASES = [
    ("pause-in-vote-cast", "byz", BATCH, "vote_write", 3, "ops", 3,
     lambda nth: FaultSpec(FaultKind.CORE_PAUSE, core=5, nth=nth, duration=40.0)),
    ("stall-in-vote-cast", "byz", IDEAL, "vote_write", 3, "accesses", 0,
     lambda nth: FaultSpec(FaultKind.LINK_STALL, core=5, nth=nth, duration=25.0)),
    ("crash-in-vote-cast", "byz", EXACT, "vote_write", 3, "ops", 1,
     lambda nth: FaultSpec(FaultKind.CORE_CRASH, core=5, nth=nth)),
    ("pause-in-transfer", "service", EXACT, "get", 0, "ops", 100,
     lambda nth: FaultSpec(FaultKind.CORE_PAUSE, core=5, nth=nth, duration=40.0)),
    ("stall-in-transfer", "ft", EXACT, "get", 0, "accesses", 50,
     lambda nth: FaultSpec(FaultKind.LINK_STALL, core=5, nth=nth, duration=25.0)),
    ("crash-in-transfer", "service", EXACT, "get", 0, "ops", 77,
     lambda nth: FaultSpec(FaultKind.CORE_CRASH, core=5, nth=nth)),
]


@pytest.mark.parametrize(
    "mode, contention, kind, index, counter, back, build",
    [case[1:] for case in FALLBACK_CASES],
    ids=[case[0] for case in FALLBACK_CASES],
)
def test_a_spec_inside_a_script_fires_where_the_loop_fires_it(
    mode, contention, kind, index, counter, back, build
):
    spec = build(_inside(mode, contention, kind, index, counter, back))
    quiet, _ = _assert_quiet_equals_loud(mode, contention, (2, 2), (spec,))
    [(time, fired, site)] = quiet["injected"]
    assert fired == spec and site.startswith("core5")
    assert time > 0.0


# -- regimes that end ------------------------------------------------------------


REGIMES = {
    "storm": FaultSpec(FaultKind.CONGESTION_STORM, nth=3, duration=30.0, period=5.0),
    "flap": FaultSpec(FaultKind.FLAPPING_LINK, core=2, nth=2, duration=40.0,
                      period=10.0, duty=0.5),
    "link-down": FaultSpec(FaultKind.LINK_DOWN, core=3, nth=2, duration=30.0),
}


@pytest.mark.parametrize("contention", [BATCH, EXACT], ids=["batch", "exact"])
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_scripts_resume_after_a_regime_ends(regime, contention):
    """While the regime is live every occurrence of its category enters
    the injector; once it has ended it is pruned, the countdowns re-arm
    and the vote casts script again -- and the run still equals the
    loud loop."""
    spec = REGIMES[regime]
    quiet, loud = _assert_quiet_equals_loud("byz", contention, (2, 2), (spec,))
    assert [fired for _, fired, _ in quiet["injected"]] == [spec]
    assert quiet["events"] < loud["events"]
    chip = quiet["chip"]
    assert all(core.scripts_stores for core in chip.cores)
    # Every countdown re-armed: no store enters the injector per write.
    assert all(m.flag_writes_arm and m.data_writes_arm for m in chip.mpbs)
