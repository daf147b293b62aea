"""Two schedulers, one program: a scripted vote cast against the store loop.

``Endpoint.vote_cast`` -- the RBC's optimistic all-member vote fan-out --
runs on the SCC as one ``LegScript`` with landings wherever
``Core.scripts_stores`` holds (no jitter, no link model, positive leg
durations, no armed injector occurrence; BATCH, EXACT and IDEAL alike):
``[o_put_mpb, store leg] x n``, each line landing -- bytes, watcher
wake-ups, ``vote_write`` record, ``flags.vote_writes`` metric -- in the
hop that opens the next write, the last one in the owner on wake.  The
reference is the same world under a *loud* injector: an unfired
chip-wide ``LINK_STALL`` at ``nth=2**62`` makes every MPB transaction
enter the injector, which switches every script off, so the same
program runs the per-store generator loop, four wake-ups per vote.
Everything the simulation records must be ``==`` between them: the full
timed record list, each rank's value, every ``CoreStats`` field, every
counter of the metrics registry, and per MPB port ``stats()`` and the
wait histogram.

One more thing must be equal, and it pins *where* a landing runs: at
every trace record, the lengths of the kernel's heap and now-queue.  The
script's hops stand one-for-one where the loop's process resumptions
stand (queued exactly when a resumption would have company), so a
landing that runs anywhere else -- in the timer callback, or after the
next leg's timer push -- shows up there even when no record moves.

EXACT runs twice: with ``exact_coalescing=False`` the cast is the only
script in the world and the comparison is total; with the line scripts
on (the default) the gets' virtual stretches, which the reference cannot
have, leave ``coalesced_*`` and busy time (to 1e-9, see
``test_leg_script_equivalence``) out, and the queue lengths with them.

Mutations of ``Core.store_script`` / ``LegScript`` and the cases of the
65 equivalence cases below that each turns red:

- landing in the timer callback instead of the hop: 57 -- all but six
  small-mesh matrix cases and the two line-script cases;
- landing after the next leg's timer push: 63 -- every case that
  compares queue lengths (at each landing the heap holds one entry
  more), i.e. all but the two line-script cases;
- ``CoreStats`` replayed before the legs, from the leg durations,
  instead of after, from the marks: all 65 (a wait at a port is
  missing, and ``(t + a + b) - (t + a)`` is not ``b`` to the last bit);
- the owner skipping the last landing: all 65.

The four throw cases guard the cancellation instead, and stay green
under all four.
"""

from typing import Generator

import pytest

from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.obs import MetricsRegistry
from repro.obs.metrics import Histogram
from repro.rcce import Comm
from repro.rcce.flags import DigestSlotArray
from repro.scc import ContentionMode, SccChip, SccConfig
from repro.sim import Interrupted, Tracer
from repro.transport.api import CrashOnEvent
from repro.transport.world import (
    bcast_body, mode_config, run_world, scc_world, seeded_payload,
)

from ..test_fastpath_determinism import _RecordingPort

pytestmark = pytest.mark.differential

BATCH, EXACT, IDEAL = ContentionMode.BATCH, ContentionMode.EXACT, ContentionMode.IDEAL
#: mode id -> (contention mode, exact_coalescing).
MODES = {
    "batch": (BATCH, True),
    "ideal": (IDEAL, True),
    "exact": (EXACT, False),
    "exact+lines": (EXACT, True),
}
#: Port fields only a virtual stretch moves (compared apart, or not at all).
STRETCH_FIELDS = ("busy_time", "utilisation", "coalesced_runs", "coalesced_cycles")
#: The reference's plan: a chip-wide spec that never fires, so every MPB
#: transaction enters the injector and no script can run.
LOUD = FaultPlan((FaultSpec(FaultKind.LINK_STALL, nth=2**62, duration=1.0),))


def _byz_world(mode: str, mesh, chunks: int, root: int, *, reference: bool,
               crash=None) -> dict:
    """One byz service broadcast; everything that must be ``==``."""
    contention, coalescing = MODES[mode]
    cols, rows = mesh
    world = scc_world(
        SccConfig(mesh_cols=cols, mesh_rows=rows, contention_mode=contention,
                  exact_coalescing=coalescing),
        plan=LOUD if reference else None, trace=True,
        metrics=MetricsRegistry(), watchdog_us=100_000.0,
        crash_hook=CrashOnEvent(*crash[:2], nth=crash[2]) if crash else None,
    )
    chip = world.chip
    assert chip.cores[0].scripts_stores is not reference
    for mpb in chip.mpbs:
        mpb.port.wait_hist = Histogram(f"mpb{mpb.owner}.wait")
    sim = chip.sim
    queues: list[tuple[int, int]] = []
    chip.tracer.add_listener(
        lambda rec: queues.append((len(sim._heap), len(sim._now_queue)))
    )
    payload = seeded_payload(cols * 31 + rows * 7 + chunks, chunks * 96 * 32)
    run = run_world(world, bcast_body(world, mode_config("byz"), payload, root=root))
    run.check()
    ports = [m.port.stats() for m in chip.mpbs]
    return {
        "records": run.records,
        "values": run.values,
        "stats": [c.stats.as_dict() for c in chip.cores],
        "metrics": chip.metrics.flat(),
        "ports": [{k: v for k, v in p.items() if k not in STRETCH_FIELDS}
                  for p in ports],
        "wait_hist": [
            (h.buckets, h.count, h.total, h.min, h.max)
            for h in (m.port.wait_hist for m in chip.mpbs)
        ],
        "stretch": [[p[k] for k in STRETCH_FIELDS] for p in ports],
        "queues": queues,
        "events": sim.events_scheduled,
    }


def _assert_equivalent(mode: str, *args, **kw) -> dict:
    scripted = _byz_world(mode, *args, reference=False, **kw)
    loop = _byz_world(mode, *args, reference=True, **kw)
    exact = ["records", "values", "stats", "metrics", "ports", "wait_hist"]
    if mode != "exact+lines":
        exact += ["stretch", "queues"]
    for key in exact:
        assert scripted[key] == loop[key], key
    if mode == "exact+lines":
        busy = [s[0] for s in scripted["stretch"]]
        assert busy == pytest.approx([s[0] for s in loop["stretch"]], rel=1e-9, abs=0.0)
    # The script really ran: its hops are fewer scheduled events.
    assert scripted["events"] < loop["events"]
    return scripted


@pytest.mark.parametrize("root", [0, 3])
@pytest.mark.parametrize("chunks", [1, 2, 3])
@pytest.mark.parametrize("mesh", [(2, 2), (3, 2), (6, 4)], ids=["2x2", "3x2", "6x4"])
@pytest.mark.parametrize("mode", ["batch", "exact", "ideal"])
def test_cast_equals_the_store_loop(mode, mesh, chunks, root):
    out = _assert_equivalent(mode, mesh, chunks, root)
    n = 2 * mesh[0] * mesh[1]
    votes = [r for r in out["records"] if r.kind == "vote_write"]
    assert len(votes) == 2 * n * n  # an echo and a ready vote per member pair
    assert out["metrics"]["flags.vote_writes"] == 2 * n * n
    assert all(out_ == ("ok", out["values"][0][1]) for out_ in out["values"])


@pytest.mark.parametrize("mesh", [(2, 2), (6, 4)], ids=["2x2", "6x4"])
def test_cast_equals_the_store_loop_among_line_scripts(mesh):
    """Default EXACT: the casts share the ports with scripted gets whose
    opening stretches run virtually."""
    _assert_equivalent("exact+lines", mesh, 2, 0)


@pytest.mark.parametrize("crash", [
    (0, "rbc.echo", 1), (5, "rbc.echo", 1), (2, "rbc.outcome", 1),
], ids=["root-before-echo", "member-before-echo", "member-before-outcome"])
@pytest.mark.parametrize("mode", ["batch", "exact", "ideal"])
def test_cast_equals_the_store_loop_around_a_crash(mode, crash):
    """A rank dies at an RBC coordinate: the survivors' casts and the
    rounds around the hole run the same on both schedulers."""
    out = _assert_equivalent(mode, (3, 2), 1, 0, crash=crash)
    assert out["values"][crash[0]] == "crashed"


# -- a throw into a rank sleeping mid-cast -------------------------------------


DIGESTS = [0xC0FFEE + member for member in range(8)]


def _cast_world(contention: ContentionMode, *, hog: bool, reference: bool):
    """Core 0 casts one vote into all 8 cores of a 2x2 chip; with
    ``hog``, core 5 starts a 200-line write into core 3's MPB at t=0, so
    core 0's vote for core 3 queues behind it.  Core 3's port records
    when it is requested and freed."""
    chip = SccChip(
        SccConfig(mesh_cols=2, mesh_rows=2, contention_mode=contention),
        tracer=Tracer(enabled=True),
        faults=FaultInjector(LOUD) if reference else None,
    )
    chip.mpbs[3].port = _RecordingPort(chip.sim, name="mpb3.port")
    comm = Comm(chip)
    votes = DigestSlotArray(comm.layout.alloc_lines(2), 8, name="votes")
    landed: list[float] = []
    chip.tracer.add_listener(
        lambda rec: landed.append(rec.time) if rec.kind == "vote_write" else None
    )

    def caster(core) -> Generator:
        cc = comm.attach(core)
        try:
            yield from cc.vote_cast(votes, 0, 1, DIGESTS)
        except Interrupted:
            return "interrupted"
        return "cast"

    def hogger(core) -> Generator:
        yield from core.mpb_access(3, 200, write=True)
        return "done"

    proc = chip.sim.process(caster(chip.cores[0]))
    if hog:
        chip.sim.process(hogger(chip.cores[5]))
    return chip, votes, proc, landed


@pytest.mark.parametrize("contention, phase", [
    (BATCH, "holding"), (BATCH, "queued"), (EXACT, "holding"), (IDEAL, "writing"),
], ids=["batch-holding", "batch-queued", "exact-holding", "ideal-writing"])
def test_throw_mid_cast_lets_go_and_lands_nothing_more(contention, phase):
    """The owner is thrown into while its vote for core 3 is in flight:
    holding core 3's port (it must be released), queued for it behind
    core 5's long hold (the request must be withdrawn, or the port would
    be granted to nobody when core 5 lets go), or -- IDEAL, no port --
    mid-write.  No later landing may run: votes 0..2 are in, 3..7 never
    arrive."""
    hog = phase == "queued"
    chip, _, _, landed = _cast_world(contention, hog=hog, reference=True)
    chip.sim.run()
    port = chip.mpbs[3].port
    if phase == "writing":
        at = (landed[2] + landed[3]) / 2
    else:
        # The caster's request for core 3's port, and its end (own
        # release, or the hog's release that grants it).
        asked = port.taken[1] if hog else port.taken[0]
        at = (asked + port.freed[0]) / 2
    assert landed[2] < at < landed[3]

    chip, votes, proc, got = _cast_world(contention, hog=hog, reference=False)
    assert chip.cores[0].scripts_stores
    sim = chip.sim
    port = chip.mpbs[3].port
    seen = []

    def thrower() -> Generator:
        yield sim.timeout(at)
        seen.append((port.in_use, port.queue_length))
        proc.interrupt("test")

    sim.process(thrower())
    sim.run()
    assert seen == [{"holding": (1, 0), "queued": (1, 1), "writing": (0, 0)}[phase]]
    assert proc.value == "interrupted"
    assert got == landed[:3]
    for member in range(8):
        want = (1, DIGESTS[member]) if member < 3 else (0, 0)
        assert votes.peek(chip, member, 0) == want
    for mpb in chip.mpbs:
        assert mpb.port.in_use == 0 and mpb.port.queue_length == 0
