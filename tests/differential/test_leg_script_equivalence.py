"""Two schedulers, one program: leg scripts against the generator loop.

In the regime ``Core.scripts_lines`` states (EXACT, ``exact_coalescing``,
no link model, no jitter, no injector) the contended cache-line accesses
-- the MPB<->MPB line loops of ``get``/``put``, the one-line ``_store``
/ ``_load`` / ``_readback``, the MPB<->private-memory transfers -- run
as a :class:`repro.sim.LegScript`: kernel callbacks make the port holds
and timers while the rank sleeps, and the script's opening stretch is
virtual while the port is idle.
With ``exact_coalescing=False`` the same program runs the per-line
generator loop, one process wake-up per timer.  The two are independent
schedulers of one program, and everything the simulation records must be
``==`` between them: finish times, the timed trace record list, every
``CoreStats`` field, the L1 (hits, misses, resident lines) and, per MPB
port, ``total_acquisitions``, ``total_wait_time``, ``queue_time``,
``max_queue`` and the wait histogram.  (``busy_time`` is compared to
1e-9: a virtual stretch adds ``cycles x service`` where the loop adds
one window at a time.)  The 74-configuration sweep of
``tests/test_fastpath_determinism.py`` compares the same state; this
file adds the directed cases and a Hypothesis sweep.

The position rules that make it so (``LegScript`` docstring), each
pinned here by a case that turns red when the rule is broken:

1. A *hop* -- the now-queue entry ``Event.succeed -> Process._resume``
   occupies in the loop -- is taken inline only if the now-queue is
   empty.  Mutation "inline although the now-queue is non-empty"
   (``_hop`` tests the heap only): 10 cases red --
   ``test_request_on_window_end_queues_for_zero_time`` (``max_queue`` 0
   for 1), every sibling case, the 1/2/97-line gets and the sweep.
2. ... and only if no heap entry is due at ``now``.  Mutation "inline
   although a heap entry is due now" (``_hop`` tests the now-queue
   only): ``test_hop_waits_for_heap_entries_due_now`` red.  It takes a
   bare kernel callback to tell -- chip-level actors do their work in
   hops of their own, queued behind ours either way, and no chip-level
   case here turns red -- so the case is written against ``repro.sim``.
3. The last leg's closing timer is the owner's own event.  Mutation
   "finish through a hop into ``succeed``, one hop late" (``_end_leg``):
   ``test_owner_wakes_in_the_hop_after_its_last_timer`` red.
4. A hold that waited pays the NACK timer ``waited * retry_factor``.
   Mutation "NACK timer skipped" (``_release``): 17 cases red, the
   siblings and every contended transfer among them.
5. ``acquire`` passes the leg's priority.  Mutation "priority dropped"
   (``_start_leg``): 9 cases red -- the distinct-distance siblings are
   served FIFO -- with the sweep.
"""

from typing import Callable, Generator

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench import BcastSpec
from repro.obs.metrics import Histogram
from repro.rcce import Comm
from repro.rcce.onesided import get, put
from repro.scc import ContentionMode, SccChip, SccConfig, run_spmd
from repro.scc.config import CACHE_LINE
from repro.sim import LegScript, Resource, Simulator, Tracer

from ..test_fastpath_determinism import _RecordingPort, _chip_state

pytestmark = pytest.mark.differential

Program = Callable[[object], Generator]


def _chip(scripted: bool, mesh=(6, 4), port_cls=None, **overrides) -> SccChip:
    cols, rows = mesh
    chip = SccChip(
        SccConfig(
            contention_mode=ContentionMode.EXACT, exact_coalescing=scripted,
            mesh_cols=cols, mesh_rows=rows, **overrides,
        ),
        tracer=Tracer(enabled=True),
    )
    for mpb in chip.mpbs:
        if port_cls is not None:
            mpb.port = port_cls(chip.sim, name=f"mpb{mpb.owner}.port")
        mpb.port.wait_hist = Histogram(f"mpb{mpb.owner}.wait")
    assert chip.cores[0].scripts_lines is scripted
    return chip


def _state(chip: SccChip, res) -> tuple[dict, list[float]]:
    """Everything that must be ``==`` between the two schedulers, and the
    per-port busy times (equal to 1e-9)."""
    state = _chip_state(chip, res, chip.tracer)
    state["wait_hist"] = [
        (h.buckets, h.count, h.total, h.min, h.max)
        for h in (m.port.wait_hist for m in chip.mpbs)
    ]
    return state, [m.port.busy_time for m in chip.mpbs]


def _run(scripted: bool, programs: dict[int, Program], **chip_kw):
    chip = _chip(scripted, **chip_kw)
    res = run_spmd(chip, lambda core: programs[core.id](core), sorted(programs))
    return chip, _state(chip, res)


def _assert_equivalent(programs: dict[int, Program], **chip_kw):
    """Run ``programs`` under both schedulers; returns the scripted chip."""
    chip, (exact_on, busy_on) = _run(True, programs, **chip_kw)
    _, (exact_off, busy_off) = _run(False, programs, **chip_kw)
    for key in exact_off:
        assert exact_on[key] == exact_off[key], key
    assert busy_on == pytest.approx(busy_off, rel=1e-9, abs=0.0)
    return chip


def _mpb_get(src: int, lines: int, at: float = 0.0) -> Program:
    """MPB -> own MPB get of ``lines`` cache lines, started at ``at``."""
    def program(core) -> Generator:
        if at:
            yield core.sim.timeout(at)
        yield from get(core, src, 0, 0, lines * CACHE_LINE)
    return program


def _line_read(target: int, at: float = 0.0) -> Program:
    """One bare cache-line read of ``target``'s MPB (no call overhead),
    requested at exactly ``at``."""
    def program(core) -> Generator:
        if at:
            yield core.sim.timeout(at)
        yield from core.mpb_access(target, 1)
    return program


def _cores_by_distance(parent: int) -> dict[int, list[int]]:
    mesh = _chip(True).mesh
    by_d: dict[int, list[int]] = {}
    for c in range(48):
        if c != parent:
            by_d.setdefault(mesh.core_distance(c, parent), []).append(c)
    return by_d


PARENT = 14


class TestSiblings:
    """k = 7 children fetching one chunk from their parent's MPB: the
    paper's core step, and the one where all requests meet on one port."""

    @pytest.mark.parametrize("lines", [1, 2, 24])
    def test_equal_distance_ties_at_one_instant(self, lines):
        """Seven lock-step siblings: every request, timer and release of
        a round falls on one float instant, so only the sequence order
        separates them."""
        siblings = next(
            cores for _, cores in sorted(_cores_by_distance(PARENT).items())
            if len(cores) >= 7
        )[:7]
        chip = _assert_equivalent({c: _mpb_get(PARENT, lines) for c in siblings})
        port = chip.mpbs[PARENT].port
        assert port.max_queue == 6 and port.total_wait_time > 0.0
        assert port.coalesced_runs == 0  # real holds throughout

    @pytest.mark.parametrize("lines", [1, 24])
    def test_distinct_distances_arbitrate_by_priority(self, lines):
        """One sibling per distance: the arbiter favours the closer core
        and every lost race costs a NACK retry scaled by the distance."""
        by_d = _cores_by_distance(PARENT)
        siblings = [by_d[d][0] for d in sorted(by_d)][:7]
        chip = _assert_equivalent({c: _mpb_get(PARENT, lines) for c in siblings})
        finish = {r.source: r.time for r in chip.tracer.records if r.kind == "get"}
        order = sorted(finish, key=finish.get)
        assert order[0] == f"core{siblings[0]}"    # the closest core first,
        assert order[-1] == f"core{siblings[-1]}"  # the farthest last

    def test_parent_drains_its_mpb_while_children_fetch(self):
        """The step-(v) shape: the parent's own MPB -> memory transfer
        opens with a virtual stretch the children's holds end, after
        which its holds are real among theirs."""
        def parent(core) -> Generator:
            buf = core.mem.alloc(24 * CACHE_LINE)
            yield from get(core, core.id, 0, buf, 24 * CACHE_LINE)

        programs = {c: _mpb_get(PARENT, 24) for c in _cores_by_distance(PARENT)[1]}
        programs[PARENT] = parent
        chip = _assert_equivalent(programs)
        port = chip.mpbs[PARENT].port
        assert 0 < port.coalesced_cycles < 24


class TestSameInstant:
    def _window_end(self) -> float:
        """When core 0's one-line read of MPB 2 frees the port -- from
        the generator loop itself, so it is the exact float."""
        chip, _ = _run(False, {0: _line_read(2)}, mesh=(2, 2), port_cls=_RecordingPort)
        return chip.mpbs[2].port.freed[0]

    def test_request_on_window_end_queues_for_zero_time(self):
        """Core 5's request lands on the very instant core 0's service
        window ends: its timer is older than the service timer, so the
        loop sees the request first and queues it for zero time.  A
        *virtual* run grants it at once (``max_queue`` 0, the documented
        residual); scripted holds are real and must read 1."""
        at = self._window_end()
        chip = _assert_equivalent(
            {0: _line_read(2), 5: _line_read(2, at=at)}, mesh=(2, 2)
        )
        port = chip.mpbs[2].port
        assert port.max_queue == 1
        assert port.total_wait_time == 0.0

    def test_hop_waits_for_heap_entries_due_now(self):
        """Rule 2 at the kernel level: a bare callback scheduled for the
        instant a hold's service ends, *after* the service timer, still
        runs before the release -- where the loop's resumption sits."""
        def world(scripted: bool) -> list:
            sim = Simulator()
            res = Resource(sim, name="port")
            seen: list = []

            def owner() -> Generator:
                if scripted:
                    yield LegScript(sim, [(res, 1.0, 1.0, 0.0, 0.0)])
                else:
                    yield from res.serve(1.0)
                    yield sim.timeout(1.0)

            def probe() -> Generator:
                yield sim.timeout(0.5)
                # Due at t=1.0 with a younger seq than the service timer.
                sim._schedule(0.5, lambda _: seen.append((sim.now, res.in_use)), None)

            sim.process(owner())
            sim.process(probe())
            sim.run()
            return seen

        assert world(True) == world(False) == [(1.0, 1)]


    def test_owner_wakes_in_the_hop_after_its_last_timer(self):
        """Rule 3 at the kernel level: the owner's wake-up is queued by
        the last timer itself, so it runs before the second step of a
        process that an older timer of the same instant resumed."""
        def world(scripted: bool) -> list:
            sim = Simulator()
            res = Resource(sim, name="port")
            seen: list = []

            def owner() -> Generator:
                yield sim.timeout(0.5)  # so that the other timer is older
                if scripted:
                    yield LegScript(sim, [(res, 1.0, 0.5, 0.0, 0.0)])
                else:
                    yield from res.serve(1.0)
                    yield sim.timeout(0.5)
                seen.append("owner")

            def other() -> Generator:
                yield sim.timeout(2.0)
                yield sim.event().succeed()  # already fired: one more hop
                seen.append("other")

            sim.process(owner())
            sim.process(other())
            sim.run()
            return seen

        assert world(True) == world(False) == ["owner", "other"]


def _mem_get(src: int, lines: int) -> Program:
    """MPB -> private memory get, a few lines already L1-resident."""
    def program(core) -> Generator:
        buf = core.mem.alloc(lines * CACHE_LINE)
        if lines > 6:
            yield from core.mem_read(buf.sub(3 * CACHE_LINE, 3 * CACHE_LINE))
        yield from get(core, src, 0, buf, lines * CACHE_LINE)
    return program


def _mem_put(dst: int, lines: int) -> Program:
    def program(core) -> Generator:
        buf = core.mem.alloc(lines * CACHE_LINE)
        if lines > 6:
            yield from core.mem_read(buf.sub(3 * CACHE_LINE, 3 * CACHE_LINE))
        yield from put(core, dst, 0, buf, lines * CACHE_LINE)
    return program


def _starting_transfer_at(transfer, target: int, lines: int, at: float) -> Program:
    """``transfer`` whose first port request is made at ``at``: the call
    overhead (and, for a put, the first memory read) is subtracted by a
    dry run."""
    body = transfer(target, lines)
    chip, _ = _run(False, {0: body}, mesh=(2, 2), port_cls=_RecordingPort)
    lead_in = chip.mpbs[target].port.taken[0]
    assert lead_in < at

    def program(core) -> Generator:
        yield core.sim.timeout(at - lead_in)
        yield from body(core)
    return program


class TestScriptsAndRuns:
    """A script's holds are real requests, so they end another script's
    virtual stretch and keep one from starting exactly as the loop's
    do."""

    @pytest.mark.parametrize("transfer", [_mem_get, _mem_put], ids=["get", "put"])
    def test_queued_script_aborts_a_virtual_stretch(self, transfer):
        """Core 5's one-line script arrives inside a service window of
        core 0's virtual stretch on MPB 2: it queues behind the
        materialised hold, the stretch ends, and core 0's remaining
        holds are real."""
        recorded, _ = _run(
            False, {0: transfer(2, 12)}, mesh=(2, 2), port_cls=_RecordingPort,
            l1_lines=8,
        )
        port = recorded.mpbs[2].port
        at = (port.taken[5] + port.freed[5]) / 2
        chip = _assert_equivalent(
            {0: transfer(2, 12), 5: _line_read(2, at=at)}, mesh=(2, 2), l1_lines=8,
        )
        port = chip.mpbs[2].port
        assert (port.coalesced_runs, port.coalesced_cycles) == (1, 6)
        assert port.max_queue == 1 and port.total_wait_time > 0.0

    @pytest.mark.parametrize("transfer", [_mem_get, _mem_put], ids=["get", "put"])
    def test_script_finding_the_port_busy_runs_all_real(self, transfer):
        """Core 5 is mid-way through a scripted 24-line fetch from MPB 2
        and inside one of its service windows when core 0's transfer
        starts: its first hold finds the port busy, no stretch begins,
        and every hold of the transfer is real."""
        recorded, _ = _run(
            False, {5: _mpb_get(2, 24)}, mesh=(2, 2), port_cls=_RecordingPort
        )
        port = recorded.mpbs[2].port
        at = (port.taken[7] + port.freed[7]) / 2
        chip = _assert_equivalent(
            {0: _starting_transfer_at(transfer, 2, 12, at), 5: _mpb_get(2, 24)},
            mesh=(2, 2),
        )
        port = chip.mpbs[2].port
        assert port.coalesced_runs == 0
        assert port.total_acquisitions == 24 + 12


class TestMpbToMpb:
    @pytest.mark.parametrize("lines", [1, 2, 97])
    @pytest.mark.parametrize("op", ["get", "put"])
    def test_line_counts(self, op, lines):
        """1, 2 and 97 lines (one more than an OC-Bcast chunk), alone and
        against a sibling doing the same."""
        def program(core) -> Generator:
            if op == "get":
                yield from get(core, 2, 0, 0, lines * CACHE_LINE)
            else:
                yield from put(core, 2, 0, 0, lines * CACHE_LINE)

        alone = _assert_equivalent({0: program}, mesh=(2, 2))
        assert alone.mpbs[2].port.total_acquisitions == lines
        _assert_equivalent({0: program, 5: program, 7: program}, mesh=(2, 2))

    def test_one_wake_up_per_transfer(self):
        """The owner's process is resumed twice: to start, and when the
        script's last rest timer fires."""
        resumes = []

        def program(core) -> Generator:
            yield from get(core, 2, 0, 0, 97 * CACHE_LINE)
            resumes.append(core.sim.events_scheduled)

        chip, _ = _run(True, {0: program}, mesh=(2, 2))
        # 1 start + 1 overhead timer + 2 * 97 * 2 timers + 1 wake-up hop;
        # every other hop was taken inline and drew no sequence number.
        assert resumes == [1 + 1 + 2 * 97 * 2 + 1]


ALGOS = ("oc", "binomial", "scatter_allgather", "osag")


@settings(
    max_examples=150, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    cols=st.integers(1, 3),
    rows=st.integers(1, 3),
    algo=st.sampled_from(ALGOS),
    k=st.sampled_from([2, 3, 7]),
    chunk_lines=st.sampled_from([4, 8, 32]),
    nbytes=st.integers(1, 40 * CACHE_LINE),
    leaf_direct=st.booleans(),
    root=st.integers(0, 17),
    misalign=st.sampled_from([0, 0, 8]),
)
def test_broadcast_sweep(
    cols, rows, algo, k, chunk_lines, nbytes, leaf_direct, root, misalign
):
    ncores = 2 * cols * rows
    spec = BcastSpec(
        algo, k=k, chunk_lines=chunk_lines, leaf_direct_to_memory=leaf_direct
    )
    payload = bytes(i * 13 % 256 for i in range(nbytes))
    root %= ncores

    def run(scripted: bool):
        chip = _chip(scripted, mesh=(cols, rows))
        comm = Comm(chip)
        bcast = spec.build(comm)

        def program(core) -> Generator:
            cc = comm.attach(core)
            buf = cc.alloc(nbytes + CACHE_LINE).sub(misalign, nbytes)
            if cc.rank == root:
                buf.write(payload)
            for _ in range(2):  # the second finds the buffer L1-resident
                yield from bcast(cc, root, buf, nbytes)
            assert buf.read() == payload

        return _state(chip, run_spmd(chip, program))

    (exact_on, busy_on), (exact_off, busy_off) = run(True), run(False)
    for key in exact_off:
        assert exact_on[key] == exact_off[key], key
    assert busy_on == pytest.approx(busy_off, rel=1e-9, abs=0.0)
