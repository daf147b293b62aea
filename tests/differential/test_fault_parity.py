"""Fault-plan reuse across backends: the same ``repro.faults`` plan
routed through the transport write hooks classifies identically on the
SCC MPBs and on the asyncio rank stores.

Two levels:

- *write-path A/B*: drive a hand-built, identical sequence of protocol
  writes against both backends' stores and compare every landed status,
  injector counter and injection record (kind + site);
- *protocol-level*: the ``drop_flag`` scenario (one dropped doneFlag
  write, masked by the acked re-send) must change no decision on either
  backend, while both injectors report exactly one injection and at
  least one recovery;
- *acked-write errors*: an acked flag / slot / vote / put whose every
  attempt is dropped raises the same structured ``TimeoutError`` (site,
  process, message) on both backends, and a recovered acked put records
  its recovery under the site it would have timed out under.
"""

import re

import pytest

from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.rcce.flags import DigestSlotArray, FlagSlotArray, FlagValue
from repro.transport import AsyncioNetwork, make_scc_world
from repro.transport.scenarios import SCENARIOS, run_scc
from repro.scc import SccChip, SccConfig, run_spmd
from repro.faults.injector import FaultInjector
from repro.sim import TimeoutError as SimTimeoutError, Tracer

from . import cached_decisions

pytestmark = pytest.mark.differential


def _scc_world(plan):
    chip = SccChip(
        SccConfig(mesh_cols=2, mesh_rows=2),
        tracer=Tracer(enabled=False),
        faults=FaultInjector(plan),
    )
    return chip.mpbs, chip.faults


def _aio_world(plan):
    net = AsyncioNetwork(8, plan=plan)
    return net.stores, net.faults


#: One protocol write: (source core, destination store, offset, payload, op).
WRITE_SEQUENCE = [
    (0, 1, 0, b"\x11" * 32, "flag"),
    (0, 2, 0, b"\x22" * 32, "flag"),
    (1, 2, 32, b"\x33" * 64, "data"),
    (3, 2, 0, b"\x44" * 32, "flag"),  # 2nd flag write into store 2
    (2, 1, 96, b"\x55" * 32, "data"),
    (0, 1, 64, b"\x66" * 32, "flag"),
    (1, 0, 0, b"\x77" * 96, "data"),
]


def _drive(stores, sequence=WRITE_SEQUENCE):
    return [
        stores[dst].write_bytes(off, payload, source=src, op=op)
        for (src, dst, off, payload, op) in sequence
    ]


def test_write_classification_parity():
    """DROP_FLAG_WRITE and CORRUPT_DATA_WRITE fire at the same occurrence
    with the same landed status, counters and record sites on both
    backends."""
    def plan():
        return FaultPlan(
            (
                FaultSpec(FaultKind.DROP_FLAG_WRITE, core=2, nth=2),
                FaultSpec(FaultKind.CORRUPT_DATA_WRITE, core=1, nth=1),
            ),
            label="parity",
        )

    scc_stores, scc_inj = _scc_world(plan())
    aio_stores, aio_inj = _aio_world(plan())

    scc_landed = _drive(scc_stores)
    aio_landed = _drive(aio_stores)

    assert scc_landed == aio_landed
    # Spec cores are destination stores: the 2nd flag write into store 2
    # is dropped, the 1st data write into store 1 is corrupted.
    assert scc_landed == ["ok", "ok", "ok", "dropped", "corrupted", "ok", "ok"]
    for inj in (scc_inj, aio_inj):
        assert [(i.spec.kind, i.site) for i in inj.injected] == [
            (FaultKind.DROP_FLAG_WRITE, "mpb2@0 (from core3)"),
            (FaultKind.CORRUPT_DATA_WRITE, "mpb1@96 (from core2)"),
        ]
    assert scc_inj.counts["flag_write"] == aio_inj.counts["flag_write"] == 4
    assert scc_inj.counts["data_write"] == aio_inj.counts["data_write"] == 3
    # The corrupted write really landed bit-flipped, identically.
    assert scc_stores[1].read_bytes(96, 32) == aio_stores[1].read_bytes(96, 32)
    assert scc_stores[1].read_bytes(96, 1) == b"\xaa"  # 0x55 ^ 0xff


def test_link_down_window_parity():
    """A LINK_DOWN window armed through the mesh hook swallows in-window
    protocol writes identically (burst drops, not per-write records)."""
    def plan():
        return FaultPlan(
            (FaultSpec(FaultKind.LINK_DOWN, core=1, nth=1, duration=50.0),),
            label="linkdown",
        )

    for stores, inj in (_scc_world(plan()), _aio_world(plan())):
        # Core 1's first mesh transaction arms the window at t=0..50.
        assert inj.link_stall(1, 3) == 0.0
        # Writes from (or to) core 1 inside the window vanish silently.
        assert stores[3].write_bytes(0, b"\x01" * 32, source=1, op="flag") == "dropped"
        assert stores[1].write_bytes(0, b"\x02" * 32, source=0, op="data") == "dropped"
        # Unrelated links are untouched.
        assert stores[2].write_bytes(0, b"\x03" * 32, source=0, op="flag") == "ok"
        assert inj.burst_dropped == 2
        # Burst drops are environment, not per-write plan records.
        assert [i.spec.kind for i in inj.injected] == [FaultKind.LINK_DOWN]


def test_plan_untouched_writes_identical():
    """With no plan at all, both stores land everything verbatim."""
    chip = SccChip(SccConfig(mesh_cols=2, mesh_rows=2), tracer=Tracer(enabled=False))
    net = AsyncioNetwork(8)
    assert _drive(chip.mpbs) == _drive(net.stores) == ["ok"] * len(WRITE_SEQUENCE)
    for core in (0, 1, 2):
        assert (
            chip.mpbs[core].read_bytes(0, 128) == net.stores[core].read_bytes(0, 128)
        )


@pytest.mark.parametrize("backend", ["scc", "asyncio"])
def test_drop_flag_masked_by_acked_resend(backend):
    """The dropped doneFlag-path write is recovered by the acked re-send:
    decisions equal the fault-free twin, and the injector on each backend
    reports exactly one injection and at least one recovery."""
    faulted_text, _, outcomes, injected, recovered = cached_decisions(
        backend, "drop_flag", 0
    )
    clean_text, _, clean_outcomes, _, _ = cached_decisions(
        backend, "drop_flag", 0, False
    )
    assert outcomes == clean_outcomes == ("ok",) * 8
    assert faulted_text == clean_text
    assert injected == 1
    assert recovered >= 1


def test_scc_classification_unchanged_by_refactor():
    """Seeded A/B pin: the SCC run of the drop_flag scenario classifies
    the fault exactly as the pre-refactor chip paths did -- the first
    flag write into core 3's MPB is dropped, everything still succeeds."""
    res = run_scc("drop_flag", 0)
    assert res.outcomes == ("ok",) * SCENARIOS["drop_flag"].nranks
    [record] = res.faults.injected
    assert record.spec.kind is FaultKind.DROP_FLAG_WRITE
    assert record.site.startswith("mpb3@")
    assert res.faults.counts["flag_write@core3"] >= 1


# -- acked-write error parity ----------------------------------------------


#: The write fault each acked write kind is vulnerable to.
_DROPS = {
    "flag": FaultKind.DROP_FLAG_WRITE,
    "slot": FaultKind.DROP_FLAG_WRITE,
    "vote": FaultKind.DROP_FLAG_WRITE,
    "put": FaultKind.DROP_DATA_WRITE,
}


def _acked_write(kind, world):
    """One acked write from the calling rank to peer 1, allocated
    against ``world``'s layout: a callable ``op(cc)``."""
    layout = world.layout
    if kind == "flag":
        flag = world.flag("parity")
        return lambda cc: cc.flag_set_acked(1, flag, FlagValue(7, 1))
    if kind == "slot":
        slots = FlagSlotArray(layout.alloc_lines(1), 8, name="ps")
        return lambda cc: cc.slot_write_acked(slots, 1, 0, 5)
    if kind == "vote":
        votes = DigestSlotArray(layout.alloc_lines(2), 8, name="pv")
        return lambda cc: cc.vote_write_acked(votes, 1, 0, 3, 0xBEEF)
    region = layout.alloc_lines(2)

    def put(cc):
        src = cc.alloc(64)
        src.write(b"\x5a" * 64)
        return cc.put_acked(1, region.offset, src, 64)

    return put


def _run_acked(backend, kind, drops):
    """Rank 0 issues the acked write with its first ``drops`` attempts
    into peer 1 dropped; returns (the caught TimeoutError or None, the
    injector)."""
    plan = FaultPlan(
        tuple(FaultSpec(_DROPS[kind], core=1, nth=n + 1) for n in range(drops)),
        label=f"parity-{kind}",
    )
    caught = []

    def body(cc, op):
        if cc.rank == 0:
            try:
                yield from op(cc)
            except SimTimeoutError as exc:
                caught.append(exc)
        yield from cc.compute(0.0)

    if backend == "scc":
        chip, comm = make_scc_world(8, plan=plan, tracer_enabled=False)
        op = _acked_write(kind, comm)
        run_spmd(chip, lambda core: body(comm.attach(core), op))
        faults = chip.faults
    else:
        net = AsyncioNetwork(8, plan=plan)
        op = _acked_write(kind, net)
        net.run(lambda cc: body(cc, op))
        faults = net.faults
    return (caught[0] if caught else None), faults


@pytest.mark.parametrize("kind", ["flag", "slot", "vote", "put"])
def test_exhausted_acked_write_raises_identically(kind):
    """All four attempts (default ``max_retries=3``) into the peer are
    dropped: both backends raise the same structured error."""
    shapes = {}
    for backend in ("scc", "asyncio"):
        exc, _ = _run_acked(backend, kind, drops=4)
        assert exc is not None, f"{backend}: exhausted {kind} write did not raise"
        first_line = re.sub(r"t=[0-9.]+", "t=T", str(exc).splitlines()[0])
        shapes[backend] = (type(exc).__name__, exc.site, exc.process, first_line)
    assert shapes["scc"] == shapes["asyncio"]
    assert shapes["scc"][2] == "core0"
    assert "after 4 attempts at t=T" in shapes["scc"][3]


@pytest.mark.parametrize("backend", ["scc", "asyncio"])
def test_acked_put_recovers_under_its_timeout_site(backend):
    """One dropped attempt is recovered; the recovery record carries the
    very site string the exhausted put times out under."""
    exc, _ = _run_acked(backend, "put", drops=4)
    none, faults = _run_acked(backend, "put", drops=1)
    assert none is None
    assert [r.site for r in faults.recoveries] == [exc.site]
