"""Golden-trace pinning: whole-run behaviour digests.

Each scenario runs one deterministic broadcast with tracing enabled and
compares the sha256 of the canonical trace serialization
(:func:`repro.obs.canonical_trace`) against ``tests/golden_digests.json``.
A digest mismatch means *some* event moved, retimed, appeared or
vanished -- the strongest regression net the simulator offers, far
stricter than latency assertions.

If a change is intentional (a model refinement, a protocol fix),
re-record the goldens and commit the diff alongside the change:

    PYTHONPATH=src python tests/test_golden_traces.py --record

The test failure message says the same, so nobody has to find this
docstring first.
"""

import json
import pathlib
from dataclasses import replace

import pytest

from repro import Comm, SccChip, run_spmd
from repro.bench import BcastSpec, run_broadcast
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.member import OcBcastService
from repro.member.service import DEFAULT_SERVICE_OC
from repro.obs import trace_digest
from repro.scc import ContentionMode, SccConfig
from repro.scc.config import CACHE_LINE
from repro.sim import FaultInjected, Tracer

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_digests.json"


def _trace(spec: BcastSpec, cache_lines: int, config: SccConfig | None = None):
    tracer = Tracer(enabled=True)
    run_broadcast(
        spec, cache_lines * CACHE_LINE, config=config,
        iters=1, warmup=0, seed=1, tracer=tracer,
    )
    return tracer.records


def _rbc_equivocate_trace():
    """Byzantine broadcast end to end on a 12-core chip: the source
    equivocates on its first staging (deterministic minimal-delta
    restage), the echo quorum settles one digest, losing-side members
    re-fetch the winning bytes and every honest member delivers the same
    payload.  Pins the ECHO/READY vote fan-out, the quorum waits, the
    restage timing and the repair path -- the whole rbc wire protocol."""
    nbytes = 96 * CACHE_LINE
    payload = bytes(i % 251 for i in range(nbytes))
    plan = FaultPlan(
        (FaultSpec(FaultKind.EQUIVOCATE, core=0, nth=1, duration=1),),
        num_cores=12,
    )
    chip = SccChip(
        SccConfig(mesh_cols=3, mesh_rows=2),  # 12 cores
        faults=FaultInjector(plan),
        tracer=Tracer(enabled=True),
    )
    comm = Comm(chip)
    svc = OcBcastService(
        comm, oc_config=replace(DEFAULT_SERVICE_OC, byz=True)
    )

    def prog(core):
        cc = comm.attach(core)
        buf = cc.alloc(nbytes)
        if cc.rank == 0:
            buf.write(payload)
        return (yield from svc.bcast(cc, buf, nbytes))

    chip.sim.start_watchdog(50_000.0)
    run_spmd(chip, prog)
    return chip.tracer.records


def _election_trace():
    """Coordinator failover end to end on a 12-core chip: the root/source
    crashes mid-message (deterministic nth), survivors detect, elect,
    hand off the epoch and settle the message via the completion
    directive.  Pins detection timing, claim ordering, the handoff and
    the directive application -- the whole member/ wire protocol."""
    nbytes = 3 * 96 * CACHE_LINE
    payload = bytes(i % 251 for i in range(nbytes))
    plan = FaultPlan((FaultSpec(FaultKind.CORE_CRASH, core=0, nth=5),))
    chip = SccChip(
        SccConfig(mesh_cols=3, mesh_rows=2),  # 12 cores
        faults=FaultInjector(plan),
        tracer=Tracer(enabled=True),
    )
    comm = Comm(chip)
    svc = OcBcastService(comm)

    def prog(core):
        cc = comm.attach(core)
        buf = cc.alloc(nbytes)
        if cc.rank == 0:
            buf.write(payload)
        try:
            return (yield from svc.bcast(cc, buf, nbytes))
        except FaultInjected:
            return "crashed"

    chip.sim.start_watchdog(100_000.0)
    run_spmd(chip, prog)
    return chip.tracer.records


#: name -> zero-argument callable producing the scenario's trace records.
#: Every scenario is fully deterministic (fixed seed, no wall clock).
SCENARIOS = {
    # The paper's headline configuration: OC-Bcast, one 96-cache-line
    # chunk, the full 48-core chip, k=7.
    "oc_k7_48core_96cl": lambda: _trace(BcastSpec("oc", k=7), 96),
    # The two RCCE_comm baselines it is compared against (Section 6).
    "binomial_48core_96cl": lambda: _trace(BcastSpec("binomial"), 96),
    "scatter_allgather_48core_96cl": lambda: _trace(
        BcastSpec("scatter_allgather"), 96
    ),
    # EXACT contention mode with coalescing on: pins the fast path's
    # event stream, complementing the A/B equality tests.
    "oc_k7_exact_24cl": lambda: _trace(
        BcastSpec("oc", k=7), 24,
        SccConfig(contention_mode=ContentionMode.EXACT),
    ),
    # Coordinator failover: seeded root crash on 12 cores, election +
    # epoch handoff + message completion (FAULTS.md section 6).
    "election_root_crash_12core": _election_trace,
    # Byzantine broadcast: seeded source equivocation on 12 cores,
    # Bracha echo/ready quorums + losing-side repair (FAULTS.md
    # adversary model, PROTOCOLS.md section 9).
    "rbc_equivocate_12core": _rbc_equivocate_trace,
}


def _load_goldens() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"{GOLDEN_PATH} missing -- record it with:\n"
            "  PYTHONPATH=src python tests/test_golden_traces.py --record"
        )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_digest(name):
    golden = _load_goldens()
    assert name in golden, (
        f"no golden recorded for {name!r} -- re-record with:\n"
        "  PYTHONPATH=src python tests/test_golden_traces.py --record"
    )
    records = SCENARIOS[name]()
    got = trace_digest(records)
    assert got == golden[name], (
        f"golden trace drifted for {name!r}:\n"
        f"  recorded {golden[name]}\n"
        f"  current  {got}\n"
        f"  ({len(records)} trace records)\n"
        "An event moved, appeared or vanished.  If this change is "
        "intentional, re-record and commit the goldens:\n"
        "  PYTHONPATH=src python tests/test_golden_traces.py --record"
    )


def test_goldens_have_no_orphans():
    """Every recorded digest corresponds to a live scenario."""
    assert set(_load_goldens()) == set(SCENARIOS)


def _record() -> None:
    digests = {}
    for name in sorted(SCENARIOS):
        records = SCENARIOS[name]()
        digests[name] = trace_digest(records)
        print(f"{name}: {digests[name]} ({len(records)} records)")
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--record" in sys.argv:
        _record()
    else:
        print(__doc__)
        sys.exit(2)
