"""Property-based protocol robustness: random mixed workloads.

Each example generates a random little SPMD application -- a sequence of
collectives with varying roots, sizes and engines, plus point-to-point
traffic -- and checks that every byte lands where it should and the run
drains without deadlock.  This is the strongest check we have that the
sequence-numbered flag protocols compose: any lost wake-up, buffer
recycle hazard or stale-flag bug shows up as a DeadlockError or a
payload mismatch.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Comm,
    ContentionMode,
    OcBcast,
    OcBcastConfig,
    OsagBcast,
    SccChip,
    SccConfig,
    run_spmd,
)

FAST = SccConfig(contention_mode=ContentionMode.IDEAL)

slow_ok = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@slow_ok
@given(
    P=st.integers(3, 10),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["oc", "osag"]),  # engine per broadcast
            st.integers(0, 9),                # root (mod P)
            st.integers(1, 400),              # nbytes
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_random_broadcast_sequences_mix_engines(P, ops):
    """Back-to-back broadcasts alternating between OC-Bcast and the
    one-sided scatter-allgather, sharing one chip, arbitrary roots."""
    chip = SccChip(FAST)
    comm = Comm(chip, ranks=list(range(P)))
    oc = OcBcast(comm, OcBcastConfig(k=3, chunk_lines=4))
    osag = OsagBcast(comm, slice_lines=4, scatter_payload_lines=8)
    payloads = [
        bytes((i * 31 + n * 7 + 3) % 256 for i in range(nbytes))
        for n, (_, _, nbytes) in enumerate(ops)
    ]
    results = {n: {} for n in range(len(ops))}

    def program(core):
        cc = comm.attach(core)
        for n, (engine, root, nbytes) in enumerate(ops):
            root %= P
            buf = cc.alloc(nbytes)
            if cc.rank == root:
                buf.write(payloads[n])
            if engine == "oc":
                yield from oc.bcast(cc, root, buf, nbytes)
            else:
                yield from osag.bcast(cc, root, buf, nbytes)
            results[n][cc.rank] = buf.read()

    run_spmd(chip, program, core_ids=list(range(P)))
    for n in range(len(ops)):
        assert all(results[n][r] == payloads[n] for r in range(P)), n


@slow_ok
@given(
    P=st.integers(2, 8),
    transfers=st.lists(
        st.tuples(
            st.integers(0, 7),   # src (mod P)
            st.integers(0, 7),   # dst offset (1..P-1 added)
            st.integers(0, 900), # nbytes
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_random_point_to_point_schedules(P, transfers):
    """Random sequences of blocking pair transfers across random pairs,
    executed in a globally consistent order."""
    chip = SccChip(FAST)
    comm = Comm(chip, ranks=list(range(P)))
    plan = []
    for n, (src, doff, nbytes) in enumerate(transfers):
        src %= P
        dst = (src + 1 + doff % (P - 1)) % P
        payload = bytes((i * 13 + n) % 256 for i in range(nbytes))
        plan.append((src, dst, payload))
    got = {}

    def program(core):
        cc = comm.attach(core)
        for n, (src, dst, payload) in enumerate(plan):
            if cc.rank == src:
                buf = cc.alloc(len(payload))
                buf.write(payload)
                yield from cc.send(dst, buf, len(payload))
            elif cc.rank == dst:
                buf = cc.alloc(len(payload))
                yield from cc.recv(src, buf, len(payload))
                got[n] = buf.read()

    run_spmd(chip, program, core_ids=list(range(P)))
    for n, (_, _, payload) in enumerate(plan):
        if payload:
            assert got[n] == payload, n
        else:
            assert got.get(n, b"") == b""
