"""Tests for the deterministic fault-injection subsystem.

Covers the plan/spec model, occurrence-count addressing, one test per
fault kind, the kernel-level detectors (rich deadlock diagnostics,
watchdog, poll-budget timeouts), the acked-write recovery primitives,
and the seeded-determinism contract (same plan => byte-identical trace).
"""

import pytest

from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectionRecord,
)
from repro.rcce import Comm
from repro.rcce.flags import FlagValue
from repro.scc import SccChip, SccConfig, run_spmd
from repro.sim import (
    DeadlockError,
    FaultInjected,
    SimError,
    Simulator,
    Tracer,
    WatchdogError,
)
from repro.sim.errors import TimeoutError as SimTimeoutError


def faulty_chip(*specs, tracer=None):
    return SccChip(
        SccConfig(), tracer=tracer, faults=FaultInjector(FaultPlan(specs))
    )


class TestPlanModel:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.DROP_FLAG_WRITE, nth=0)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.LINK_STALL)  # stall needs a duration
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.CORE_CRASH)  # crash needs a target core

    def test_plan_is_iterable_and_labelled(self):
        spec = FaultSpec(FaultKind.DROP_FLAG_WRITE, nth=3)
        plan = FaultPlan((spec,), label="x")
        assert list(plan) == [spec]
        assert plan.label == "x"

    def test_category_mapping(self):
        assert FaultSpec(FaultKind.DROP_FLAG_WRITE).category == "flag_write"
        assert FaultSpec(FaultKind.DROP_DATA_WRITE).category == "data_write"
        assert (
            FaultSpec(FaultKind.LINK_STALL, duration=1.0).category == "mpb_access"
        )
        assert FaultSpec(FaultKind.CORE_CRASH, core=1).category == "core_op"


class TestOccurrenceAddressing:
    def test_nth_global_flag_write(self):
        chip = faulty_chip(FaultSpec(FaultKind.DROP_FLAG_WRITE, nth=2))
        comm = Comm(chip)
        f = comm.flag("t")

        def prog(core):
            cc = comm.attach(core)
            yield from cc.flag_set(1, f, FlagValue(0, 1))  # 1st: delivered
            yield from cc.flag_set(1, f, FlagValue(0, 2))  # 2nd: dropped
            yield from cc.flag_set(1, f, FlagValue(0, 3))  # 3rd: delivered

        run_spmd(chip, prog, core_ids=[0])
        assert f.peek(chip, 1) == FlagValue(0, 3)
        assert chip.faults.n_injected == 1
        assert chip.faults.injected[0].spec.nth == 2

    def test_per_core_nth_targets_owner(self):
        # nth counts per destination MPB when a core is named.
        chip = faulty_chip(FaultSpec(FaultKind.DROP_FLAG_WRITE, nth=1, core=2))
        comm = Comm(chip)
        f = comm.flag("t")

        def prog(core):
            cc = comm.attach(core)
            yield from cc.flag_set(1, f, FlagValue(0, 7))  # mpb1: untouched
            yield from cc.flag_set(2, f, FlagValue(0, 7))  # mpb2: dropped

        run_spmd(chip, prog, core_ids=[0])
        assert f.peek(chip, 1) == FlagValue(0, 7)
        assert f.peek(chip, 2) == FlagValue(0, 0)

    def test_profile_counts_sites_with_empty_plan(self):
        chip = faulty_chip()
        comm = Comm(chip)
        f = comm.flag("t")

        def prog(core):
            cc = comm.attach(core)
            yield from cc.flag_set(1, f, FlagValue(0, 1))
            yield from cc.flag_set(1, f, FlagValue(0, 2))

        run_spmd(chip, prog, core_ids=[0])
        profile = chip.faults.profile()
        assert profile["flag_write"] == 2
        assert profile["flag_write@core1"] == 2
        assert chip.faults.n_injected == 0


class TestEachFaultKind:
    def test_drop_flag_write_leaves_flag_and_watchers_untouched(self):
        chip = faulty_chip(FaultSpec(FaultKind.DROP_FLAG_WRITE, nth=1))
        comm = Comm(chip)
        f = comm.flag("t")

        def prog(core):
            cc = comm.attach(core)
            yield from cc.flag_set(1, f, FlagValue(3, 9))

        run_spmd(chip, prog, core_ids=[0])
        assert f.peek(chip, 1) == FlagValue(0, 0)
        assert chip.faults.n_injected == 1

    def test_corrupt_flag_write_inverts_bytes(self):
        chip = faulty_chip(FaultSpec(FaultKind.CORRUPT_FLAG_WRITE, nth=1))
        comm = Comm(chip)
        f = comm.flag("t")
        value = FlagValue(3, 9)

        def prog(core):
            cc = comm.attach(core)
            yield from cc.flag_set(1, f, value)

        run_spmd(chip, prog, core_ids=[0])
        got = chip.mpbs[1].read_bytes(f.region.offset, 32)
        assert got == bytes(b ^ 0xFF for b in value.encode())
        assert f.peek(chip, 1) != value

    def test_drop_data_write_loses_the_put(self):
        chip = faulty_chip(FaultSpec(FaultKind.DROP_DATA_WRITE, nth=1))
        comm = Comm(chip)

        def prog(core):
            cc = comm.attach(core)
            src = cc.alloc(64)
            src.write(bytes(range(64)))
            yield from cc.put(1, 0, src, 64)

        run_spmd(chip, prog, core_ids=[0])
        assert chip.mpbs[1].read_bytes(0, 64) == bytes(64)
        assert chip.faults.n_injected == 1

    def _putter(self, chip, comm):
        def prog(core):
            cc = comm.attach(core)
            src = cc.alloc(64)
            src.write(bytes(range(64)))
            yield from cc.put(1, 0, src, 64)

        return run_spmd(chip, prog, core_ids=[0]).makespan

    def test_link_stall_delays_the_transaction(self):
        plain = SccChip(SccConfig())
        base = self._putter(plain, Comm(plain))
        chip = faulty_chip(
            FaultSpec(FaultKind.LINK_STALL, nth=1, duration=500.0)
        )
        stalled = self._putter(chip, Comm(chip))
        assert stalled == pytest.approx(base + 500.0)

    def test_core_pause_adds_duration_once(self):
        plain = SccChip(SccConfig())
        base = self._putter(plain, Comm(plain))
        chip = faulty_chip(
            FaultSpec(FaultKind.CORE_PAUSE, nth=1, core=0, duration=250.0)
        )
        paused = self._putter(chip, Comm(chip))
        assert paused == pytest.approx(base + 250.0)

    def test_core_crash_kills_every_later_op(self):
        chip = faulty_chip(FaultSpec(FaultKind.CORE_CRASH, nth=1, core=0))
        comm = Comm(chip)

        def prog(core):
            cc = comm.attach(core)
            try:
                yield core.compute(1.0)
            except FaultInjected as exc:
                assert exc.site == "core0"
                return "crashed"
            return "alive"

        res = run_spmd(chip, prog, core_ids=[0])
        assert res.values == ("crashed",)
        assert chip.faults.is_dead(0)
        with pytest.raises(FaultInjected):
            chip.faults.core_op(0)  # stays dead

    def test_raw_and_sourceless_writes_are_never_faulted(self):
        chip = faulty_chip(FaultSpec(FaultKind.DROP_FLAG_WRITE, nth=1))
        chip.mpbs[1].write_bytes(0, b"\x07" * 32)  # raw init write
        assert chip.mpbs[1].read_bytes(0, 32) == b"\x07" * 32
        assert chip.faults.n_injected == 0


class TestFaultTracing:
    def test_injection_and_recovery_emit_trace_records(self):
        tracer = Tracer(enabled=True)
        chip = faulty_chip(
            FaultSpec(FaultKind.DROP_FLAG_WRITE, nth=1), tracer=tracer
        )
        comm = Comm(chip)
        f = comm.flag("t")

        def prog(core):
            cc = comm.attach(core)
            yield from cc.flag_set_acked(1, f, FlagValue(0, 5))

        run_spmd(chip, prog, core_ids=[0])
        assert f.peek(chip, 1) == FlagValue(0, 5)  # the retry landed
        injected = tracer.of_kind("fault.injected")
        recovered = tracer.of_kind("fault.recovered")
        assert len(injected) == 1 and injected[0].detail["fault"] == "drop_flag_write"
        assert len(recovered) == 1
        assert chip.faults.n_recovered == 1
        assert str(chip.faults.injected[0])  # records render

    def test_injection_record_fields(self):
        rec = InjectionRecord(
            1.5, FaultSpec(FaultKind.DROP_FLAG_WRITE, nth=2), "mpb1@0"
        )
        assert "drop_flag_write" in str(rec) and "mpb1@0" in str(rec)


class TestKernelDetectors:
    def test_deadlock_message_names_event_and_time(self):
        sim = Simulator()
        ev = sim.event(name="never.signal")

        def stuck():
            yield sim.timeout(2.5)
            yield ev

        sim.process(stuck(), name="stucky")
        with pytest.raises(DeadlockError) as ei:
            sim.run()
        msg = str(ei.value)
        assert "stucky" in msg and "never.signal" in msg and "2.5" in msg
        assert ei.value.stuck[0][0] == "stucky"
        assert ei.value.sim_time == pytest.approx(2.5)

    def test_watchdog_throws_into_stuck_process(self):
        sim = Simulator()
        ev = sim.event(name="never.signal")

        def stuck():
            try:
                yield ev
            except WatchdogError as exc:
                return ("caught", exc.idle_for)
            return "unreachable"

        proc = sim.process(stuck(), name="stucky")
        sim.start_watchdog(10.0)
        sim.run()
        kind, idle = proc.value
        assert kind == "caught" and idle >= 10.0

    def test_watchdog_is_silent_on_live_runs(self):
        sim = Simulator()

        def busy():
            for _ in range(5):
                yield sim.timeout(1.0)
            return "done"

        proc = sim.process(busy(), name="busy")
        sim.start_watchdog(10.0)
        sim.run()
        assert proc.value == "done"

    def test_wait_flags_poll_budget_times_out(self):
        chip = SccChip(SccConfig())
        comm = Comm(chip)
        f = comm.flag("t")

        def prog(core):
            cc = comm.attach(core)
            yield from cc.wait_flags(
                [f], lambda v: v[0].seq >= 1, timeout=50.0, site="test.wait"
            )

        with pytest.raises(SimError) as ei:
            run_spmd(chip, prog, core_ids=[0])
        assert isinstance(ei.value.__cause__, SimTimeoutError)
        assert ei.value.__cause__.site == "test.wait"

    def test_get_acked_refetches_a_dropped_own_mpb_deposit(self):
        # The get's deposit into the caller's own MPB is the 2nd data
        # write overall (1st is the remote put that seeds the source).
        chip = faulty_chip(FaultSpec(FaultKind.DROP_DATA_WRITE, nth=2))
        comm = Comm(chip)
        payload = bytes(range(64))

        def prog(core):
            cc = comm.attach(core)
            src = cc.alloc(64)
            src.write(payload)
            yield from cc.put(1, 0, src, 64)
            yield from cc.get_acked(1, 0, 128, 64)  # into own MPB @ 128

        run_spmd(chip, prog, core_ids=[0])
        assert chip.mpbs[0].read_bytes(128, 64) == payload
        assert chip.faults.n_recovered == 1

    def test_put_acked_retries_through_a_dropped_data_write(self):
        chip = faulty_chip(FaultSpec(FaultKind.DROP_DATA_WRITE, nth=1))
        comm = Comm(chip)
        payload = bytes(range(64))

        def prog(core):
            cc = comm.attach(core)
            src = cc.alloc(64)
            src.write(payload)
            yield from cc.put_acked(1, 0, src, 64)

        run_spmd(chip, prog, core_ids=[0])
        assert chip.mpbs[1].read_bytes(0, 64) == payload
        assert chip.faults.n_recovered == 1


class TestNewFaultKinds:
    def test_corrupt_data_write_inverts_the_payload(self):
        chip = faulty_chip(FaultSpec(FaultKind.CORRUPT_DATA_WRITE, nth=1))
        comm = Comm(chip)
        payload = bytes(range(64))

        def prog(core):
            cc = comm.attach(core)
            src = cc.alloc(64)
            src.write(payload)
            yield from cc.put(1, 0, src, 64)

        run_spmd(chip, prog, core_ids=[0])
        assert chip.mpbs[1].read_bytes(0, 64) == bytes(
            b ^ 0xFF for b in payload
        )
        assert chip.faults.n_injected == 1

    def test_link_down_window_swallows_a_burst_of_writes(self):
        # Window opens at core 0's 1st MPB transaction, so that same
        # put's write -- and everything to or from core 0 until the
        # window closes -- vanishes.  Later writes go through.
        chip = faulty_chip(
            FaultSpec(FaultKind.LINK_DOWN, nth=1, core=0, duration=200.0)
        )
        comm = Comm(chip)
        payload = bytes(range(64))

        def prog(core):
            cc = comm.attach(core)
            src = cc.alloc(64)
            src.write(payload)
            yield from cc.put(1, 0, src, 64)  # inside the window: lost
            assert chip.mpbs[1].read_bytes(0, 64) == bytes(64)
            yield core.compute(300.0)  # wait out the window
            yield from cc.put(1, 0, src, 64)  # delivered

        run_spmd(chip, prog, core_ids=[0])
        assert chip.mpbs[1].read_bytes(0, 64) == payload
        assert chip.faults.burst_dropped >= 1
        assert chip.faults.n_injected == 1  # the window itself, once
        assert "link-down bursts" in chip.faults.timeline_text()

    def test_link_down_drops_writes_toward_the_victim_too(self):
        # nth counts the *victim's* transactions: core 1's 1st MPB access
        # opens its window, after which core 0's writes *to* core 1 are
        # swallowed as well -- a correlated burst, not a single drop.
        chip = faulty_chip(
            FaultSpec(FaultKind.LINK_DOWN, nth=1, core=1, duration=500.0)
        )
        comm = Comm(chip)
        f = comm.flag("t")

        def prog(core):
            cc = comm.attach(core)
            if core.id == 1:
                src = cc.alloc(64)
                src.write(b"\x01" * 64)
                yield from cc.put(2, 0, src, 64)  # opens + eats this
            else:
                yield core.compute(50.0)  # let core 1 open the window
                yield from cc.flag_set(1, f, FlagValue(0, 9))  # eaten

        run_spmd(chip, prog, core_ids=[0, 1])
        assert chip.mpbs[2].read_bytes(0, 64) == bytes(64)
        assert f.peek(chip, 1) == FlagValue(0, 0)
        assert chip.faults.burst_dropped >= 2


class TestSustainedFaultKinds:
    """FLAPPING_LINK / CONGESTION_STORM / REPEATED_CRASH: regimes that
    keep firing for a window rather than a single point fault."""

    def test_sustained_spec_validation(self):
        with pytest.raises(ValueError):  # needs a duty cycle
            FaultSpec(
                FaultKind.FLAPPING_LINK, core=0, duration=10.0, period=5.0
            )
        with pytest.raises(ValueError):  # duty must be strictly inside (0, 1)
            FaultSpec(
                FaultKind.FLAPPING_LINK, core=0, duration=10.0, period=5.0,
                duty=1.0,
            )
        with pytest.raises(ValueError):  # cycle longer than the window
            FaultSpec(
                FaultKind.FLAPPING_LINK, core=0, duration=5.0, period=10.0,
                duty=0.5,
            )
        with pytest.raises(ValueError):  # needs a crash count
            FaultSpec(FaultKind.REPEATED_CRASH, core=0, period=100.0)
        with pytest.raises(ValueError):  # needs a per-access stall
            FaultSpec(FaultKind.CONGESTION_STORM, duration=100.0)
        with pytest.raises(ValueError):  # point kinds reject regime knobs
            FaultSpec(FaultKind.CORE_CRASH, core=0, period=5.0)

    def test_flapping_link_gates_writes_by_duty_cycle(self):
        # Core 0's 1st MPB access arms a 50% duty cycle: down for the
        # first half of each 100k-us period, over a 400k-us window.
        chip = faulty_chip(
            FaultSpec(
                FaultKind.FLAPPING_LINK, nth=1, core=0,
                duration=400_000.0, period=100_000.0, duty=0.5,
            )
        )
        comm = Comm(chip)
        p1, p2, p3, p4 = (bytes([i]) * 64 for i in (1, 2, 3, 4))

        def prog(core):
            cc = comm.attach(core)
            src = cc.alloc(64)
            src.write(p1)
            yield from cc.put(1, 0, src, 64)  # arms; down phase: lost
            assert chip.mpbs[1].read_bytes(0, 64) == bytes(64)
            yield core.compute(60_000.0)  # into the up half-cycle
            src.write(p2)
            yield from cc.put(1, 0, src, 64)  # delivered
            assert chip.mpbs[1].read_bytes(0, 64) == p2
            yield core.compute(40_000.0)  # next cycle's down phase
            src.write(p3)
            yield from cc.put(1, 0, src, 64)  # lost again
            assert chip.mpbs[1].read_bytes(0, 64) == p2
            yield core.compute(350_000.0)  # past the whole window
            src.write(p4)
            yield from cc.put(1, 0, src, 64)  # flap expired: delivered

        run_spmd(chip, prog, core_ids=[0])
        assert chip.mpbs[1].read_bytes(0, 64) == p4
        assert chip.faults.n_injected == 1  # the regime itself, once
        assert chip.faults.burst_dropped >= 2

    def _putter_with_gap(self, chip, comm):
        def prog(core):
            cc = comm.attach(core)
            src = cc.alloc(64)
            src.write(bytes(range(64)))
            yield from cc.put(1, 0, src, 64)
            yield from cc.put(2, 0, src, 64)

        return run_spmd(chip, prog, core_ids=[0]).makespan

    def test_congestion_storm_stalls_every_access_in_window(self):
        plain = SccChip(SccConfig())
        base = self._putter_with_gap(plain, Comm(plain))
        chip = faulty_chip(
            FaultSpec(
                FaultKind.CONGESTION_STORM, nth=1,
                duration=100_000.0, period=250.0,
            )
        )
        stormy = self._putter_with_gap(chip, Comm(chip))
        # Both puts' MPB accesses fall inside the window; each pays the
        # per-access stall, and nothing is dropped.
        assert stormy == pytest.approx(base + 2 * 250.0)
        assert chip.mpbs[1].read_bytes(0, 64) == bytes(range(64))
        assert chip.mpbs[2].read_bytes(0, 64) == bytes(range(64))

    def test_repeated_crash_churns_through_cores(self):
        # Core 0 dies at its 1st timed primitive; every 450 us after, the
        # next live core to execute one dies too, three crashes in all.
        chip = faulty_chip(
            FaultSpec(
                FaultKind.REPEATED_CRASH, nth=1, core=0,
                period=450.0, cycles=3,
            )
        )
        comm = Comm(chip)

        def prog(core):
            comm.attach(core)
            try:
                for _ in range(50):
                    yield core.compute(100.0)
            except FaultInjected:
                return "crashed"
            return "alive"

        res = run_spmd(chip, prog, core_ids=[0, 1, 2, 3])
        assert res.values.count("crashed") == 3
        assert res.values.count("alive") == 1
        assert res.values[0] == "crashed"  # the named first victim
        assert chip.faults.n_injected == 3
        assert sum(chip.faults.is_dead(c) for c in range(4)) == 3

    def test_repeated_crash_single_cycle_is_one_crash(self):
        chip = faulty_chip(
            FaultSpec(
                FaultKind.REPEATED_CRASH, nth=1, core=0,
                period=450.0, cycles=1,
            )
        )
        comm = Comm(chip)

        def prog(core):
            comm.attach(core)
            try:
                for _ in range(20):
                    yield core.compute(100.0)
            except FaultInjected:
                return "crashed"
            return "alive"

        res = run_spmd(chip, prog, core_ids=[0, 1])
        assert res.values == ("crashed", "alive")
        assert chip.faults.n_injected == 1


class TestPlanEdgeCases:
    def test_nth_beyond_candidate_count_never_fires(self):
        chip = faulty_chip(FaultSpec(FaultKind.DROP_FLAG_WRITE, nth=10**6))
        comm = Comm(chip)
        f = comm.flag("t")

        def prog(core):
            cc = comm.attach(core)
            yield from cc.flag_set(1, f, FlagValue(0, 1))
            yield from cc.flag_set(1, f, FlagValue(0, 2))

        run_spmd(chip, prog, core_ids=[0])
        assert f.peek(chip, 1) == FlagValue(0, 2)  # everything delivered
        assert chip.faults.n_injected == 0

    def test_overlapping_specs_on_the_same_site_are_rejected(self):
        with pytest.raises(ValueError, match="overlapping fault specs"):
            FaultPlan((
                FaultSpec(FaultKind.DROP_FLAG_WRITE, nth=3),
                FaultSpec(FaultKind.CORRUPT_FLAG_WRITE, nth=3),
            ))
        with pytest.raises(ValueError, match="overlapping fault specs"):
            FaultPlan((
                FaultSpec(FaultKind.CORE_CRASH, core=5, nth=2),
                FaultSpec(FaultKind.CORE_PAUSE, core=5, nth=2, duration=1.0),
            ))

    def test_distinct_sites_with_equal_nth_are_allowed(self):
        # Same nth, different counter category / core scope: no overlap.
        plan = FaultPlan((
            FaultSpec(FaultKind.DROP_FLAG_WRITE, nth=3),
            FaultSpec(FaultKind.DROP_DATA_WRITE, nth=3),
            FaultSpec(FaultKind.CORE_CRASH, core=1, nth=3),
            FaultSpec(FaultKind.CORE_CRASH, core=2, nth=3),
            FaultSpec(FaultKind.DROP_FLAG_WRITE, core=1, nth=3),
        ))
        assert len(plan) == 5

    def test_plan_rejects_non_spec_members(self):
        with pytest.raises(TypeError):
            FaultPlan(("drop_flag_write",))

    def test_new_kind_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.LINK_DOWN, core=1)  # needs a duration
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.LINK_DOWN, duration=5.0)  # needs a core
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.CORE_PAUSE, duration=5.0)  # needs a core
        assert (
            FaultSpec(FaultKind.CORRUPT_DATA_WRITE).category == "data_write"
        )
        assert (
            FaultSpec(FaultKind.LINK_DOWN, core=1, duration=5.0).category
            == "mpb_access"
        )


class TestAdversaryPlanValidation:
    """The Byzantine kinds (EQUIVOCATE / FORGE_FLAG_VALUE /
    LIE_IN_QUORUM) name a compromised *member*, not an anonymous
    operation stream, so their plans face extra structural checks."""

    def test_adversary_kind_requires_a_core(self):
        for kind in (FaultKind.FORGE_FLAG_VALUE, FaultKind.LIE_IN_QUORUM):
            with pytest.raises(ValueError, match="explicit adversary core"):
                FaultSpec(kind)
        with pytest.raises(ValueError, match="explicit adversary core"):
            FaultSpec(FaultKind.EQUIVOCATE, duration=1)

    def test_equivocate_requires_a_staging_window(self):
        with pytest.raises(ValueError, match="window of >= 1 staging"):
            FaultSpec(FaultKind.EQUIVOCATE, core=0)  # duration 0 = no window

    def test_adversary_core_outside_communicator_rejected(self):
        spec = FaultSpec(FaultKind.LIE_IN_QUORUM, core=19)
        with pytest.raises(ValueError, match="outside the 12-core"):
            FaultPlan((spec,), num_cores=12)
        # The same plan is fine when the communicator is big enough (or
        # its size is unknown at plan-build time).
        assert len(FaultPlan((spec,), num_cores=24)) == 1
        assert len(FaultPlan((spec,))) == 1

    def test_overlapping_equivocation_windows_rejected(self):
        with pytest.raises(
            ValueError, match="overlapping equivocation windows"
        ):
            FaultPlan((
                FaultSpec(FaultKind.EQUIVOCATE, core=0, nth=1, duration=3),
                FaultSpec(FaultKind.EQUIVOCATE, core=0, nth=2, duration=2),
            ))

    def test_disjoint_equivocation_windows_allowed(self):
        plan = FaultPlan((
            FaultSpec(FaultKind.EQUIVOCATE, core=0, nth=1, duration=2),
            FaultSpec(FaultKind.EQUIVOCATE, core=0, nth=3, duration=1),
            FaultSpec(FaultKind.EQUIVOCATE, core=1, nth=1, duration=4),
        ))
        assert len(plan) == 3

    def test_non_adversary_cores_are_not_range_checked(self):
        # num_cores only constrains adversary identity; a crash victim
        # outside the communicator is legal (and simply never fires).
        plan = FaultPlan(
            (FaultSpec(FaultKind.CORE_CRASH, core=40),), num_cores=12
        )
        assert len(plan) == 1


class TestTimelineInErrors:
    def test_timeout_error_carries_the_fault_timeline(self):
        chip = faulty_chip(FaultSpec(FaultKind.DROP_FLAG_WRITE, nth=1))
        comm = Comm(chip)
        f = comm.flag("t")

        def prog(core):
            cc = comm.attach(core)
            yield from cc.flag_set(1, f, FlagValue(0, 1))  # dropped
            yield from cc.wait_flags(
                [f], lambda v: v[0].seq >= 1, timeout=50.0, site="test.wait"
            )

        with pytest.raises(SimError) as ei:
            run_spmd(chip, prog, core_ids=[1])
        msg = str(ei.value.__cause__)
        assert "fault timeline:" in msg and "drop_flag_write" in msg

    def test_deadlock_error_carries_the_fault_timeline(self):
        chip = faulty_chip(FaultSpec(FaultKind.DROP_FLAG_WRITE, nth=1))
        comm = Comm(chip)
        f = comm.flag("t")

        def prog(core):
            cc = comm.attach(core)
            if core.id == 0:
                yield from cc.flag_set(1, f, FlagValue(0, 1))  # dropped
            else:
                yield from cc.wait_flags([f], lambda v: v[0].seq >= 1)

        with pytest.raises(DeadlockError) as ei:
            run_spmd(chip, prog, core_ids=[0, 1])
        msg = str(ei.value)
        assert "fault timeline:" in msg and "drop_flag_write" in msg

    def test_fault_free_errors_stay_clean(self):
        chip = faulty_chip()  # injector attached, nothing injected
        comm = Comm(chip)
        f = comm.flag("t")

        def prog(core):
            cc = comm.attach(core)
            yield from cc.wait_flags([f], lambda v: v[0].seq >= 1)

        with pytest.raises(DeadlockError) as ei:
            run_spmd(chip, prog, core_ids=[0])
        assert "fault timeline:" not in str(ei.value)


class TestCampaignKnobs:
    def test_parse_kinds_new_aliases(self):
        from repro.bench.faultcampaign import parse_kinds

        assert parse_kinds(["corrupt_data", "link_down"]) == (
            FaultKind.CORRUPT_DATA_WRITE,
            FaultKind.LINK_DOWN,
        )
        assert parse_kinds(["flap", "churn", "storm"]) == (
            FaultKind.FLAPPING_LINK,
            FaultKind.REPEATED_CRASH,
            FaultKind.CONGESTION_STORM,
        )
        # The long names work too.
        assert parse_kinds(
            ["flapping_link", "repeated_crash", "congestion_storm"]
        ) == parse_kinds(["flap", "churn", "storm"])
        with pytest.raises(ValueError):
            parse_kinds(["bogus"])

    def test_campaign_knob_validation(self):
        from repro.bench import FaultCampaign

        with pytest.raises(ValueError):
            FaultCampaign(trials=1, faults_per_trial=0)
        with pytest.raises(ValueError):
            FaultCampaign(trials=1, crash_site="edge")
        with pytest.raises(ValueError):
            FaultCampaign(trials=1, link_down_duration=0.0)
        with pytest.raises(ValueError, match="multiple of 32"):
            FaultCampaign(trials=1, nbytes=100)  # a trial's schedule is in CL

    @pytest.mark.parametrize("kind", [
        FaultKind.LIE_IN_QUORUM, FaultKind.FORGE_FLAG_VALUE,
        FaultKind.EQUIVOCATE,
    ])
    def test_adversary_kinds_need_a_byz_campaign(self, kind):
        """Outside byz mode no hook counts adversary sites, so the fault
        could never fire: the campaign must refuse it, not report a
        100 % survival rate over zero injections."""
        from repro.bench import FaultCampaign

        with pytest.raises(ValueError, match="needs byz=True"):
            FaultCampaign(trials=1, kinds=(kind,))
        with pytest.raises(ValueError, match="needs byz=True"):
            FaultCampaign(trials=1, kinds=(FaultKind.CORE_CRASH, kind))
        FaultCampaign(trials=1, kinds=(kind,), byz=True)  # fine in byz mode

    def test_sustained_kind_trial_plans(self):
        from repro.bench import FaultCampaign
        from repro.bench.faultcampaign import FAULT_ENVELOPES, parse_kinds

        campaign = FaultCampaign(
            trials=3,
            seed=7,
            kinds=parse_kinds(["flap", "churn", "storm"]),
            crash_site="leaf",
        )
        plans = campaign.trial_plans()
        assert plans == campaign.trial_plans()  # pure function of seed
        flap, churn, storm = (p.specs[0] for p in plans)
        assert flap.kind is FaultKind.FLAPPING_LINK
        assert flap.core is not None and flap.core != 0  # never the source
        envelope = FAULT_ENVELOPES[FaultKind.FLAPPING_LINK]
        assert flap.duration == envelope["duration"]
        assert flap.period == envelope["period"]
        assert flap.duty == envelope["duty"]
        assert churn.kind is FaultKind.REPEATED_CRASH
        envelope = FAULT_ENVELOPES[FaultKind.REPEATED_CRASH]
        assert churn.period == envelope["period"]
        assert churn.cycles == envelope["cycles"]
        assert storm.kind is FaultKind.CONGESTION_STORM
        assert storm.core is None  # chip-wide, keyed to an access number
        envelope = FAULT_ENVELOPES[FaultKind.CONGESTION_STORM]
        assert storm.duration == envelope["duration"]
        assert storm.period == envelope["period"]

    def test_crash_site_choices_cover_the_root(self):
        from repro.bench import FaultCampaign
        from repro.faults import CRASH_SITES

        assert CRASH_SITES == ("leaf", "interior", "any", "root")
        # Every advertised choice is accepted by the campaign validator.
        for site in CRASH_SITES:
            FaultCampaign(trials=1, crash_site=site)

    def test_root_crash_site_always_targets_the_source(self):
        from repro.bench import FaultCampaign

        campaign = FaultCampaign(
            trials=8,
            seed=3,
            kinds=(FaultKind.CORE_CRASH,),
            crash_site="root",
            mid_stream=True,
        )
        plans = campaign.trial_plans()
        assert plans == campaign.trial_plans()  # pure function of seed
        assert len(plans) == 8
        for plan in plans:
            (spec,) = plan.specs
            assert spec.kind is FaultKind.CORE_CRASH
            assert spec.core == 0  # campaigns broadcast from rank 0
            assert spec.nth >= 1

    def test_multi_fault_trial_plans_are_reproducible_and_disjoint(self):
        from repro.bench import FaultCampaign

        campaign = FaultCampaign(
            trials=6,
            seed=11,
            kinds=(FaultKind.CORE_CRASH, FaultKind.CORRUPT_DATA_WRITE),
            faults_per_trial=2,
            crash_site="interior",
            mid_stream=True,
        )
        plans = campaign.trial_plans()
        assert plans == campaign.trial_plans()  # pure function of seed
        from repro.core import PropagationTree

        tree = PropagationTree(48, 7, 0)
        tree_interior = {r for r in range(1, 48) if tree.children_of(r)}
        for plan in plans:
            assert len(plan) == 2
            sites = {(s.category, s.core, s.nth) for s in plan}
            assert len(sites) == 2  # rejection sampling kept them disjoint
            kinds = {s.kind for s in plan}
            assert kinds == {
                FaultKind.CORE_CRASH, FaultKind.CORRUPT_DATA_WRITE
            }
            crash = next(s for s in plan if s.kind is FaultKind.CORE_CRASH)
            assert crash.core in tree_interior


class TestSeededDeterminism:
    def _trace_once(self, specs):
        tracer = Tracer(enabled=True)
        chip = faulty_chip(*specs, tracer=tracer)
        comm = Comm(chip)
        f = comm.flag("t")

        def prog(core):
            cc = comm.attach(core)
            for i in range(1, 4):
                yield from cc.flag_set_acked(
                    (core.id + 1) % 4, f, FlagValue(0, i)
                )
            yield from cc.wait_flags([f], lambda v: v[0].seq >= 3)

        run_spmd(chip, prog, core_ids=[0, 1, 2, 3])
        return "\n".join(str(r) for r in tracer.records)

    def test_same_plan_gives_byte_identical_trace(self):
        specs = (
            FaultSpec(FaultKind.DROP_FLAG_WRITE, nth=3),
            FaultSpec(FaultKind.LINK_STALL, nth=5, duration=40.0),
        )
        assert self._trace_once(specs) == self._trace_once(specs)

    def test_different_plan_gives_different_trace(self):
        a = self._trace_once((FaultSpec(FaultKind.DROP_FLAG_WRITE, nth=3),))
        b = self._trace_once((FaultSpec(FaultKind.DROP_FLAG_WRITE, nth=4),))
        assert a != b
