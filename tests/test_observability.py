"""Tests for the observability layer (``repro.obs``).

Covers the four guarantees the layer makes:

- *passivity*: attaching a tracer, a metrics registry and an invariant
  checker leaves every measured latency bit-identical (the acceptance
  criterion of docs/OBSERVABILITY.md);
- *metrics*: counters/gauges/histograms aggregate correctly and the chip
  harvest reports sane, internally consistent numbers;
- *Chrome trace export*: the emitted JSON is well-formed (validated by
  the same checker a test would use), spans pair up, ranks map to
  per-core tracks;
- *invariant checking*: clean runs pass, and each invariant has a
  negative test -- including the end-to-end one where a seeded dropped
  flag write is caught as ``lost-write`` while the baseline deadlocks.
"""

import json

import pytest

from repro.bench import BcastSpec, run_broadcast
from repro.cli import main as cli_main
from repro.core import OcBcast, OcBcastConfig
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.obs import (
    InvariantChecker,
    InvariantViolation,
    MetricsRegistry,
    canonical_trace,
    collect_chip_metrics,
    to_chrome_trace,
    trace_digest,
    validate_chrome_trace,
)
from repro.obs.metrics import Histogram
from repro.rcce import Comm
from repro.scc import ContentionMode, SccChip, SccConfig, run_spmd
from repro.scc.config import CACHE_LINE
from repro.sim import DeadlockError, SimError, Tracer
from repro.sim.trace import TraceRecord


# ---------------------------------------------------------------------------
# MetricsRegistry


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 2)
        reg.set("g", 7.5)
        h = reg.histogram("h")
        for v in (0.005, 0.5, 50.0):
            h.observe(v)
        flat = reg.flat()
        assert flat["a"] == 3.0
        assert flat["g"] == 7.5
        assert flat["h.count"] == 3
        assert flat["h.mean"] == pytest.approx((0.005 + 0.5 + 50.0) / 3)
        assert flat["h.min"] == 0.005 and flat["h.max"] == 50.0

    def test_histogram_buckets_and_zeros(self):
        h = Histogram("w", bounds=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        h.observe(100.0)
        h.observe_zeros(7)
        s = h.summary()
        assert s["count"] == 10
        assert s["min"] == 0.0 and s["max"] == 100.0
        # 8 samples <= 1.0 (7 zeros + 0.5), one in (1, 10], one overflow.
        assert h.buckets == [8, 1, 1]
        flat = MetricsRegistry()
        flat.histograms["w"] = h
        out = flat.flat()
        assert out["w.le_1"] == 8 and out["w.le_10"] == 9 - 8 and out["w.le_inf"] == 1

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")

    def test_json_and_csv_round_trip(self):
        reg = MetricsRegistry()
        reg.inc("events", 5)
        reg.set("util", 0.25)
        doc = json.loads(reg.to_json())
        assert doc["counters"]["events"] == 5.0
        rows = [line.split(",") for line in reg.to_csv().splitlines()]
        assert rows[0] == ["metric", "value"]
        assert ["events", "5.0"] in rows or ["events", "5"] in rows


# ---------------------------------------------------------------------------
# Passivity: instrumentation must not move a single event.


def _latencies(config, nbytes, *, instrumented):
    tracer = checker = metrics = None
    if instrumented:
        tracer = Tracer(enabled=True)
        checker = InvariantChecker(lossless=True)
        tracer.add_listener(checker.feed)
        metrics = MetricsRegistry()
    res = run_broadcast(
        BcastSpec("oc", k=7), nbytes, config=config,
        iters=2, warmup=1, tracer=tracer, metrics=metrics,
    )
    if checker is not None:
        checker.check()
    if metrics is not None:
        assert len(metrics) > 0
    return res.latencies


class TestPassivity:
    @pytest.mark.perf
    def test_instrumentation_wall_clock_overhead_is_bounded(self):
        """Wall-clock guard (deselected from tier-1: timing-sensitive).

        Full instrumentation -- tracer, online checker, metrics -- may
        slow the host-time run, but within a small factor; the criterion
        that the *disabled* path costs <2% is enforced by `make perf` /
        perf_check on the kernel benchmark, whose hot loop this layer
        does not touch.
        """
        import time
        nbytes = 96 * CACHE_LINE

        def timed(instrumented):
            t0 = time.perf_counter()
            for _ in range(3):
                _latencies(SccConfig(), nbytes, instrumented=instrumented)
            return time.perf_counter() - t0

        timed(False)  # warm caches
        base, instrumented = timed(False), timed(True)
        assert instrumented < 3.0 * base + 0.05

    def test_metrics_on_latencies_bit_identical_batch(self):
        nbytes = 96 * CACHE_LINE
        base = _latencies(SccConfig(), nbytes, instrumented=False)
        obs = _latencies(SccConfig(), nbytes, instrumented=True)
        assert base == obs  # exact equality, not approx

    def test_metrics_on_latencies_bit_identical_exact_mode(self):
        cfg = SccConfig(contention_mode=ContentionMode.EXACT, jitter=0.02)
        nbytes = 24 * CACHE_LINE
        assert (_latencies(cfg, nbytes, instrumented=False)
                == _latencies(cfg, nbytes, instrumented=True))

    def test_disabled_tracer_is_never_called_on_ft_broadcast(self):
        """Zero cost when off: the protocol's trace sites test
        ``tracer.enabled`` themselves, so a disabled tracer's ``emit`` is
        not even called (no source string, no detail dict built)."""

        class CountingTracer(Tracer):
            calls = 0

            def emit(self, *args, **detail):
                self.calls += 1
                super().emit(*args, **detail)

        def emits(enabled):
            tracer = CountingTracer(enabled=enabled)
            chip = SccChip(SccConfig(mesh_cols=2, mesh_rows=2), tracer=tracer)
            comm = Comm(chip)
            oc = OcBcast(comm, OcBcastConfig(k=3, ft=True))
            nbytes = 8 * CACHE_LINE

            def program(core):
                cc = comm.attach(core)
                buf = cc.alloc(nbytes)
                yield from oc.bcast(cc, 0, buf, nbytes)

            run_spmd(chip, program)
            return tracer.calls

        assert emits(True) > 0
        assert emits(False) == 0


# ---------------------------------------------------------------------------
# Chip harvest sanity


class TestChipHarvest:
    def test_harvested_metrics_are_consistent(self):
        metrics = MetricsRegistry()
        tracer = Tracer(enabled=True)
        run_broadcast(
            BcastSpec("oc", k=7), 96 * CACHE_LINE,
            iters=1, warmup=0, tracer=tracer, metrics=metrics,
        )
        flat = metrics.flat()
        assert flat["sim.events_scheduled"] > 0
        assert flat["trace.records"] == len(tracer.records)
        assert flat["flags.writes"] > 0
        assert flat["oc.bcasts"] == 1.0
        assert flat["oc.chunks"] == 1.0
        assert flat["mpb.port.acquisitions.total"] > 0
        assert 0.0 < flat["mpb.port.utilisation.max"] <= 1.0
        assert flat["core.compute_time.total"] > 0
        assert flat["core.poll_time.total"] > 0
        # Wait histogram observed one sample per port grant.
        assert flat["mpb.port.wait_us.count"] == flat["mpb.port.acquisitions.total"]

    def test_l1_hits_and_misses_are_harvested(self):
        """Formula 14's "L1 ~ 0" term as a number: streaming a fresh
        buffer never hits; re-sending one the L1 still holds does."""

        def harvest(algo, sends):
            chip = SccChip(SccConfig(mesh_cols=2, mesh_rows=2))
            comm = Comm(chip)
            bcast = BcastSpec(algo, k=3).build(comm)
            nbytes = 8 * CACHE_LINE

            def program(core):
                cc = comm.attach(core)
                buf = cc.alloc(nbytes)
                for _ in range(sends):
                    yield from bcast(cc, 0, buf, nbytes)

            run_spmd(chip, program)
            flat = collect_chip_metrics(chip).flat()
            assert flat["l1.hits.total"] == sum(
                flat[f"l1.{c.id}.hits"] for c in chip.cores)
            return flat

        fresh = harvest("oc", sends=1)
        assert fresh["l1.hits.total"] == 0.0
        assert fresh["l1.misses.total"] == fresh["core.mem_lines.total"] > 0
        resent = harvest("binomial", sends=2)
        assert resent["l1.hits.total"] > 0
        assert (resent["l1.hits.total"] + resent["l1.misses.total"]
                == resent["core.mem_lines.total"])

    def test_collect_into_external_registry(self):
        chip = SccChip(SccConfig())
        reg = MetricsRegistry()
        out = collect_chip_metrics(chip, reg, per_entity=False)
        assert out is reg
        assert reg.flat()["sim.events_scheduled"] == 0.0


# ---------------------------------------------------------------------------
# Chrome trace export


def _traced_run(nbytes=8 * CACHE_LINE):
    tracer = Tracer(enabled=True)
    run_broadcast(BcastSpec("oc", k=3), nbytes,
                  config=SccConfig(mesh_cols=2, mesh_rows=2),
                  iters=1, warmup=0, tracer=tracer)
    return tracer.records


class TestChromeTrace:
    def test_export_is_well_formed(self):
        records = _traced_run()
        doc = to_chrome_trace(records)
        validate_chrome_trace(doc)  # raises on malformation
        events = doc["traceEvents"]
        assert any(e["ph"] == "B" and e["name"] == "oc.chunk" for e in events)
        assert any(e["ph"] == "E" for e in events)
        # rank/core sources share one track per core id.
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert any(n.startswith(("core", "rank")) for n in names)

    def test_span_tid_is_the_core_id(self):
        doc = to_chrome_trace(_traced_run())
        tids = {e["tid"] for e in doc["traceEvents"]
                if e["ph"] == "B" and e["name"] == "oc.chunk"}
        assert tids <= set(range(8))

    def test_end_events_carry_no_args(self):
        doc = to_chrome_trace(_traced_run())
        assert all(not e.get("args")
                   for e in doc["traceEvents"] if e["ph"] == "E")

    def test_write_and_reload(self, tmp_path):
        from repro.obs import write_chrome_trace
        path = tmp_path / "t.json"
        write_chrome_trace(_traced_run(), path)
        validate_chrome_trace(json.loads(path.read_text()))

    def test_validator_rejects_malformed_docs(self):
        ok = {"name": "x", "ph": "i", "ts": 0.0, "pid": 1, "tid": 0, "s": "t"}
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": "nope"})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "i", "ts": 0.0,
                                                   "pid": 1, "tid": 0}]})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [dict(ok, ph="Z")]})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [dict(ok, ts="soon")]})
        # E without a matching B, and an unclosed B.
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "E", "ts": 1.0, "pid": 1, "tid": 0}]})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "B", "ts": 1.0, "pid": 1, "tid": 0}]})
        # E that ends before its B began.
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "B", "ts": 2.0, "pid": 1, "tid": 0},
                {"name": "x", "ph": "E", "ts": 1.0, "pid": 1, "tid": 0}]})


# ---------------------------------------------------------------------------
# Golden serialization


class TestCanonicalTrace:
    def test_detail_key_order_does_not_matter(self):
        a = TraceRecord(1.5, "core0", "k", {"x": 1, "y": 2})
        b = TraceRecord(1.5, "core0", "k", {"y": 2, "x": 1})
        assert canonical_trace([a]) == canonical_trace([b])

    def test_digest_is_sensitive_to_any_change(self):
        recs = [TraceRecord(1.0, "core0", "k", {"x": 1})]
        base = trace_digest(recs)
        assert trace_digest([TraceRecord(1.0 + 1e-12, "core0", "k", {"x": 1})]) != base
        assert trace_digest([TraceRecord(1.0, "core1", "k", {"x": 1})]) != base
        assert trace_digest([TraceRecord(1.0, "core0", "k", {"x": 2})]) != base


# ---------------------------------------------------------------------------
# Invariant checker


def _rec(kind, source, **detail):
    return TraceRecord(0.0, source, kind, detail)


class TestInvariantCheckerUnits:
    def test_clean_stream_is_ok(self):
        c = InvariantChecker()
        c.feed(_rec("flag_write", "core0", flag="oc.notify", owner=1, off=0,
                    seq=1, landed="ok"))
        # core0 invented nothing: it is the root once it stages.
        assert not c.ok  # staging never seen -> invented notify
        c2 = InvariantChecker()
        c2.feed(_rec("oc.chunk_staged", "rank0", idx=0, seq=1, buf=0, floor=-1))
        c2.feed(_rec("flag_write", "core0", flag="oc.notify", owner=1, off=0,
                     seq=1, landed="ok"))
        c2.feed(_rec("oc.fetch", "rank1", idx=0, seq=1, parent=0, buf=0,
                     floor=-1))
        assert c2.ok

    def test_lost_write_fires_only_when_lossless(self):
        rec = _rec("flag_write", "core0", flag="f", owner=1, off=0, seq=1,
                   landed="dropped")
        lossy = InvariantChecker(lossless=False)
        lossy.feed(rec)
        assert lossy.ok
        strictly = InvariantChecker(lossless=True)
        strictly.feed(rec)
        assert not strictly.ok
        assert strictly.violations[0].invariant == "lost-write"

    @pytest.mark.parametrize("rec", [
        _rec("vote_write", "core2", array="rbc.echo", owner=5, slot=2, seq=1,
             digest=7, landed="dropped"),
        _rec("put_bytes", "core0", dst=3, off=0, n=32, landed="corrupted"),
    ], ids=["vote_write", "put_bytes"])
    def test_lost_write_covers_every_landed_record(self, rec):
        lossy = InvariantChecker(lossless=False)
        lossy.feed(rec)
        assert lossy.ok
        strictly = InvariantChecker(lossless=True)
        strictly.feed(rec)
        assert [v.invariant for v in strictly.violations] == ["lost-write"]

    def test_flag_fifo_regression_detected(self):
        c = InvariantChecker()
        c.feed(_rec("flag_write", "core0", flag="oc.done0", owner=1, off=64,
                    seq=2, landed="ok"))
        c.feed(_rec("flag_write", "core0", flag="oc.done0", owner=1, off=64,
                    seq=1, landed="ok"))
        assert [v.invariant for v in c.violations] == ["flag-fifo"]

    def test_invented_notify_detected(self):
        c = InvariantChecker()
        c.feed(_rec("flag_write", "core3", flag="oc.notify", owner=5, off=0,
                    seq=4, landed="ok"))
        assert c.violations[0].invariant == "no-invented-notify"

    def test_fetch_before_notify_detected(self):
        c = InvariantChecker()
        c.feed(_rec("oc.fetch", "rank3", idx=0, seq=1, parent=0, buf=0,
                    floor=-1))
        assert c.violations[0].invariant == "notify-before-fetch"

    def test_reuse_before_ack_detected_and_dead_child_exempted(self):
        def staged(floor):
            return _rec("oc.chunk_staged", "rank0", idx=0, seq=floor + 2,
                        buf=0, floor=floor)

        c = InvariantChecker()
        c.feed(_rec("flag_write", "core2", flag="oc.done", owner=0, off=64,
                    seq=0, landed="ok"))
        c.feed(staged(1))  # core2 only acked 0 < floor 1
        assert c.violations[0].invariant == "no-reuse-before-ack"
        # Same stream, but the lagging child was declared dead first.
        c2 = InvariantChecker()
        c2.feed(_rec("flag_write", "core2", flag="oc.done", owner=0, off=64,
                     seq=0, landed="ok"))
        c2.feed(_rec("oc.ft.child_dead", "rank0", child=2))
        c2.feed(staged(1))
        assert c2.ok

    def test_strict_mode_raises_at_the_record(self):
        c = InvariantChecker(strict=True)
        with pytest.raises(InvariantViolation) as ei:
            c.feed(_rec("oc.fetch", "rank3", idx=0, seq=1, parent=0, buf=0,
                        floor=-1))
        assert ei.value.invariant == "notify-before-fetch"

    def test_violation_message_carries_evidence(self):
        c = InvariantChecker()
        c.feed(_rec("flag_write", "core0", flag="f", owner=1, off=0, seq=1,
                    landed="dropped"))
        msg = str(c.violations[0])
        assert "lost-write" in msg and "dropped" in msg
        assert "offending record" in msg and "last" in msg

    def test_attach_requires_enabled_tracer(self):
        chip = SccChip(SccConfig(mesh_cols=1, mesh_rows=1))
        with pytest.raises(ValueError):
            InvariantChecker().attach(chip)

    def test_uniform_agreement_mixed_outcomes_detected(self):
        c = InvariantChecker()
        c.feed(_rec("svc.outcome", "rank0", msg=1, status="ok", epoch=1,
                    crc=0xDEAD))
        c.feed(_rec("svc.outcome", "rank1", msg=1, status="aborted", epoch=1))
        assert [v.invariant for v in c.violations] == ["uniform-agreement"]

    def test_uniform_agreement_crc_mismatch_detected(self):
        c = InvariantChecker()
        c.feed(_rec("svc.outcome", "rank0", msg=1, status="ok", epoch=1,
                    crc=0xDEAD))
        c.feed(_rec("svc.outcome", "rank1", msg=1, status="ok", epoch=1,
                    crc=0xBEEF))
        assert [v.invariant for v in c.violations] == ["uniform-agreement"]

    def test_uniform_agreement_clean_and_non_decisive_cases(self):
        c = InvariantChecker()
        # All-ok with matching crc, an evicted rank, a self-evicted rank
        # and a separate all-abort message: no violation.
        c.feed(_rec("svc.outcome", "rank0", msg=1, status="ok", epoch=1,
                    crc=0xDEAD))
        c.feed(_rec("svc.outcome", "rank1", msg=1, status="ok", epoch=1,
                    crc=0xDEAD))
        c.feed(_rec("svc.outcome", "rank2", msg=1, status="evicted", epoch=1))
        c.feed(_rec("svc.outcome", "rank3", msg=1, status="self_evicted",
                    epoch=1))
        c.feed(_rec("svc.outcome", "rank0", msg=2, status="aborted", epoch=2))
        c.feed(_rec("svc.outcome", "rank1", msg=2, status="aborted", epoch=2))
        assert c.ok

    def test_service_attempt_resets_done_floors(self):
        # Stale done acks from a pre-recovery tree must not constrain the
        # re-rooted re-broadcast: svc.attempt fences them.
        c = InvariantChecker()
        c.feed(_rec("flag_write", "core2", flag="oc.done0", owner=1, off=64,
                    seq=3, landed="ok"))
        c.feed(_rec("svc.attempt", "rank1", round=2, epoch=1, src=1,
                    members=4))
        c.feed(_rec("oc.chunk_staged", "rank1", idx=1, seq=6, buf=1, floor=4))
        assert c.ok


class TestNoFalseEviction:
    """I8 unit cases over synthetic record streams."""

    @staticmethod
    def _hb(rank, rnd):
        return _rec("member.hb", f"rank{rank}", round=rnd, ok=True, to=0)

    @staticmethod
    def _suspect(member, rnd):
        return _rec("member.suspect", "rank0", member=member, round=rnd)

    def test_suspecting_a_flawless_heartbeater_is_a_violation(self):
        c = InvariantChecker(lossless=False)
        for rnd in (1, 2, 3):
            c.feed(self._hb(5, rnd))
        c.feed(self._suspect(5, 3))
        assert [v.invariant for v in c.violations] == ["no-false-eviction"]
        assert "rank5" in str(c.violations[0])

    def test_crashed_member_may_be_suspected(self):
        for fault, site in (("core_crash", "core5"),
                            ("repeated_crash", "core5 (churn)")):
            c = InvariantChecker(lossless=False)
            for rnd in (1, 2, 3):
                c.feed(self._hb(5, rnd))
            c.feed(_rec("fault.injected", "faults", fault=fault,
                        site=site, nth=4))
            c.feed(self._suspect(5, 3))
            assert c.ok, fault

    def test_silent_member_may_be_suspected(self):
        c = InvariantChecker(lossless=False)
        c.feed(self._hb(5, 1))
        c.feed(self._hb(5, 2))
        c.feed(self._suspect(5, 3))  # never sent round 3
        assert c.ok

    def test_member_with_a_round_gap_may_be_suspected(self):
        # A lagging orphan that fast-forwarded over round 2 *did* miss a
        # send -- suspicion later is not a detector bug.
        c = InvariantChecker(lossless=False)
        c.feed(self._hb(5, 1))
        c.feed(self._hb(5, 3))
        c.feed(self._suspect(5, 3))
        assert c.ok

    def test_failed_reporter_may_be_suspected(self):
        # The member itself exhausted its heartbeat retries this round:
        # the coordinator's silence is real even though the send was
        # traced.
        c = InvariantChecker(lossless=False)
        for rnd in (1, 2, 3):
            c.feed(self._hb(5, rnd))
        c.feed(_rec("svc.report_failed", "rank5", round=3))
        c.feed(self._suspect(5, 3))
        assert c.ok

    def test_never_heartbeated_member_may_be_suspected(self):
        c = InvariantChecker(lossless=False)
        c.feed(self._suspect(7, 1))
        assert c.ok

    def test_resend_of_one_round_stays_contiguous(self):
        # Re-reporting the same round to an election winner is not a gap.
        c = InvariantChecker(lossless=False)
        c.feed(self._hb(5, 1))
        c.feed(self._hb(5, 1))
        c.feed(self._hb(5, 2))
        c.feed(self._suspect(5, 2))
        assert [v.invariant for v in c.violations] == ["no-false-eviction"]


class TestSeededDropIsCaught:
    """The end-to-end negative: one dropped notify flag deadlocks the
    baseline protocol, and the online checker names the exact write."""

    def test_dropped_flag_write_reported_as_lost_write(self):
        tracer = Tracer(enabled=True)
        plan = FaultPlan((FaultSpec(FaultKind.DROP_FLAG_WRITE, nth=2),))
        chip = SccChip(SccConfig(mesh_cols=2, mesh_rows=2),
                       tracer=tracer, faults=FaultInjector(plan))
        checker = InvariantChecker(lossless=True).attach(chip)
        comm = Comm(chip)
        oc = OcBcast(comm, OcBcastConfig(k=3))
        nbytes = 8 * CACHE_LINE
        payload = bytes(i % 256 for i in range(nbytes))

        def program(core):
            cc = comm.attach(core)
            buf = cc.alloc(nbytes)
            if cc.rank == 0:
                buf.write(payload)
            yield from oc.bcast(cc, 0, buf, nbytes)

        with pytest.raises((DeadlockError, SimError)):
            run_spmd(chip, program)
        assert not checker.ok
        v = checker.violations[0]
        assert v.invariant == "lost-write"
        assert v.record.detail["landed"] == "dropped"
        assert chip.faults.n_injected == 1
        with pytest.raises(InvariantViolation):
            checker.check()


# ---------------------------------------------------------------------------
# CLI


class TestTraceCli:
    def test_trace_command_writes_valid_chrome_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        metrics_csv = tmp_path / "metrics.csv"
        rc = cli_main(["trace", "--algo", "oc", "--k", "3",
                       "--cache-lines", "4", "-o", str(out),
                       "--metrics-out", str(metrics_csv)])
        assert rc == 0
        validate_chrome_trace(json.loads(out.read_text()))
        assert metrics_csv.read_text().startswith("metric,value")
        text = capsys.readouterr().out
        assert "invariants" in text and "OK" in text

    def test_trace_command_metrics_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        metrics_json = tmp_path / "metrics.json"
        rc = cli_main(["trace", "--algo", "binomial", "--cache-lines", "2",
                       "-o", str(out), "--metrics-out", str(metrics_json)])
        assert rc == 0
        doc = json.loads(metrics_json.read_text())
        assert "counters" in doc and "gauges" in doc

    def test_bcast_metrics_flag(self, capsys):
        rc = cli_main(["bcast", "--algo", "oc", "--k", "3",
                       "--cache-lines", "4", "--iters", "1", "--metrics"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sim.events_scheduled" in out
