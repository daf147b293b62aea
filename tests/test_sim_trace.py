"""Tests for the tracing facility."""

from repro.sim import TraceRecord, Tracer


class TestTracer:
    def test_disabled_by_default_records_nothing(self):
        t = Tracer()
        t.emit(1.0, "src", "kind", a=1)
        assert len(t) == 0

    def test_enabled_records(self):
        t = Tracer(enabled=True)
        t.emit(1.0, "core0", "put", n=32)
        t.emit(2.0, "core1", "get", n=64)
        assert len(t) == 2
        assert t.records[0].time == 1.0
        assert t.records[1].detail == {"n": 64}

    def test_clear(self):
        t = Tracer(enabled=True)
        t.emit(1.0, "s", "k")
        t.clear()
        assert len(t) == 0

    def test_record_str(self):
        rec = TraceRecord(1.5, "core0", "put", {"n": 32})
        s = str(rec)
        assert "core0" in s and "put" in s and "n=32" in s

    def test_iteration(self):
        t = Tracer(enabled=True)
        for i in range(3):
            t.emit(float(i), "s", "k", i=i)
        assert [r.detail["i"] for r in t] == [0, 1, 2]
