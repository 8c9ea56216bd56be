"""Monitoring tests: trace log, registry counters, concurrency gauges."""

from repro.bluebox.monitoring import TraceLog
from repro.observe import MetricsRegistry


class TestTraceLog:
    def test_record_and_query(self):
        log = TraceLog()
        log.record(1.0, "enqueue", task="t1")
        log.record(2.0, "deliver", task="t1")
        log.record(3.0, "enqueue", task="t2")
        assert len(log.of_kind("enqueue")) == 2
        assert len(log.for_task("t1")) == 2

    def test_disabled_records_nothing(self):
        log = TraceLog(enabled=False)
        log.record(1.0, "x")
        assert log.events == []

    def test_capacity_cap(self):
        log = TraceLog(capacity=2)
        for i in range(5):
            log.record(float(i), "e")
        assert len(log.events) == 2

    def test_render_format(self):
        log = TraceLog()
        log.record(1.5, "deliver", node="n1")
        text = log.render()
        assert "deliver" in text and "node=n1" in text

    def test_where_predicate(self):
        log = TraceLog()
        log.record(1.0, "a", n=1)
        log.record(2.0, "a", n=2)
        assert len(log.where(lambda e: e.detail["n"] > 1)) == 1


class TestCounters:
    """Counters live in the metrics registry; float sums are
    histograms (``total``/``mean``)."""

    def test_incr_get(self):
        metrics = MetricsRegistry()
        metrics.counter("x").inc()
        metrics.counter("x").inc(2)
        assert metrics.get("x") == 3
        assert metrics.get("missing") == 0

    def test_sums_and_mean(self):
        metrics = MetricsRegistry()
        dur = metrics.histogram("dur")
        dur.observe(2.0)
        dur.observe(4.0)
        assert dur.total == 6.0
        assert dur.mean == 3.0
        assert metrics.histogram("never").mean == 0.0

    def test_snapshot(self):
        metrics = MetricsRegistry()
        metrics.counter("a").inc()
        assert metrics.snapshot()["counters"] == {"a": 1}


class TestConcurrencySampler:
    """Concurrency is sampled by a gauge moved with ``add(delta, now)``."""

    def test_peak_tracking(self):
        gauge = MetricsRegistry().gauge("in_flight")
        gauge.add(+1, 0.0)
        gauge.add(+1, 1.0)
        gauge.add(-1, 2.0)
        assert gauge.peak == 2
        assert gauge.value == 1

    def test_time_weighted_mean(self):
        gauge = MetricsRegistry().gauge("in_flight")
        gauge.add(+2, 0.0)   # level 2 for [0, 10)
        gauge.add(-1, 10.0)  # level 1 for [10, 20)
        assert gauge.mean_until(20.0) == (2 * 10 + 1 * 10) / 20

    def test_mean_at_zero_time(self):
        assert MetricsRegistry().gauge("g").mean_until(0.0) == 0.0
