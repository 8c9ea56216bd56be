"""Monitoring tests: the event record, registry counters, concurrency
gauges."""

from repro.observe import MetricsRegistry, SpanTracer


class TestTraceLog:
    """The event record is the span tracer; instants are point events."""

    def test_disabled_records_nothing(self):
        tracer = SpanTracer(enabled=False)
        assert tracer.event("x", 1.0) == 0
        assert tracer.begin("y", kind="operation", start=1.0) == 0
        assert tracer.spans() == []

    def test_render_format(self):
        tracer = SpanTracer()
        root = tracer.begin("deliver", kind="queue-hop", start=1.0,
                            node="n1")
        tracer.event("fault", 1.5, root, name="fault.drop", node="n1")
        tracer.end(root, end=2.0)
        text = tracer.render_tree(tracer.get(root))
        assert "deliver" in text and "node=n1" in text
        assert "@ 1.500 fault.drop node=n1" in text


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
