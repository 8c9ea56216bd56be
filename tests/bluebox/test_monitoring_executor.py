"""Monitoring tests: trace log, counters, concurrency sampler."""

from repro.bluebox.monitoring import ConcurrencySampler, Counters, TraceLog


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
    def test_incr_get(self):
        c = Counters()
        c.incr("x")
        c.incr("x", 2)
        assert c.get("x") == 3
        assert c.get("missing") == 0

    def test_sums_and_mean(self):
        c = Counters()
        c.add("dur", 2.0)
        c.add("dur", 4.0)
        c.incr("n")
        c.incr("n")
        assert c.get_sum("dur") == 6.0
        assert c.mean("dur", "n") == 3.0
        assert c.mean("dur", "never") == 0.0

    def test_snapshot(self):
        c = Counters()
        c.incr("a")
        snap = c.snapshot()
        assert snap["counts"] == {"a": 1}


class TestConcurrencySampler:
    def test_peak_tracking(self):
        s = ConcurrencySampler()
        s.change(0.0, +1)
        s.change(1.0, +1)
        s.change(2.0, -1)
        assert s.peak == 2
        assert s.level == 1

    def test_time_weighted_mean(self):
        s = ConcurrencySampler()
        s.change(0.0, +2)   # level 2 for [0, 10)
        s.change(10.0, -1)  # level 1 for [10, 20)
        assert s.mean_until(20.0) == (2 * 10 + 1 * 10) / 20

    def test_mean_at_zero_time(self):
        assert ConcurrencySampler().mean_until(0.0) == 0.0
