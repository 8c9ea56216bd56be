"""Regression tests for monitoring correctness fixes.

Each test pins a bug that previously passed silently: counters raced
under real threads, and the concurrency mean was diluted with absolute
(not elapsed) time.
"""

import threading

import pytest

from repro.observe import MetricsRegistry


class TestCountersThreadSafety:
    def test_incr_and_add_are_exact_under_threads(self):
        metrics = MetricsRegistry()
        counter = metrics.counter("n")
        total = metrics.histogram("s")

        def work():
            for _ in range(2000):
                counter.inc()
                total.observe(0.5)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.get("n") == 16000
        assert total.total == 8000.0
        assert total.mean == 0.5


class TestConcurrencySamplerOffsetClock:
    """The in-flight gauges' time-weighted mean (formerly the
    concurrency sampler's)."""

    def test_mean_uses_elapsed_not_absolute_time(self):
        # a clock that starts at t=100 (VirtualClock(start=...), real
        # clock) must not dilute the average with the 0..100 dead zone
        gauge = MetricsRegistry().gauge("in_flight")
        gauge.add(+2, 100.0)
        gauge.add(-2, 101.0)
        assert gauge.mean_until(102.0) == pytest.approx(1.0)
        assert gauge.peak == 2

    def test_mean_at_first_sample_instant_is_zero(self):
        gauge = MetricsRegistry().gauge("in_flight")
        gauge.add(+3, 50.0)
        assert gauge.mean_until(50.0) == 0.0

    def test_no_samples_means_zero(self):
        assert MetricsRegistry().gauge("g").mean_until(10.0) == 0.0
