"""The metrics registry: counters, gauges, fixed-bucket histograms.

This is the reproduction's one metrics store.  Each
:class:`~repro.bluebox.cluster.Cluster` owns one registry, always on;
the cluster and ``VinzEnvironment`` hand it to each component they
build (queue, codec, recovery scanner, history log, governor).  A
component built without one makes a private registry, so it never
needs a guard.  Among the names the platform records on every run:

* counters ``op.<service>.<operation>``, ``persist.writes``,
  ``persist.bytes``, ``cache.<kind>.hit``/``miss``,
  ``recovery.locks_expired``, ``recovery.reawakened``,
  ``history.rebuilds``, ``fault.injected``, ``sched.*``, ...;
* gauges ``tasks.in_flight`` and ``fibers.in_flight`` (with ``peak``
  and a time-weighted ``mean_until``), ``sched.spawn_limit``;
* histograms ``queue.wait``, ``op.duration``,
  ``fiber.resume_latency``, ``codec.encode_bytes``/``decode_bytes``,
  ``gvm.run_instructions``, ``recovery.latency``.

Histograms are fixed-bucket: ``observe`` is a bisect plus two adds, and
``p50/p95/p99`` come from linear interpolation inside the covering
bucket — no per-sample storage, so a million-message run costs a few
hundred bytes per histogram.

All mutation is lock-guarded, so counters stay exact when the cluster
runs in real-threaded mode.  Hot paths look an instrument up once, at
construction, and keep it.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence


def exponential_buckets(start: float, factor: float,
                        count: int) -> List[float]:
    """``count`` bucket upper bounds growing geometrically from
    ``start`` (e.g. ``exponential_buckets(0.001, 2, 12)``)."""
    out, value = [], start
    for _ in range(count):
        out.append(value)
        value *= factor
    return out


#: default latency buckets: 10 microseconds .. ~84 virtual seconds
DEFAULT_TIME_BUCKETS = exponential_buckets(1e-5, 2.0, 24)
#: default size buckets: 16 bytes .. 8 MiB
DEFAULT_SIZE_BUCKETS = exponential_buckets(16, 2.0, 20)


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self.value = 0
        self._lock = lock

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A level.  ``set`` overwrites it; ``add(delta, now)`` moves it and
    integrates it over time, so a gauge is also a concurrency profile:
    ``peak`` is the highest level ``add`` reached, and
    :meth:`mean_until` is the time-weighted mean level since the first
    ``add`` — not since absolute t=0, so a clock that does not start at
    zero (``VirtualClock(start=...)``, real-clock mode) does not dilute
    it.
    """

    __slots__ = ("name", "value", "peak", "_start", "_last", "_area",
                 "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self.value: float = 0
        self.peak: float = 0
        self._start: Optional[float] = None
        self._last = 0.0
        self._area = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def add(self, delta: float, now: float) -> None:
        with self._lock:
            if self._start is None:
                self._start = self._last = now
            self._area += self.value * (now - self._last)
            self._last = now
            self.value += delta
            if self.value > self.peak:
                self.peak = self.value

    def mean_until(self, now: float) -> float:
        if self._start is None:
            return 0.0
        area = self._area + self.value * (now - self._last)
        elapsed = now - self._start
        return area / elapsed if elapsed > 0 else 0.0


class Histogram:
    """A fixed-bucket histogram with percentile snapshots.

    ``buckets`` are sorted upper bounds; one extra overflow bucket
    catches everything above the last bound.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total",
                 "min", "max", "_lock")

    def __init__(self, name: str, buckets: Sequence[float],
                 lock: threading.Lock):
        self.name = name
        self.buckets: List[float] = sorted(buckets)
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = lock

    def observe(self, value: float) -> None:
        with self._lock:
            index = bisect_left(self.buckets, value)
            self.counts[index] += 1
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 < q <= 1) by linear
        interpolation inside the covering bucket."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                if index >= len(self.buckets):
                    # overflow bucket: the best point estimate is the max
                    return self.max if self.max is not None else 0.0
                lower = self.buckets[index - 1] if index > 0 else 0.0
                upper = self.buckets[index]
                fraction = (target - previous) / bucket_count
                estimate = lower + (upper - lower) * fraction
                # never report beyond the observed extremes
                if self.max is not None:
                    estimate = min(estimate, self.max)
                if self.min is not None:
                    estimate = max(estimate, self.min)
                return estimate
        return self.max if self.max is not None else 0.0  # pragma: no cover

    def get(self, name: str) -> int:
        """The value of counter ``name``; 0 if it was never created."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(
                    name, Counter(name, self._lock))
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(name, Gauge(name, self._lock))
        return gauge

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        """Get/create a histogram; ``buckets`` applies on first creation
        (later callers inherit them)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            bounds = buckets if buckets is not None else DEFAULT_TIME_BUCKETS
            with self._lock:
                histogram = self._histograms.setdefault(
                    name, Histogram(name, bounds, self._lock))
        return histogram

    def get(self, name: str) -> int:
        """The value of counter ``name``; 0 if it was never created."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def snapshot(self) -> Dict[str, Any]:
        """A plain-data dump of every instrument (the JSON report)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.snapshot()
                           for n, h in sorted(self._histograms.items())},
        }
