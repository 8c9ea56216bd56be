"""Causal observability: span tracing, metrics, and trace exporters.

The paper leans on BlueBox's "monitoring and management features"
(Section 1), and its Figure 1 is literally a trace of one workflow's
lifetime across the queue, fibers, and persistence.  This package is
that layer for the reproduction:

* :mod:`repro.observe.spans` — a causal span tracer.  Spans form a
  tree (task -> fiber -> queue hop -> operation window -> fiber run ->
  persistence encode/decode); parent ids propagate through
  :class:`~repro.bluebox.messagequeue.Message` headers, fiber state and
  the Vinz service loop, so one task's full distributed lifetime
  reconstructs as a tree even across node migrations and fault-driven
  redeliveries.  It is the platform's only event record: instants
  (faults, dead letters, ...) are zero-length point-event spans in the
  same tree.
* :mod:`repro.observe.metrics` — a :class:`MetricsRegistry` of
  counters, gauges and fixed-bucket histograms with p50/p95/p99
  snapshots (queue wait, fiber resume latency, blob sizes, ...).  It is
  the one metrics store: one per cluster, always on, handed to each
  component when it is constructed.
* :mod:`repro.observe.export` — Chrome ``trace_event`` JSON (loadable
  in Perfetto / ``chrome://tracing``) and a plain-JSON report.

Tracing is zero-cost when disabled: every hot-path call site guards on
the tracer's single ``enabled`` flag before allocating anything.
Metrics have no such switch.
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .spans import Span, SpanTracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "Span", "SpanTracer",
]
