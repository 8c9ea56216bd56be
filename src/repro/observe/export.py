"""Trace exporters: Chrome ``trace_event`` JSON and a plain-JSON report.

The Chrome format is the JSON array/object understood by Perfetto
(https://ui.perfetto.dev) and the legacy ``chrome://tracing`` viewer:
each finished span becomes a complete event (``"ph": "X"``) with
microsecond ``ts``/``dur``, and each point event an instant event
(``"ph": "i"``) on its parent span's track; nodes map to processes (``pid`` plus a
``process_name`` metadata record) and fibers to threads, so one task's
migration across machines is visible as its spans jumping between
process tracks.  Parent links travel in ``args`` (``span``/``parent``),
which is what the span-tree assertions in the Figure-1 bench check
after a JSON round trip.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from .spans import SpanTracer

#: virtual seconds -> trace_event microseconds
_US = 1e6


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def chrome_trace_events(tracer: SpanTracer) -> List[Dict[str, Any]]:
    """Every span and point event as a ``trace_event`` record."""
    events: List[Dict[str, Any]] = []
    pids: Dict[str, int] = {}
    tids: Dict[str, int] = {}

    def pid_for(name: str) -> int:
        pid = pids.get(name)
        if pid is None:
            pid = pids[name] = len(pids) + 1
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0, "args": {"name": name}})
        return pid

    def tid_for(pid: int, name: str) -> int:
        key = f"{pid}/{name}"
        tid = tids.get(key)
        if tid is None:
            tid = tids[key] = len(tids) + 1
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": tid, "args": {"name": name}})
        return tid

    for span in tracer.spans():
        # a point event draws on the track of the span it happened in
        track = (tracer.get(span.parent_id) if span.point else None) or span
        where = {**track.attrs, **span.attrs}
        node = where.get("node")
        if node is None:
            node = "queue" if track.kind == "queue-hop" else "platform"
        pid = pid_for(str(node))
        lane = where.get("fiber") or where.get("task") or track.kind
        tid = tid_for(pid, str(lane))
        args = {"span": span.id, "parent": span.parent_id}
        for key, value in span.attrs.items():
            args[key] = _jsonable(value)
        event = {"name": span.name, "cat": span.kind, "ph": "X",
                 "ts": span.start * _US, "pid": pid, "tid": tid,
                 "args": args}
        if span.point:
            event.update(ph="i", s="t")
        else:
            end = span.end if span.end is not None else span.start
            event["dur"] = max(end - span.start, 0.0) * _US
        events.append(event)
    return events


def chrome_trace(tracer: SpanTracer) -> Dict[str, Any]:
    """The full Perfetto-loadable document."""
    return {"traceEvents": chrome_trace_events(tracer),
            "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: SpanTracer, path: str) -> str:
    """Serialize to ``path``; returns the path for convenience."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer), fh, indent=1)
    return path


def span_tree_from_events(events: List[Dict[str, Any]]) -> Dict[int, int]:
    """span id -> parent id, recovered from exported ``args`` — what a
    consumer (or a test) uses to rebuild the causal tree from the JSON
    alone, without the live tracer."""
    return {e["args"]["span"]: e["args"]["parent"]
            for e in events if "span" in e.get("args", {})}


def json_report(env) -> Dict[str, Any]:
    """The plain-JSON observability report for a VinzEnvironment:
    metrics snapshot (every counter, gauge and histogram, with
    percentiles), span summary and cache hit rates —
    everything the harness needs to publish."""
    cluster = env.cluster
    return {
        "virtual_time": cluster.kernel.now,
        "metrics": cluster.metrics.snapshot(),
        "spans": cluster.tracer.summary(),
        "cache_hit_rates": env.cache_hit_rates(),
        "store": env.store.stats_snapshot(),
        "history": (env.history.summary()
                    if getattr(env, "history", None) is not None else None),
    }
