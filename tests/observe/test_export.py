"""Unit tests for the trace exporters (repro.observe.export)."""

import json

from repro.observe import SpanTracer
from repro.observe.export import (
    chrome_trace,
    chrome_trace_events,
    json_report,
    span_tree_from_events,
    write_chrome_trace,
)
from repro.vinz.api import VinzEnvironment


def sample_tracer():
    tracer = SpanTracer()
    task = tracer.begin("task:t1", kind="task", start=0.0, task="t1")
    hop = tracer.begin("hop:Run", kind="queue-hop", start=0.1,
                       parent_id=task, msg=1)
    op = tracer.begin("op:Run", kind="operation", start=0.2,
                      parent_id=hop, node="node-0", task="t1")
    tracer.event("fault", 0.15, hop, name="fault.delay", delay=0.5)
    tracer.end(op, end=0.4)
    tracer.end(hop, end=0.4)
    tracer.end(task, end=0.4)
    return tracer, task, hop, op


def test_complete_events_carry_span_links_and_microseconds():
    tracer, task, hop, op = sample_tracer()
    events = chrome_trace_events(tracer)
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == 3
    by_span = {e["args"]["span"]: e for e in complete}
    assert by_span[op]["args"]["parent"] == hop
    assert by_span[hop]["args"]["parent"] == task
    assert by_span[op]["cat"] == "operation"
    assert by_span[op]["ts"] == 0.2 * 1e6
    assert by_span[op]["dur"] == 200000.0


def test_nodes_become_processes_queue_hops_get_queue_track():
    tracer, _task, hop, op = sample_tracer()
    events = chrome_trace_events(tracer)
    names = {e["args"]["name"]: e["pid"] for e in events
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert "node-0" in names and "queue" in names
    by_span = {e["args"]["span"]: e for e in events if e["ph"] == "X"}
    assert by_span[op]["pid"] == names["node-0"]
    assert by_span[hop]["pid"] == names["queue"]


def test_annotations_become_instant_events():
    """Point events export as instant events on their parent's track."""
    tracer, _task, hop, _op = sample_tracer()
    events = chrome_trace_events(tracer)
    instants = [e for e in events if e["ph"] == "i"]
    assert len(instants) == 1
    assert instants[0]["name"] == "fault.delay"
    assert instants[0]["cat"] == "fault"
    assert instants[0]["ts"] == 0.15 * 1e6
    assert instants[0]["args"]["parent"] == hop
    assert instants[0]["args"]["delay"] == 0.5
    hop_event = next(e for e in events if e["args"].get("span") == hop)
    assert (instants[0]["pid"], instants[0]["tid"]) == \
        (hop_event["pid"], hop_event["tid"])


def test_round_trip_through_file(tmp_path):
    tracer, task, hop, op = sample_tracer()
    path = write_chrome_trace(tracer, str(tmp_path / "trace.json"))
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["displayTimeUnit"] == "ms"
    assert doc == chrome_trace(tracer)
    tree = span_tree_from_events(doc["traceEvents"])
    fault = next(s.id for s in tracer.spans() if s.point)
    assert tree == {task: 0, hop: task, op: hop, fault: hop}


def test_non_jsonable_attrs_are_stringified():
    tracer = SpanTracer()
    span = tracer.begin("x", kind="operation", start=0.0, payload={"a": 1})
    tracer.end(span, end=1.0)
    doc = json.dumps(chrome_trace(tracer))  # must not raise
    assert "payload" in doc


def test_json_report_covers_the_whole_environment():
    env = VinzEnvironment(nodes=2, seed=9, trace=True)
    env.deploy_workflow("Tiny", "(defun main (x) (* x 2))")
    task_id = env.run("Tiny", 21)
    assert env.registry.tasks[task_id].result == 42

    report = json_report(env)
    assert report["virtual_time"] > 0
    assert report["spans"]["created"] > 0
    assert report["spans"]["by_kind"].get("task") == 1
    assert "queue.wait" in report["metrics"]["histograms"]
    assert report["metrics"]["histograms"]["queue.wait"]["count"] > 0
    assert "mutable" in report["cache_hit_rates"]
    assert json.dumps(report)  # fully serializable

    # the same report is reachable through the public API surface
    assert env.observability_report()["spans"] == report["spans"]
