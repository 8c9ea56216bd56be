"""Unit tests for the causal span tracer (repro.observe.spans)."""

from repro.observe import SpanTracer


def test_begin_end_and_duration():
    tracer = SpanTracer()
    span_id = tracer.begin("work", kind="operation", start=1.0, node="n1")
    assert span_id == 1
    span = tracer.get(span_id)
    assert span.kind == "operation"
    assert not span.finished
    assert span.duration is None
    tracer.end(span_id, end=3.5, ok=True)
    assert span.finished
    assert span.duration == 2.5
    assert span.attrs == {"node": "n1", "ok": True}


def test_parent_links_and_queries():
    tracer = SpanTracer()
    root = tracer.begin("task:t1", kind="task", start=0.0, task="t1")
    fiber = tracer.begin("fiber:f1", kind="fiber", start=0.0,
                         parent_id=root, task="t1", fiber="f1")
    hop = tracer.begin("hop", kind="queue-hop", start=0.1, parent_id=fiber)
    assert [s.id for s in tracer.children_of(root)] == [fiber]
    assert [s.id for s in tracer.ancestors(hop)] == [fiber, root]
    assert tracer.task_root("t1").id == root
    assert [s.id for s in tracer.task_tree("t1")] == [root, fiber, hop]
    assert tracer.verify_parents() == []


def test_verify_parents_flags_dangling_ids():
    tracer = SpanTracer()
    orphan = tracer.begin("x", kind="operation", start=0.0, parent_id=999)
    assert [s.id for s in tracer.verify_parents()] == [orphan]


def test_annotations_attach_in_order():
    """Point events are zero-length child spans, kept in order."""
    tracer = SpanTracer()
    span_id = tracer.begin("hop", kind="queue-hop", start=0.0)
    tracer.event("fault", 0.5, span_id, name="fault.drop", msg=7)
    tracer.event("dead-letter", 0.9, span_id)
    marks = tracer.children_of(span_id)
    assert [(m.start, m.end, m.kind, m.name) for m in marks] == \
        [(0.5, 0.5, "fault", "fault.drop"),
         (0.9, 0.9, "dead-letter", "dead-letter")]
    assert all(m.point and m.finished for m in marks)
    assert marks[0].attrs == {"msg": 7}
    assert not tracer.get(span_id).point
    # with no enclosing span a point event is a root
    root = tracer.event("fault", 1.0, name="fault.crash")
    assert tracer.get(root).parent_id == 0


def test_disabled_tracer_allocates_nothing():
    tracer = SpanTracer(enabled=False)
    span_id = tracer.begin("work", kind="operation", start=0.0)
    assert span_id == 0
    # end on the 0 sentinel is a harmless no-op; events record nothing
    tracer.end(span_id, end=1.0)
    assert tracer.event("mark", 0.5, span_id) == 0
    assert tracer.spans_created == 0
    assert tracer.spans() == []


def test_end_unknown_span_is_noop():
    tracer = SpanTracer()
    tracer.end(42, end=1.0)
    assert tracer.spans() == []


def test_summary_and_open_spans():
    tracer = SpanTracer()
    a = tracer.begin("a", kind="task", start=0.0)
    tracer.begin("b", kind="queue-hop", start=0.0, parent_id=a)
    tracer.end(a, end=1.0)
    summary = tracer.summary()
    assert summary["created"] == 2
    assert summary["open"] == 1
    assert summary["by_kind"] == {"task": 1, "queue-hop": 1}
    assert [s.kind for s in tracer.open_spans()] == ["queue-hop"]


def test_render_tree_shows_nesting_and_annotations():
    tracer = SpanTracer()
    root = tracer.begin("task:t1", kind="task", start=0.0, task="t1")
    hop = tracer.begin("hop:Run", kind="queue-hop", start=0.1,
                       parent_id=root, msg=3)
    tracer.event("fault", 0.2, hop, name="fault.drop", msg=3)
    tracer.end(hop, end=0.3)
    tracer.end(root, end=1.0)
    text = tracer.render_tree(tracer.get(root))
    lines = text.splitlines()
    assert lines[0].startswith("task task:t1")
    assert lines[1].startswith("  queue-hop hop:Run")
    assert "msg=3" in lines[1]
    assert lines[2] == "    @ 0.200 fault.drop msg=3"


def signed_stream(tracer, retried_attempt=1):
    """A small span stream: a task, a hop, a fault and a retry hop."""
    task = tracer.begin("task:t1", kind="task", start=0.0, task="t1")
    hop = tracer.begin("hop:Run", kind="queue-hop", start=0.1,
                       parent_id=task, msg=1)
    tracer.event("fault", 0.2, hop, name="fault.drop", msg=1)
    tracer.end(hop, end=0.2)
    retry = tracer.begin("hop:Run", kind="queue-hop", start=0.3,
                         parent_id=hop, msg=1, attempt=retried_attempt,
                         retry_of=hop)
    tracer.end(retry, end=0.4)
    tracer.end(task, end=0.5, status="completed")


def test_equal_streams_give_equal_signatures():
    first, second = SpanTracer(), SpanTracer()
    signed_stream(first)
    signed_stream(second)
    assert first.signature() == second.signature()
    assert len(first.signature()) == 4
    hash(first.signature())  # usable as a dict key / set member


def test_changed_attribute_changes_signature():
    first, second = SpanTracer(), SpanTracer()
    signed_stream(first)
    signed_stream(second, retried_attempt=2)
    assert first.signature() != second.signature()
    # an attribute merged in at end() counts too
    third = SpanTracer()
    signed_stream(third)
    third.end(1, end=0.5, status="error")
    assert third.signature() != first.signature()


def test_signature_kinds_filter_selects_a_sub_stream():
    tracer = SpanTracer()
    signed_stream(tracer)
    hops = tracer.signature("queue-hop")
    assert [entry[2] for entry in hops] == ["queue-hop", "queue-hop"]
    assert len(tracer.signature("fault")) == 1
    assert len(tracer.signature("fault", "task")) == 2
    assert tracer.signature("no-such-kind") == ()
    # the sub-stream is the full stream's entries of those kinds
    assert set(hops) <= set(tracer.signature())
