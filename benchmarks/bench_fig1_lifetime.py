"""Experiment F1 — Figure 1: Sample Workflow Lifetime.

Regenerates the paper's Figure 1 as the causal span tree of one task
(repro.observe): Start -> RunFiber -> non-blocking service call
(suspend + persist) -> ResumeFromCall -> for-each fan-out ->
AwakeFiber x N -> completion.  The benchmark measures the end-to-end
advance of one such lifetime, renders its tree with a table of the
phases observed in it, and exports a Perfetto-loadable Chrome
``trace_event`` JSON of it.
"""

import json
import os
import re

from repro.bluebox.services import simple_service
from repro.faults.injector import FaultInjector
from repro.faults.plan import DROP, FaultPlan, MessageFault
from repro.harness.reporting import observability_tables, table, \
    write_json_report
from repro.observe.export import span_tree_from_events, write_chrome_trace
from repro.vinz.api import VinzEnvironment

SAMPLE_WORKFLOW = """
(deflink MKT :wsdl "urn:market-service")

(defun main (params)
  ;; one non-blocking service call: the fiber migrates away while the
  ;; service computes (Section 3.2)
  (let ((price (MKT-Quote-Method :Symbol params)))
    ;; then a distributed map over two positions (Section 3.5)
    (apply #'+ (for-each (qty in (list 10 20))
                 (* qty price)))))
"""


def build_env(trace=True):
    env = VinzEnvironment(nodes=3, seed=202, trace=trace)

    def quote(ctx, body):
        ctx.charge(0.5)
        return 4.25

    env.deploy_service(simple_service("Market", {"Quote": quote},
                                      namespace="urn:market-service",
                                      parameters={"Quote": ["Symbol"]}))
    env.deploy_workflow("Sample", SAMPLE_WORKFLOW)
    return env


def run_lifetime(env):
    task_id = env.run("Sample", "IBM")
    assert env.registry.tasks[task_id].result == (10 + 20) * 4.25
    return task_id


#: a fiber line of a rendered span tree: its id and attributes
FIBER_LINE = re.compile(r"^\s*fiber fiber:(\S+) \[.*?\](.*)$")


def assert_forks_are_live_or_discarded(env, text):
    """Every fiber a rendered lifetime shows is a live registry record,
    unless the line marks it rolled back (``status=discarded``)."""
    for line in text.splitlines():
        match = FIBER_LINE.match(line)
        if match is not None:
            fiber_id, attrs = match.groups()
            discarded = "status=discarded" in attrs.split()
            assert discarded != (fiber_id in env.registry.fibers), line


def lifetime_phases(env, task_id):
    """The Figure-1 phases, each judged on the task's span tree.  A
    span rolled back with its aborted window (``status=discarded``)
    counts toward no phase."""
    tree = [span for span in env.tracer.task_tree(task_id)
            if span.attrs.get("status") != "discarded"]
    by_id = {span.id: span for span in tree}
    root = tree[0]
    runs = [span for span in tree if span.kind == "fiber-run"]
    fibers = [span for span in tree if span.kind == "fiber"]

    def op_of(run):
        return by_id[run.parent_id].name

    return [
        ("Start creates task+fiber, persists initial state",
         root.kind == "task"
         and any("parent_fiber" not in f.attrs for f in fibers)),
        ("RunFiber begins the fiber on some instance",
         any(op_of(r).endswith(".RunFiber") for r in runs)),
        ("service request -> yield -> persist (non-blocking)",
         any(r.attrs.get("suspend") == "service-call"
             and {"queue-hop", "persistence"} <= {
                 c.kind for c in tree if c.parent_id == r.id}
             for r in runs)),
        ("ResumeFromCall restores the fiber elsewhere",
         any(r.attrs["resume"] and op_of(r).endswith(".ResumeFromCall")
             for r in runs)),
        ("for-each forks child fibers",
         any("parent_fiber" in f.attrs for f in fibers)),
        ("children complete, AwakeFiber wakes the parent",
         sum(f.attrs.get("status") == "completed" for f in fibers) >= 3
         and any(op_of(r).endswith(".AwakeFiber") for r in runs)),
        ("task completes", root.attrs.get("status") == "completed"),
    ]


def test_figure1_lifetime(benchmark, bench_report):
    benchmark(lambda: run_lifetime(build_env(trace=False)))

    env = build_env()
    task_id = run_lifetime(env)
    tree = env.tracer.render_tree(env.tracer.task_root(task_id))
    assert_forks_are_live_or_discarded(env, tree)
    phases = lifetime_phases(env, task_id)

    lines = ["== Figure 1 — Sample Workflow Lifetime (reproduced) ==",
             f"(one task: {task_id}; times are virtual seconds)", "",
             tree, "",
             table("Lifetime phases", ["phase", "observed"], phases)]
    bench_report("fig1_lifetime", "\n".join(lines))

    for _phase, observed in phases:
        assert observed, _phase


def test_figure1_span_tree_export(bench_report):
    """One task's full distributed lifetime as a causal span tree:
    queue hops, operation windows, fiber runs and persistence nest with
    correct parent links, and the tree survives a round trip through
    the exported Chrome ``trace_event`` JSON."""
    env = build_env()
    task_id = run_lifetime(env)
    tracer = env.tracer

    tree = tracer.task_tree(task_id)
    assert tree, "task span tree is empty"
    kinds = {span.kind for span in tree}
    for kind in ("task", "fiber", "queue-hop", "operation",
                 "fiber-run", "persistence"):
        assert kind in kinds, f"span tree lacks {kind} spans"
    assert tracer.verify_parents() == [], "dangling parent ids"

    # structural nesting: fiber-run -> operation -> queue-hop
    by_id = {span.id: span for span in tree}
    runs = [span for span in tree if span.kind == "fiber-run"]
    assert runs
    for run in runs:
        op = by_id[run.parent_id]
        assert op.kind == "operation"
        assert by_id[op.parent_id].kind == "queue-hop"
    # persistence nests under the work that did it: continuation
    # encode/decode under a fiber-run; the task-env read happens in the
    # operation window before the fiber advances
    persists = [span for span in tree if span.kind == "persistence"]
    assert persists
    for span in persists:
        assert by_id[span.parent_id].kind in ("fiber-run", "operation")
    assert any(by_id[span.parent_id].kind == "fiber-run"
               for span in persists)

    out_dir = os.path.join(os.path.dirname(__file__), "out")
    os.makedirs(out_dir, exist_ok=True)
    path = write_chrome_trace(tracer,
                              os.path.join(out_dir, "fig1_trace.json"))
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["traceEvents"]
    exported = span_tree_from_events(doc["traceEvents"])
    for span in tree:
        assert exported.get(span.id) == span.parent_id

    report_path = write_json_report(
        env, os.path.join(out_dir, "fig1_observability.json"))
    with open(report_path) as fh:
        assert json.load(fh)["spans"]["created"] > 0

    root = tracer.task_root(task_id)
    bench_report(
        "fig1_span_tree",
        "== Figure 1 — causal span tree (one task) ==\n"
        f"(task {task_id}; times are virtual seconds)\n\n"
        + tracer.render_tree(root)
        + f"\n\nexported: {path} ({len(doc['traceEvents'])} events)\n"
        + f"report:   {report_path}\n\n"
        + observability_tables(env))


def test_figure1_trace_links_fault_redelivery():
    """A fault-driven redelivery opens a new queue-hop span parented to
    the message's *original* hop, so the retried lifetime stays one
    tree — the acceptance criterion for retries in the span model."""
    env = build_env()
    plan = FaultPlan([MessageFault(action=DROP, service="Sample",
                                   operation="RunFiber", nth=1)])
    FaultInjector(7, plan).install(env)
    task_id = run_lifetime(env)
    tracer = env.tracer

    retries = [span for span in tracer.of_kind("queue-hop")
               if "retry_of" in span.attrs]
    assert retries, "the dropped RunFiber produced no retry hop span"
    for hop in retries:
        origin = tracer.get(hop.attrs["retry_of"])
        assert origin is not None and origin.kind == "queue-hop"
        assert hop.parent_id == origin.id
        assert hop.attrs["attempt"] >= 1
    # the redelivered message's spans still belong to the task's tree
    tree_ids = {span.id for span in tracer.task_tree(task_id)}
    assert any(hop.id in tree_ids for hop in retries)
    # the injected drop is a point event under the original hop span
    origins = {hop.attrs["retry_of"] for hop in retries}
    assert any(mark.point and mark.name == "fault.drop"
               for origin in origins
               for mark in tracer.children_of(origin))
    assert tracer.verify_parents() == []


def test_figure1_nodes_differ():
    """The lifetime genuinely spans machines: the fiber's successive
    run spans land on more than one node (migration, Section 3.1)."""
    env = build_env()
    task_id = run_lifetime(env)
    runs = [span.attrs["node"] for span in env.tracer.task_tree(task_id)
            if span.kind == "fiber-run"]
    assert len(set(runs)) >= 2
