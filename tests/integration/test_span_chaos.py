"""Span-tree integrity under the chaos matrix.

The span model's hardest claim: even when node kills force in-flight
messages to be redelivered, every redelivery's queue-hop span links
back to the hop it retries, so a task's whole chaotic lifetime still
reconstructs as one causal tree.  This reuses the chaos campaign from
``test_chaos`` with tracing switched on."""

import random

import pytest

from repro.lang.symbols import Keyword as K
from repro.vinz.api import VinzEnvironment, WorkflowError
from repro.vinz.task import COMPLETED

from .test_chaos import WORKFLOW, data_service, expected_total


def run_traced_campaign(seed: int, kills: int, nodes: int = 4,
                        tasks: int = 4) -> VinzEnvironment:
    rng = random.Random(seed)
    env = VinzEnvironment(nodes=nodes, seed=seed, trace=True)
    env.deploy_service(data_service())
    env.deploy_workflow("Chaos", WORKFLOW, spawn_limit=3)

    inputs = {}
    for i in range(tasks):
        items = [rng.randint(1, 9) for _ in range(rng.randint(2, 5))]
        inputs[i] = items
        env.cluster.send("Chaos", "Start",
                         {"params": [K("id"), i, K("items"), items]})

    node_ids = list(env.cluster.nodes)
    for _ in range(kills):
        victim = rng.choice(node_ids)
        when = rng.uniform(0.05, 3.0)
        env.cluster.kernel.schedule(
            when, lambda v=victim: env.fail_node(v)
            if env.cluster.nodes[v].alive else None)
        env.cluster.kernel.schedule(
            when + rng.uniform(0.5, 2.0),
            lambda v=victim: env.restore_node(v))
    env.cluster.run_until_idle()

    for task in env.registry.tasks.values():
        assert task.status == COMPLETED, (task.id, task.status, task.error)
        plist = {task.result[i].name: task.result[i + 1]
                 for i in range(0, len(task.result), 2)}
        assert plist["total"] == expected_total(inputs[plist["id"]])
    return env


class TestSpanTreeUnderChaos:
    @pytest.mark.parametrize("seed", [101, 202, 505])
    def test_every_redelivery_links_to_its_original_hop(self, seed):
        env = run_traced_campaign(seed=seed, kills=6)
        tracer = env.tracer

        assert tracer.verify_parents() == [], \
            "chaos produced spans with dangling parent ids"
        assert tracer.open_spans() == [], "a span outlived the run"
        retries = [span for span in tracer.of_kind("queue-hop")
                   if "retry_of" in span.attrs]
        for hop in retries:
            origin = tracer.get(hop.attrs["retry_of"])
            assert origin is not None and origin.kind == "queue-hop", \
                f"retry hop {hop.id} points at a non-hop origin"
            assert hop.parent_id == origin.id
            assert hop.attrs["attempt"] >= 1

    def test_campaign_actually_exercised_redelivery(self):
        """Across seeds the traced campaign must see real redeliveries —
        otherwise the linking assertions above pass vacuously."""
        total_retry_spans = 0
        for seed in (101, 202, 303, 505, 777):
            env = run_traced_campaign(seed=seed, kills=6)
            total_retry_spans += sum(
                1 for span in env.tracer.of_kind("queue-hop")
                if "retry_of" in span.attrs)
        assert total_retry_spans > 0

    def test_every_task_still_has_one_rooted_tree(self):
        env = run_traced_campaign(seed=202, kills=6)
        tracer = env.tracer
        for task_id in env.registry.tasks:
            root = tracer.task_root(task_id)
            assert root is not None and root.kind == "task"
            # the task span itself hangs off the Start delivery's spans
            ancestor_kinds = {s.kind for s in tracer.ancestors(root.id)}
            assert ancestor_kinds <= {"operation", "queue-hop"}
            tree = tracer.task_tree(task_id)
            kinds = {span.kind for span in tree}
            assert {"task", "fiber", "queue-hop", "operation",
                    "fiber-run"} <= kinds


def assert_no_span_ends_before_its_last_run(tracer):
    """A fiber or task span ends at or after every fiber-run span of
    that fiber or task: its finish time includes the run's charges."""
    last_run = {}
    for run in tracer.of_kind("fiber-run"):
        for kind in ("fiber", "task"):
            key = (kind, run.attrs[kind])
            last_run[key] = max(last_run.get(key, run.end), run.end)
    checked = 0
    for span in tracer.of_kind("fiber", "task"):
        key = (span.kind, span.attrs[span.kind])
        if key in last_run:
            assert span.end >= last_run[key], \
                f"{span.name} ends at {span.end}, before its last run " \
                f"at {last_run[key]}"
            checked += 1
    assert checked


SWEEPING = """
(defun sleeper (n) (workflow-sleep 5) n)

(defun stopper (n) (compute 0.05) (terminate-task "stopped") n)

(defun main (params)
  (fork-and-exec #'sleeper :argument 1)
  (when (getf params :stop)
    (join-process (fork-and-exec #'stopper :argument 2)))
  (compute 0.1)
  :done)
"""


class TestFinishTimes:
    @pytest.mark.parametrize("seed,kills", [(101, 0), (202, 6), (505, 6)])
    def test_chaos_spans_end_after_their_last_run(self, seed, kills):
        env = run_traced_campaign(seed=seed, kills=kills)
        assert_no_span_ends_before_its_last_run(env.tracer)

    def test_sweeping_finishes_end_after_their_last_run(self):
        """A root that completes, or a child that terminates the task,
        while a sibling still sleeps: the sweep's reclaim IO is charged
        before the finish times are taken."""
        env = VinzEnvironment(nodes=2, seed=3, trace=True)
        env.deploy_workflow("Sweep", SWEEPING)
        assert env.call("Sweep", []) == K("done")
        with pytest.raises(WorkflowError, match="stopped"):
            env.call("Sweep", [K("stop"), True])
        env.cluster.run_until_idle()
        statuses = sorted(t.status for t in env.registry.tasks.values())
        assert statuses == ["completed", "error"]
        assert_no_span_ends_before_its_last_run(env.tracer)
