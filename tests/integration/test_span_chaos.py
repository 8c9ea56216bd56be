"""Span-tree integrity under the chaos matrix.

The span model's hardest claim: even when node kills force in-flight
messages to be redelivered, every redelivery's queue-hop span links
back to the hop it retries, so a task's whole chaotic lifetime still
reconstructs as one causal tree.  This reuses the chaos campaign from
``test_chaos`` with tracing switched on."""

import random

import pytest

from repro.lang.symbols import Keyword as K
from repro.vinz.api import VinzEnvironment
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
