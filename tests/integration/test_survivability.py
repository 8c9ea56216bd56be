"""Survivability integration tests (paper Sections 1 and 3.2).

"Survivability of system faults/shutdowns without losing state ...
the failure of any instance will result in only minimal delays as other
instances automatically compensate."
"""

import pytest

from repro.bluebox.services import simple_service
from repro.vinz.api import VinzEnvironment
from repro.vinz.task import COMPLETED

MULTI_STAGE = """
(defun main (params)
  (let ((a (for-each (x in params) (compute 0.5) (* x 2))))
    (workflow-sleep 1)
    (let ((b (for-each (x in a) (compute 0.5) (+ x 1))))
      (apply #'+ b))))
"""


class TestNodeFailureDuringWorkflow:
    def test_task_completes_despite_node_loss(self):
        env = VinzEnvironment(nodes=4, seed=33)
        env.deploy_workflow("W", MULTI_STAGE)
        task_id = env.start("W", [1, 2, 3, 4])
        # let the workflow get going, then kill a node that has run fibers
        env.cluster.run_until(lambda: env.tracer.of_kind("fiber-run"))
        ran_on = [s.attrs["node"] for s in env.tracer.of_kind("fiber-run")]
        env.fail_node(ran_on[0])
        task = env.wait_for_task(task_id)
        assert task.status == COMPLETED
        assert task.result == sum(x * 2 + 1 for x in [1, 2, 3, 4])

    def test_multiple_failures_tolerated(self):
        env = VinzEnvironment(nodes=5, seed=34)
        env.deploy_workflow("W", MULTI_STAGE)
        task_id = env.start("W", [1, 2, 3])
        env.cluster.run_until(
            lambda: any("suspend" in s.attrs
                        for s in env.tracer.of_kind("fiber-run")))
        nodes = list(env.cluster.nodes)
        env.fail_node(nodes[0])
        env.fail_node(nodes[1])
        task = env.wait_for_task(task_id)
        assert task.status == COMPLETED

    def test_state_not_lost_lock_released_on_failure(self):
        """Coordinator (ZooKeeper-like) locks: a dead node's fiber lock
        is released so another node can run the fiber."""
        env = VinzEnvironment(nodes=2, seed=35, locks="coordinator")
        env.deploy_workflow("W", """
            (defun main (params)
              (compute 10)  ; long window: node will die mid-run
              (workflow-sleep 1)
              :survived)""")
        task_id = env.start("W", None)
        env.cluster.run_until(lambda: env.tracer.of_kind("fiber-run"))
        victim = env.tracer.of_kind("fiber-run")[0].attrs["node"]
        env.fail_node(victim)
        task = env.wait_for_task(task_id)
        assert task.status == COMPLETED

    def test_checkpoints_written_at_every_suspend(self):
        """'automatically creating and maintaining persistent
        checkpoints' — one store write per suspension."""
        env = VinzEnvironment(nodes=2, seed=36)
        env.deploy_workflow("W", """
            (defun main (params)
              (workflow-sleep 1)
              (workflow-sleep 1)
              (workflow-sleep 1)
              :done)""")
        env.run("W", None)
        assert env.metrics.get("persist.writes") == 3

    def test_fiber_version_increments_per_checkpoint(self):
        env = VinzEnvironment(nodes=2, seed=37)
        env.deploy_workflow("W", """
            (defun main (params)
              (workflow-sleep 1) (workflow-sleep 1) :x)""")
        task_id = env.run("W", None)
        fiber = env.registry.fibers_of(task_id)[0]
        assert fiber.version == 2


class TestQueueRobustness:
    def test_work_buffered_while_cluster_down(self):
        """The queue buffers messages while no instance is available."""
        env = VinzEnvironment(nodes=1, seed=38)
        env.deploy_workflow("W", "(defun main (p) (1+ p))")
        env.fail_node("node-1")
        task_holder = []

        def grab(body):
            task_holder.append(body)

        from repro.bluebox.messagequeue import ReplyTo

        env.cluster.send("W", "Start", {"params": 1},
                         reply_to=ReplyTo(callback=grab))
        env.cluster.run_until_idle()
        assert not task_holder  # nothing processed yet
        env.restore_node("node-1")
        env.cluster.run_until_idle()
        assert task_holder  # Start processed after restore
        task_id = task_holder[0]["result"]["task"]
        assert env.registry.tasks[task_id].status == COMPLETED


class TestInterleavedTasks:
    def test_many_tasks_share_the_cluster(self):
        env = VinzEnvironment(nodes=4, seed=39)
        env.deploy_workflow("W", """
            (defun main (params)
              (apply #'+ (for-each (x in params) (compute 0.1) (* x x))))""")
        task_ids = [env.start("W", [i, i + 1, i + 2]) for i in range(10)]
        for task_id in task_ids:
            env.wait_for_task(task_id)
        for i, task_id in enumerate(task_ids):
            expected = i * i + (i + 1) ** 2 + (i + 2) ** 2
            assert env.registry.tasks[task_id].result == expected

    def test_interactive_priority_not_starved(self):
        """Section 3.2: interactive requests are less likely to be held
        up by batch workflows, because the queue prioritizes them."""
        from repro.bluebox.messagequeue import PRIORITY_INTERACTIVE, ReplyTo

        env = VinzEnvironment(nodes=2, seed=40)
        env.deploy_workflow("Batch", """
            (defun main (params)
              (for-each (x in params) (compute 2.0) x))""", spawn_limit=16)
        env.deploy_service(simple_service(
            "Interactive", {"Ping": lambda ctx, body: "pong"}))
        env.start("Batch", list(range(12)))
        # let the batch saturate the cluster
        env.cluster.run_until(
            lambda: all(n.busy > 0 for n in env.cluster.nodes.values()))
        replies = []
        env.cluster.send("Interactive", "Ping", {},
                         priority=PRIORITY_INTERACTIVE,
                         reply_to=ReplyTo(callback=lambda b: replies.append(
                             env.cluster.kernel.now)))
        sent_at = env.cluster.kernel.now
        env.cluster.run_until(lambda: bool(replies))
        # the ping got through long before the batch drained
        assert replies[0] - sent_at < 5.0
