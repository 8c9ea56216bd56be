"""Lease-based fiber-lock recovery under crashed nodes.

The hard half of the single-runner guarantee (paper Section 4.2): the
locks that stop two JVMs from running one fiber also mean a *dead* JVM
can strand that fiber forever — NFS lock files outlive their writers
and "the NFS server is completely opaque".  These tests kill nodes
while they hold fiber locks, under the file backend (no failure
detector — only leases can recover), and assert both invariants
jointly: every task still completes with the right answer (nothing
stuck), and the committed-window audit shows no fiber ever double-ran.
"""

import random

import pytest

from repro.bluebox.locks import FileLockManager
from repro.bluebox.services import simple_service
from repro.faults.campaign import run_campaign
from repro.faults.plan import CRASH, FaultPlan, NodeFault
from repro.lang.symbols import Keyword
from repro.vinz.api import VinzEnvironment
from repro.vinz.task import COMPLETED

WORKFLOW = """
(defun main (params)
  (let* ((items (getf params :items))
         (doubled (for-each (x in items)
                    (compute 0.4)
                    (* x 2))))
    (list :id (getf params :id) :total (apply #'+ doubled))))
"""


def start_tasks(env, tasks, rng):
    inputs = {}
    for i in range(tasks):
        items = [rng.randint(1, 9) for _ in range(rng.randint(2, 4))]
        inputs[i] = items
        env.cluster.send("Recovery", "Start",
                         {"params": [Keyword("id"), i,
                                     Keyword("items"), items]})
    return inputs


def assert_all_correct(env, inputs):
    assert len(env.registry.tasks) == len(inputs)
    for task in env.registry.tasks.values():
        assert task.status == COMPLETED, (task.id, task.status, task.error)
        plist = {task.result[i].name: task.result[i + 1]
                 for i in range(0, len(task.result), 2)}
        assert plist["total"] == sum(x * 2 for x in inputs[plist["id"]])


def assert_single_runner(env):
    """No message committed twice; no fiber's windows overlap."""
    seen = set()
    by_fiber = {}
    for fiber_id, msg_id, start, end in env.runner_audit:
        assert (fiber_id, msg_id) not in seen, \
            f"message {msg_id} committed twice for fiber {fiber_id}"
        seen.add((fiber_id, msg_id))
        by_fiber.setdefault(fiber_id, []).append((start, end))
    for fiber_id, windows in by_fiber.items():
        windows.sort()
        for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
            assert s2 >= e1, f"fiber {fiber_id} windows overlap"


class TestLeaseRecovery:
    def test_crashed_holder_recovers_via_lease(self):
        """Kill a node mid-window under file locks: the abandoned lock
        must be reclaimed by the scanner and the fiber re-run."""
        env = VinzEnvironment(nodes=3, seed=7, locks="file",
                              lease_ttl=1.0)
        env.deploy_workflow("Recovery", WORKFLOW, spawn_limit=2)
        rng = random.Random(7)
        inputs = start_tasks(env, tasks=3, rng=rng)
        # crash a node while windows are in flight; never restore it —
        # the survivors must finish everything
        env.cluster.kernel.schedule(0.3, lambda: env.fail_node("node-1"))
        env.cluster.run_until_idle()
        assert_all_correct(env, inputs)
        assert_single_runner(env)
        recovery = env.summary()["recovery"]
        # the dead node held at least one fiber lock: the scanner must
        # have expired it and recovery latency is bounded by TTL + scan
        if recovery["leases"]["abandoned"]:
            assert recovery["locks_expired"] >= 1
            bound = env.locks.lease_ttl + env.recovery.interval + 1e-6
            assert recovery["max_recovery_latency"] <= bound

    def test_recovery_and_rebuilds_are_counted_once(self):
        """A crash under file locks with replay recovery: the registry's
        recovery and rebuild counters agree with the scanner's summary
        and with the trace, one increment per event."""
        env = VinzEnvironment(nodes=3, seed=7, locks="file",
                              lease_ttl=1.0, history="on",
                              recovery="replay")
        env.deploy_workflow("Recovery", WORKFLOW, spawn_limit=2)
        inputs = start_tasks(env, tasks=3, rng=random.Random(7))
        # node-1 dies holding a fiber lock, which only its lease frees
        env.cluster.kernel.schedule(0.3, lambda: env.fail_node("node-1"))
        env.cluster.run_until_idle()
        assert_all_correct(env, inputs)
        summary = env.recovery.summary()
        assert summary["locks_expired"] >= 1
        assert env.metrics.get("recovery.locks_expired") == \
            summary["locks_expired"]
        assert env.metrics.get("recovery.reawakened") == \
            summary["fibers_reawakened"]
        assert env.metrics.histogram("recovery.latency").count == \
            summary["locks_expired"]
        assert len(env.tracer.of_kind("recovery")) == summary["locks_expired"]
        assert len(env.tracer.of_kind("fiber-reawakened")) == \
            summary["fibers_reawakened"]
        rebuilds = env.metrics.get("history.rebuilds")
        assert rebuilds >= 1
        assert rebuilds == sum(
            1 for span in env.tracer.of_kind("history")
            if span.attrs.get("mode") == "rebuild")

    def test_crash_restart_storm_file_locks(self):
        """Repeated kill/restore cycles under file locks + leases:
        nothing sticks, nothing double-runs, answers stay right."""
        env = VinzEnvironment(nodes=4, seed=11, locks="file",
                              lease_ttl=1.0)
        env.deploy_workflow("Recovery", WORKFLOW, spawn_limit=2)
        rng = random.Random(11)
        inputs = start_tasks(env, tasks=4, rng=rng)
        node_ids = list(env.cluster.nodes)
        for _ in range(6):
            victim = rng.choice(node_ids)
            when = rng.uniform(0.1, 4.0)
            env.cluster.kernel.schedule(
                when, lambda v=victim: env.fail_node(v)
                if env.cluster.nodes[v].alive else None)
            env.cluster.kernel.schedule(
                when + rng.uniform(0.5, 2.0),
                lambda v=victim: env.restore_node(v))
        env.cluster.run_until_idle()
        assert_all_correct(env, inputs)
        assert_single_runner(env)

    def test_coordinator_recovers_without_waiting_for_lease(self):
        """Parity check: the coordinator's failure detector expires the
        dead node's sessions instantly — no lease lapse needed."""
        env = VinzEnvironment(nodes=3, seed=5, locks="coordinator",
                              lease_ttl=5.0)
        env.deploy_workflow("Recovery", WORKFLOW, spawn_limit=2)
        rng = random.Random(5)
        inputs = start_tasks(env, tasks=3, rng=rng)
        env.cluster.kernel.schedule(0.3, lambda: env.fail_node("node-1"))
        env.cluster.run_until_idle()
        assert_all_correct(env, inputs)
        assert_single_runner(env)

    def test_heartbeats_keep_long_windows_alive(self):
        """A window longer than the TTL must not lose its lock: the
        cluster heartbeats the lease while the node lives."""
        env = VinzEnvironment(nodes=2, seed=3, locks="file",
                              lease_ttl=0.5)
        env.deploy_workflow("Recovery", WORKFLOW, spawn_limit=2)
        # (compute 0.4) windows approach the 0.5 TTL; with several
        # fibers interleaving, only heartbeats keep leases live
        rng = random.Random(3)
        inputs = start_tasks(env, tasks=2, rng=rng)
        env.cluster.run_until_idle()
        assert_all_correct(env, inputs)
        assert_single_runner(env)
        assert env.locks.leases_stolen == 0  # no healthy holder robbed


class TestCrashOnLockCampaign:
    def test_crash_on_lock_campaign_file_locks(self):
        """The worst case: the node dies the instant it takes a fiber
        lock.  Nothing persisted, the NFS entry survives — only the
        lease can free it."""
        plan = FaultPlan([
            NodeFault(action=CRASH, on_lock=2, restart_after=2.0),
            NodeFault(action=CRASH, on_lock=7, restart_after=2.0),
        ], name="crash-on-lock")
        report = run_campaign(plan, seed=21, tasks=3, nodes=4,
                              locks="file", lease_ttl=1.0)
        assert isinstance(report.env.locks, FileLockManager)
        assert report.all_completed, report.statuses
        assert report.wrong_results() == []
        assert report.stuck_fibers() == []
        assert report.single_runner_violations() == []
        assert report.injected.get("crash-on-lock", 0) >= 1

    def test_crash_campaign_replays_bit_identically(self):
        plan = FaultPlan([NodeFault(action=CRASH, on_lock=3,
                                    restart_after=1.5)],
                         name="replay")
        first = run_campaign(plan, seed=33, tasks=2, nodes=3,
                             locks="file", lease_ttl=1.0)
        second = run_campaign(plan, seed=33, tasks=2, nodes=3,
                              locks="file", lease_ttl=1.0)
        kinds = ("recovery", "fiber-reawakened", "fault")
        assert first.signature(*kinds) == second.signature(*kinds)
        assert first.signature("recovery")  # the lease really lapsed

    def test_crash_during_persist_file_locks(self):
        """Crash mid-persist under file locks: rollback + lease
        recovery + retry must still converge on the right answers."""
        plan = FaultPlan([NodeFault(action=CRASH, on_persist=3,
                                    restart_after=2.0)],
                         name="crash-on-persist-file")
        report = run_campaign(plan, seed=13, tasks=3, nodes=4,
                              locks="file", lease_ttl=1.0)
        assert report.all_completed, report.statuses
        assert report.wrong_results() == []
        assert report.stuck_fibers() == []
        assert report.single_runner_violations() == []
