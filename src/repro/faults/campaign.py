"""Reproducible chaos campaigns: a named ``(seed, FaultPlan)`` pair.

A campaign builds a fresh :class:`~repro.vinz.api.VinzEnvironment`,
deploys a small arithmetic workflow (fork-heavy enough to exercise
persistence, service calls and for-each distribution), installs a
:class:`~repro.faults.injector.FaultInjector` compiled from the plan,
starts a batch of tasks with seed-derived inputs and runs the virtual
clock until the cluster is idle.

Because every source of nondeterminism (task inputs, injector choices,
cluster placement, retry jitter) draws from RNGs seeded by the campaign
seed and everything runs on the discrete-event clock, the same
``(seed, plan)`` replays bit-identically — :meth:`CampaignReport.signature`
lets tests assert that directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..bluebox.services import simple_service
from ..lang.symbols import Keyword
from ..vinz.api import VinzEnvironment
from ..vinz.task import COMPLETED
from .injector import FaultInjector
from .plan import FaultPlan
from .retry import RetryPolicy

#: the campaign workload: enrich each item through a data service inside
#: a for-each (forked fibers -> persists, locks, queue messages), then
#: aggregate.  Same arithmetic as the chaos tests: item -> item + 10*item.
CAMPAIGN_WORKFLOW = """
(deflink DS :wsdl "urn:campaign-data")

(defun main (params)
  ;; params: (:id n :items (...))
  (let* ((items (getf params :items))
         (enriched (for-each (x in items)
                     (compute 0.2)
                     (+ x (DS-Lookup-Method :Key x))))
         (total (apply #'+ enriched)))
    (list :id (getf params :id) :total total)))
"""

#: variant of the campaign workload that opts into the adaptive spawn
#: governor before fanning out: ``(auto-spawn-limit)`` flips the task's
#: spawn limit to the governor, and because the fan-out loop re-reads the
#: limit per iteration, injected latency/slowdown faults visibly shrink
#: the fan-out mid-flight (and it re-widens once the fault window ends).
ADAPTIVE_CAMPAIGN_WORKFLOW = """
(deflink DS :wsdl "urn:campaign-data")

(defun main (params)
  ;; params: (:id n :items (...))
  (auto-spawn-limit)
  (let* ((items (getf params :items))
         (enriched (for-each (x in items)
                     (compute 0.2)
                     (+ x (DS-Lookup-Method :Key x))))
         (total (apply #'+ enriched)))
    (list :id (getf params :id) :total total)))
"""

CAMPAIGN_NAMESPACE = "urn:campaign-data"


def data_service():
    """The backing service the campaign workflow calls per item."""

    def lookup(ctx, body):
        ctx.charge(0.15)
        return body.get("Key", 0) * 10

    return simple_service("CampaignData", {"Lookup": lookup},
                          namespace=CAMPAIGN_NAMESPACE,
                          parameters={"Lookup": ["Key"]})


def expected_total(items: List[int]) -> int:
    return sum(x + x * 10 for x in items)


@dataclass
class CampaignReport:
    """Everything a test needs to judge a finished campaign."""

    name: str
    seed: int
    env: VinzEnvironment
    injector: FaultInjector
    #: task-id -> the item list that task was started with
    inputs: Dict[str, List[int]] = field(default_factory=dict)

    # -- outcomes ----------------------------------------------------------

    @property
    def statuses(self) -> Dict[str, int]:
        return self.env.registry.counts()

    @property
    def completed(self) -> int:
        return self.statuses.get(COMPLETED, 0)

    @property
    def all_completed(self) -> bool:
        tasks = self.env.registry.tasks
        return bool(tasks) and all(t.status == COMPLETED
                                   for t in tasks.values())

    def wrong_results(self) -> List[Tuple[str, Any, Any]]:
        """(task-id, got, want) for every completed task whose total is
        arithmetically wrong.  Empty list == all answers correct."""
        wrong = []
        for task_id, items in self.inputs.items():
            task = self.env.registry.tasks.get(task_id)
            if task is None or task.status != COMPLETED:
                continue
            plist = {task.result[i].name: task.result[i + 1]
                     for i in range(0, len(task.result), 2)}
            want = expected_total(items)
            if plist.get("total") != want:
                wrong.append((task_id, plist.get("total"), want))
        return wrong

    # -- fault / queue accounting -----------------------------------------

    @property
    def injected(self) -> Dict[str, int]:
        return dict(self.injector.injected)

    @property
    def dead_lettered(self) -> int:
        return self.env.cluster.queue.dead_lettered

    @property
    def redelivered(self) -> int:
        return self.env.cluster.queue.redelivered

    @property
    def duplicated(self) -> int:
        return self.env.cluster.queue.duplicated

    def signature(self, *kinds: str):
        """Hashable span signature for replay-determinism assertions
        (:meth:`~repro.observe.spans.SpanTracer.signature`)."""
        return self.env.tracer.signature(*kinds)

    # -- recovery invariants (the lease-recovery campaign's verdict) -------

    def stuck_fibers(self) -> List[str]:
        """Fiber ids that are neither finished nor advanceable: their
        task is over or their lock is still held by a dead owner's
        abandoned entry.  Empty list == the no-stranded-fibers
        invariant holds."""
        stuck = []
        locks = self.env.locks
        cluster = self.env.cluster
        for fiber_id, fiber in self.env.registry.fibers.items():
            if fiber.finished:
                continue
            task = self.env.registry.tasks.get(fiber.task_id)
            if task is not None and task.finished:
                # an unfinished fiber of a finished task is stranded
                stuck.append(fiber_id)
                continue
            holder = locks.holder(f"fiber/{fiber_id}")
            if holder is None:
                continue
            node_id = locks.owner_node(holder)
            node = cluster.nodes.get(node_id) if node_id else None
            if node is not None and not node.alive:
                stuck.append(fiber_id)
        return stuck

    def replay_all(self) -> List[Any]:
        """Replay every finished task from its recorded history
        (requires the campaign to have run with ``history="on"``);
        returns the per-task :class:`~repro.history.ReplayReport` list.
        Raises :class:`~repro.history.ReplayDivergenceError` on the
        first task whose re-execution disagrees with its log."""
        if self.env.replayer is None:
            raise RuntimeError(
                'replay_all requires run_campaign(history="on")')
        reports = []
        for task_id, task in self.env.registry.tasks.items():
            if not task.finished:
                continue
            reports.append(self.env.replay_task(task_id))
        return reports

    def single_runner_violations(self) -> List[Tuple[str, ...]]:
        """Violations of the one-runner-per-fiber guarantee, from the
        committed-window audit trail: a message that committed twice,
        or two windows of one fiber overlapping in virtual time.
        Empty list == no fiber was ever double-run."""
        violations: List[Tuple[str, ...]] = []
        seen_messages: Dict[Tuple[str, str], float] = {}
        by_fiber: Dict[str, List[Tuple[float, float, str]]] = {}
        for fiber_id, msg_id, start, end in self.env.runner_audit:
            if (fiber_id, msg_id) in seen_messages:
                violations.append(("duplicate-commit", fiber_id, msg_id))
            seen_messages[(fiber_id, msg_id)] = start
            by_fiber.setdefault(fiber_id, []).append((start, end, msg_id))
        for fiber_id, windows in by_fiber.items():
            windows.sort()
            for (s1, e1, m1), (s2, e2, m2) in zip(windows, windows[1:]):
                if s2 < e1:
                    violations.append(("overlap", fiber_id, m1, m2))
        return violations


def run_campaign(plan: FaultPlan, seed: int, name: str = "campaign",
                 tasks: int = 4, nodes: int = 4,
                 retry_policy: Optional[RetryPolicy] = None,
                 trace: bool = True,
                 spawn_limit: int = 3, store=None,
                 adaptive_spawn: bool = False,
                 scheduler: Any = None, admission: Any = None,
                 governor: Any = None,
                 items_range: Tuple[int, int] = (2, 5),
                 locks: str = "coordinator",
                 lease_ttl: Optional[float] = None,
                 history: str = "off",
                 snapshot_interval: int = 1,
                 recovery: str = "snapshot") -> CampaignReport:
    """Execute the named ``(seed, plan)`` chaos campaign to quiescence.

    ``retry_policy`` defaults to :meth:`RetryPolicy.default` — bounded
    exponential backoff with seeded jitter — so injected faults are
    retried a finite number of times and exhaustion dead-letters.
    ``store`` swaps the shared-store implementation (e.g. a
    :class:`~repro.durastore.DurableStore` for crash-recovery
    campaigns).  ``adaptive_spawn`` deploys the governor-opted workflow
    variant; ``scheduler``/``admission``/``governor`` pass through to
    :class:`~repro.vinz.api.VinzEnvironment` to exercise the
    ``repro.sched`` subsystem under faults.  ``items_range`` bounds the
    per-task item count: fan-outs wider than the spawn limit keep the
    Listing-3 throttle loop re-reading the limit for the whole run,
    which is what lets a governor campaign observe mid-flight
    adaptation.  ``locks`` selects the lock backend
    (``"file"`` for lease-recovery campaigns: NFS locks have no
    failure detector, so only leases free a dead holder's lock) and
    ``lease_ttl`` overrides the platform's lease TTL.
    ``history="on"`` records every task's event-sourced history
    (enabling :meth:`CampaignReport.replay_all` and the
    :class:`~repro.faults.plan.HistoryFault` kinds);
    ``snapshot_interval`` persists continuations every N suspensions
    and ``recovery="replay"`` rebuilds crashed fibers from the history
    log instead of reading continuation snapshots (see
    docs/history_replay.md).
    """
    policy = retry_policy if retry_policy is not None \
        else RetryPolicy.default()
    lease_kwargs = {} if lease_ttl is None else {"lease_ttl": lease_ttl}
    env = VinzEnvironment(nodes=nodes, seed=seed, trace=trace,
                          retry_policy=policy, store=store,
                          scheduler=scheduler, admission=admission,
                          governor=governor, locks=locks,
                          history=history,
                          snapshot_interval=snapshot_interval,
                          recovery=recovery,
                          **lease_kwargs)
    env.deploy_service(data_service())
    source = ADAPTIVE_CAMPAIGN_WORKFLOW if adaptive_spawn \
        else CAMPAIGN_WORKFLOW
    env.deploy_workflow("Campaign", source,
                        spawn_limit=spawn_limit)
    injector = FaultInjector(seed, plan).install(env)

    rng = random.Random(seed ^ 0x5EED)
    started: List[Tuple[int, List[int]]] = []
    for i in range(tasks):
        items = [rng.randint(1, 9)
                 for _ in range(rng.randint(*items_range))]
        started.append((i, items))
        env.cluster.send("Campaign", "Start",
                         {"params": [Keyword("id"), i,
                                     Keyword("items"), items]})
    env.cluster.run_until_idle()

    report = CampaignReport(name=name, seed=seed, env=env,
                            injector=injector)
    # map campaign ids back to task records via each task's params
    for task in env.registry.tasks.values():
        plist = {task.params[i].name: task.params[i + 1]
                 for i in range(0, len(task.params), 2)}
        for i, items in started:
            if plist.get("id") == i:
                report.inputs[task.id] = items
                break
    return report
