"""The benchmark's three workloads: inputs from a seed, the environment
they run on, and the answer every task must produce.

Every workload runs with the settings ``run_production_day`` uses:
``trace=False``, ``spawn_limit=8``, ``instruction_cost=1e-6`` and a
cluster of 12 nodes x 4 slots.  The load is open loop in virtual time:
each task's ``Start`` is scheduled on the kernel at its arrival time,
however far behind the cluster falls, and task latency counts from
that scheduled arrival.

Why each workload was chosen
----------------------------
``paper_day``
    The paper's own evaluation (Section 5), at scale 0.02: 200 tasks,
    a flat ``SharedStore``, v1 snapshots, history off and coordinator
    locks.  Its operation windows are long in virtual time, so lease
    heartbeats make up most kernel events (29,404 of 36,275 at seed
    2010, the plain draw) and continuation deep-copies a large share of
    host time.  Store, journal and history do little here.
``durable_crash_day``
    The same task stream on ``DurableStore(shards=4)`` with
    ``history="on"`` and ``locks="file"`` (the paper's NFS locks), plus
    a seeded schedule of ``fail_node``/``restore_node`` calls.  Each
    window writes three times (store, journal, history), and each crash
    makes the system read back: leases expire, the recovery scanner
    runs, messages are redelivered and continuations reload on another
    node.  A gain on the write side that costs recovery shows here.
``gather_storm``
    A workflow owned by the benchmark: each task fans out with
    ``for-each`` into a few parts, and each part loops over
    non-blocking ``KV-Fetch`` calls, ``append!``-ing every result, with
    no ``compute``.  Every window is a short suspend/resume, so
    capture/materialize, the codec and the fiber cache do most of the
    work, and no window lives long enough to need a lease heartbeat.
    For a change to leases the prediction here is "no change".

Inputs
------
A run at ``--seed n`` executes a panel of days, each generated from
its own seed derived from ``n`` (:meth:`Workload.panel_seeds`): four
for the day-shaped workloads, one for ``gather_storm``, whose task
shapes vary little from seed to seed.  The two day-shaped workloads
take a *stratified* 2% sample of the full 10,000-task Section 5 day:
:func:`generate_tasks` draws the whole day at the day's seed, the
tasks are ranked by total compute, and one task is taken from the
middle of each of 200 equal strata.  Every task is
still a Section 5 task, but the day keeps the full day's duration
distribution instead of one 200-draw sample of a log-normal with
sigma 2, whose total work varies by about half from seed to seed.
:func:`baseline_specs` is the plain 200-task draw
``run_production_day`` makes; the benchmark's tests run ``paper_day``
on it at seed 2010 and check the recorded baseline figures.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bluebox.services import simple_service
from repro.bluebox.store import SharedStore
from repro.durastore import DurableStore
from repro.vinz.api import VinzEnvironment
from repro.workloads.generators import TaskSpec, WorkloadProfile, generate_tasks
from repro.workloads.production import (
    BATCH_WORKFLOW_SOURCE,
    DAY_SECONDS,
    PAPER_SERIAL_HOURS,
    PAPER_TASKS_PER_DAY,
    datastore_service,
)

SCALE = 0.02
TASKS = int(PAPER_TASKS_PER_DAY * SCALE)
PERIOD = DAY_SECONDS * SCALE
#: the Section 5 profile ``run_production_day`` uses
SECTION5_PROFILE = WorkloadProfile(
    mean_task_seconds=PAPER_SERIAL_HOURS * 3600 / PAPER_TASKS_PER_DAY)
NODES, SLOTS = 12, 4
WORKFLOW_CONFIG = dict(spawn_limit=8, instruction_cost=1e-6, snapshots="v1")

#: node failures per ``durable_crash_day`` day
CRASHES = 4


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def baseline_specs(seed: int) -> List[TaskSpec]:
    """The 200-task draw ``run_production_day(scale=0.02)`` makes."""
    return generate_tasks(TASKS, PERIOD, seed=seed, profile=SECTION5_PROFILE)


def day_specs(seed: int) -> List[TaskSpec]:
    """A stratified 2% sample of the full Section 5 day (see module doc)."""
    full = generate_tasks(PAPER_TASKS_PER_DAY, DAY_SECONDS, seed=seed,
                          profile=SECTION5_PROFILE)
    ranked = sorted(full, key=lambda spec: spec.total_compute)
    stride = len(ranked) // TASKS
    picked = [ranked[k * stride + stride // 2] for k in range(TASKS)]
    # a uniform subset of Poisson arrivals, squeezed into the scaled day
    return sorted((dataclasses.replace(spec, arrival=spec.arrival * SCALE)
                   for spec in picked), key=lambda spec: spec.arrival)


def batch_expected(spec: TaskSpec) -> int:
    """``BATCH_WORKFLOW_SOURCE`` returns one per fanned-out chunk."""
    return len(spec.child_seconds)


#: the gather workflow: every part fetches its keys one non-blocking
#: call at a time and sums what it collected
GATHER_WORKFLOW_SOURCE = """
(deflink KV :wsdl "urn:gather-service")

(defun main (parts)
  (apply #'+ (for-each (keys in parts)
               (let ((got (list)))
                 (dolist (k keys)
                   (append! got (KV-Fetch-Method :Key k)))
                 (apply #'+ got)))))
"""

GATHER_PERIOD = 60.0
GATHER_PARTS = (2, 4)
GATHER_KEYS = (3, 5)
GATHER_FETCH_SECONDS = 0.005


def gather_value(key: int) -> int:
    return key * 7919 % 1000


def gather_service():
    def fetch(ctx, body):
        ctx.charge(GATHER_FETCH_SECONDS)
        return gather_value(body.get("Key"))

    return simple_service("KV", {"Fetch": fetch},
                          namespace="urn:gather-service",
                          parameters={"Fetch": ["Key"]})


@dataclasses.dataclass
class GatherSpec:
    arrival: float
    parts: List[List[int]]

    def to_params(self):
        return self.parts


def gather_specs(seed: int) -> List[GatherSpec]:
    rng = random.Random(seed)
    arrivals = sorted(rng.uniform(0.0, GATHER_PERIOD) for _ in range(TASKS))
    return [GatherSpec(arrival, [[rng.randrange(1_000_000)
                                  for _ in range(rng.randint(*GATHER_KEYS))]
                                 for _ in range(rng.randint(*GATHER_PARTS))])
            for arrival in arrivals]


def gather_expected(spec: GatherSpec) -> int:
    return sum(gather_value(key) for part in spec.parts for key in part)


# ----------------------------------------------------------------------
# environments
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    specs: Callable[[int], list]
    expected: Callable[[Any], Any]
    workflow: str
    source: str
    service: Callable[[], Any]
    store: Callable[[], SharedStore]
    history: str = "off"
    locks: str = "coordinator"
    crashes: int = 0
    panel: int = 4

    def panel_seeds(self, seed: int) -> List[int]:
        """The day seeds of one run: the run's seed, then derived ones."""
        return [seed + 1_000_003 * j for j in range(self.panel)]

    def build(self, seed: int,
              history: Optional[str] = None) -> VinzEnvironment:
        """A fresh environment with the service and workflow deployed."""
        env = VinzEnvironment(nodes=NODES, slots=SLOTS, seed=seed,
                              trace=False, store=self.store(),
                              locks=self.locks,
                              history=history or self.history)
        env.deploy_service(self.service())
        env.deploy_workflow(self.workflow, self.source, **WORKFLOW_CONFIG)
        return env


PAPER_DAY = Workload(
    name="paper_day",
    specs=day_specs, expected=batch_expected,
    workflow="Batch", source=BATCH_WORKFLOW_SOURCE,
    service=datastore_service, store=SharedStore)

DURABLE_CRASH_DAY = Workload(
    name="durable_crash_day",
    specs=day_specs, expected=batch_expected,
    workflow="Batch", source=BATCH_WORKFLOW_SOURCE,
    service=datastore_service, store=lambda: DurableStore(shards=4),
    history="on", locks="file", crashes=CRASHES)

GATHER_STORM = Workload(
    name="gather_storm",
    specs=gather_specs, expected=gather_expected,
    workflow="Gather", source=GATHER_WORKFLOW_SOURCE,
    service=gather_service, store=SharedStore, panel=1)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in
                                  (PAPER_DAY, DURABLE_CRASH_DAY, GATHER_STORM)}


def schedule_arrivals(env: VinzEnvironment, workload: Workload,
                      specs: list) -> Dict[int, Optional[str]]:
    """Put every task's ``Start`` on the kernel at its arrival time.

    Returns the dict the replies fill: spec index -> task id, or None
    when the ``Start`` itself failed.
    """
    from repro.bluebox.messagequeue import ReplyTo

    started: Dict[int, Optional[str]] = {}
    cluster = env.cluster

    def start(index: int, spec) -> None:
        def reply(body) -> None:
            started[index] = (body.get("result") or {}).get("task")

        cluster.send(workload.workflow, "Start", {"params": spec.to_params()},
                     reply_to=ReplyTo(callback=reply))

    for index, spec in enumerate(specs):
        cluster.kernel.schedule(spec.arrival,
                                lambda i=index, s=spec: start(i, s))
    return started


def schedule_crashes(env: VinzEnvironment, seed: int, count: int) -> None:
    """A seeded ``fail_node``/``restore_node`` schedule.

    Failure times and restore delays come from the seed; the victim is
    the alive node with the most busy slots at that instant (the first
    on ties), so every crash interrupts work in flight.
    """
    rng = random.Random(seed ^ 0xC0FFEE)
    cluster = env.cluster
    order = list(cluster.nodes)

    def crash(downtime: float) -> None:
        alive = [n for n in order if cluster.nodes[n].alive]
        if not alive:
            return
        victim = max(alive, key=lambda n: (cluster.nodes[n].busy,
                                           -order.index(n)))
        env.fail_node(victim)
        cluster.kernel.schedule(downtime, lambda: env.restore_node(victim))

    for _ in range(count):
        at = rng.uniform(0.1, 0.9) * PERIOD
        downtime = rng.uniform(30.0, 120.0)
        cluster.kernel.schedule(at, lambda d=downtime: crash(d))


# ----------------------------------------------------------------------
# predictions: which end-to-end metric each layer metric should move
# ----------------------------------------------------------------------

ALL = tuple(WORKLOADS)


@dataclasses.dataclass(frozen=True)
class Prediction:
    """A layer metric, the end-to-end metrics it should move, and the
    workloads where it moves them most (in that order)."""

    layer_metric: str
    moves: Tuple[str, ...]
    workloads: Tuple[str, ...]


def _rows(prefix: str, names: str, moves: str, where: Tuple[str, ...]):
    return [Prediction(f"{prefix}.{name}", tuple(moves.split()), where)
            for name in names.split()]


PREDICTIONS: List[Prediction] = [
    *_rows("lang", "compile_s", "setup_s", ALL),
    *_rows("gvm.vm", "runs self_s", "tasks_per_host_s", ("gather_storm",)),
    *_rows("gvm.continuations", "captures materializes deepcopy_calls self_s",
           "tasks_per_host_s peak_rss_mb", ("gather_storm", "paper_day")),
    *_rows("vinz.persistence",
           "encodes encode_s decodes decode_s blob_bytes",
           "bytes_written_per_task tasks_per_host_s", ("gather_storm",)),
    # through the decodes a hit saves
    *_rows("vinz.cache", "hit_rate_mutable hit_rate_immutable",
           "tasks_per_host_s", ("gather_storm",)),
    *_rows("vinz.recovery", "scans fibers_reawakened latency_max_vs",
           "recovery_latency_max_vs tasks_per_host_s",
           ("durable_crash_day",)),
    *_rows("bluebox.store", "writes reads", "store_writes_per_task", ALL),
    *_rows("bluebox.store", "self_s", "tasks_per_host_s",
           ("durable_crash_day",)),
    *_rows("bluebox.locks", "lease_renewals leases_expired self_s",
           "tasks_per_host_s", ("paper_day",)),
    *_rows("bluebox.locks", "lease_renewals leases_expired self_s",
           "recovery_latency_max_vs", ("durable_crash_day",)),
    # the kernel and cluster time left over after the named layers
    *_rows("bluebox.clock", "events self_s", "tasks_per_host_s",
           ("paper_day",)),
    *_rows("bluebox.messagequeue", "redelivered wait_p95_vs",
           "task_latency_p95_vs", ("durable_crash_day",)),
    *_rows("durastore", "journal.flushes journal.bytes_appended commit_s",
           "store_writes_per_task bytes_written_per_task tasks_per_host_s",
           ("durable_crash_day",)),
    *_rows("history", "events batches_written log_bytes append_s",
           "bytes_written_per_task tasks_per_host_s",
           ("durable_crash_day",)),
]

#: layer metrics only ``durable_crash_day`` exercises
_DURABLE_ONLY = ("durastore.journal.flushes",
                 "durastore.journal.bytes_appended", "durastore.commit_s",
                 "history.events", "history.batches_written",
                 "history.log_bytes", "history.append_s")

#: layer metrics the workload design says stay exactly 0, by workload
PREDICTED_ZERO: Dict[str, Tuple[str, ...]] = {
    "paper_day": _DURABLE_ONLY,
    "gather_storm": ("bluebox.locks.lease_renewals",) + _DURABLE_ONLY,
}
