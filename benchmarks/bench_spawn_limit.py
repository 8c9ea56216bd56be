"""Experiment S5b — the spawn-limit analysis (Section 5).

The paper analyzes two failure modes of the spawn-limit implementation:

* **no/high limit**: when n children finish together, "n AwakeFiber
  messages will be placed on the message queue ... n-1 of those
  AwakeFiber operations will be forced to wait while a single instance
  reads and updates the persistence information ... for some period of
  time all n instances will be unavailable to process other activity"
  — bursty lock contention that blocks unrelated work;
* **low limit**: "the overhead of sending an AwakeFiber message for
  permission to spawn the next child seems high" — serialization
  stretches the makespan.

The sweep below reproduces both ends: makespan falls as the limit
rises, while AwakeFiber lock-waits (the burstiness cost) rise.
"""

import pytest

from repro.harness.reporting import series
from repro.vinz.api import VinzEnvironment

FANOUT_WORKFLOW = """
(defun main (params)
  (for-each (x in params)
    (compute 1.0)       ; children take ~the same time (the paper's case)
    x))
"""

CHILDREN = 16
NODES = 8


def run_with_limit(limit: int, seed: int = 3):
    env = VinzEnvironment(nodes=NODES, seed=seed, trace=False)
    env.deploy_workflow("Fan", FANOUT_WORKFLOW, spawn_limit=limit,
                        awake_patience=0.02)
    env.run("Fan", list(range(CHILDREN)))
    return {
        "makespan": env.cluster.kernel.now,
        "lock_waits": env.metrics.get("awake.lock-wait"),
        "requeues": env.cluster.queue.redelivered,
        "awakes": env.metrics.get("op.Fan.AwakeFiber"),
    }


def test_spawn_limit_sweep(benchmark, bench_report):
    benchmark.pedantic(lambda: run_with_limit(4), rounds=1, iterations=1)

    points = []
    results = {}
    for limit in (1, 2, 4, 8, 16, 32):
        r = run_with_limit(limit)
        results[limit] = r
        points.append((limit, round(r["makespan"], 2), r["awakes"],
                       r["lock_waits"], r["requeues"]))
    bench_report("spawn_limit_sweep", series(
        f"Section 5 — spawn-limit sweep ({CHILDREN} children x 1s, "
        f"{NODES} nodes)",
        "spawn limit",
        ["makespan (virt s)", "AwakeFiber msgs", "lock waits",
         "requeued msgs"],
        points) + """

Reading the sweep (the paper's analysis):
 - limit 1 serializes the children: makespan ~= children x 1s, and the
   per-child AwakeFiber permission round-trip adds overhead on top
   ("the overhead of sending an AwakeFiber message for permission to
   spawn the next child seems high");
 - a high limit minimizes makespan but the simultaneous completions
   make the AwakeFibers collide on the parent's fiber lock: waiting
   AwakeFibers occupy instance slots ("all n instances will be
   unavailable to process other activity").""")

    # shape assertions: both ends of the trade-off
    assert results[1]["makespan"] > results[16]["makespan"] * 2
    assert results[32]["lock_waits"] + results[32]["requeues"] > \
        results[1]["lock_waits"] + results[1]["requeues"]
    # exactly one AwakeFiber per child, regardless of the limit
    for limit, r in results.items():
        assert r["awakes"] >= CHILDREN, (limit, r)


def test_awake_burst_blocks_unrelated_work(bench_report):
    """The Section 5 complaint, directly: during an AwakeFiber burst,
    unrelated service operations wait for slots."""
    from repro.bluebox.messagequeue import ReplyTo
    from repro.bluebox.services import simple_service

    env = VinzEnvironment(nodes=4, seed=4, trace=False)
    env.deploy_workflow("Fan", FANOUT_WORKFLOW, spawn_limit=32,
                        awake_patience=0.25)  # long patience = long block
    env.deploy_service(simple_service(
        "Other", {"Ping": lambda ctx, body: "pong"}))
    task = env.start("Fan", list(range(12)))

    # when children start completing, probe the unrelated service
    env.cluster.run_until(
        lambda: env.metrics.get("op.Fan.AwakeFiber") >= 1)
    latencies = []

    def probe():
        sent = env.cluster.kernel.now
        env.cluster.send("Other", "Ping", {},
                         reply_to=ReplyTo(callback=lambda b: latencies.append(
                             env.cluster.kernel.now - sent)))

    probe()
    env.wait_for_task(task)
    env.cluster.run_until_idle()
    baseline = 2 * env.cluster.delivery_latency + 0.002
    bench_report("awake_burst_blocking", series(
        "Unrelated-operation latency during an AwakeFiber burst",
        "probe", ["latency (virt s)", "unloaded baseline (virt s)"],
        [(i + 1, round(lat, 4), round(baseline, 4))
         for i, lat in enumerate(latencies)]))
    assert latencies, "probe never answered"
    # the probe was measurably delayed by the burst
    assert latencies[0] > baseline
