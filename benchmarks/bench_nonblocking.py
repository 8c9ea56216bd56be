"""Experiment S3a — non-blocking service requests (Section 3.2).

"Overall, this allows many more tasks to be in progress at any one
time.  Wall-clock time, CPU resources and memory that would otherwise
have been wasted blocking can now be used by a different task to make
progress."

The experiment: N workflow tasks each call a slow backend service once.
In *blocking* mode (static :sync), the calling fiber occupies its
instance slot for the whole service time; in *non-blocking* mode the
fiber yields, persists, and frees the slot.  With fewer slots than
tasks, non-blocking mode finishes the batch far sooner.
"""

import pytest

from repro.bluebox.services import simple_service
from repro.harness.reporting import paper_vs_measured, series
from repro.vinz.api import VinzEnvironment

SERVICE_SECONDS = 2.0
TASKS = 12


def build_env(sync: bool, nodes: int = 2, slots: int = 1, seed: int = 6):
    env = VinzEnvironment(nodes=nodes, slots=slots, seed=seed, trace=False)
    workflow_nodes = list(env.cluster.nodes)
    env.backend_peak = 0

    def slow(ctx, body):
        # how many requests are being serviced simultaneously?  In
        # blocking mode each pins a workflow slot (so <= slots); in
        # non-blocking mode every suspended task can have one in flight
        # at the backend.
        queued = sum(1 for r in env.cluster._in_flight
                     if r.message.service == "Backend")
        pinned = sum(env.cluster.nodes[nid].busy for nid in workflow_nodes)
        env.backend_peak = max(env.backend_peak, queued + pinned)
        ctx.charge(SERVICE_SECONDS)
        return body.get("X", 0) * 2

    # the backend runs on its own ample set of extra nodes so it is
    # never the bottleneck — the contended resource is the workflow's
    # own instance slots
    extra = env.cluster.add_nodes(TASKS)
    backend = simple_service("Backend", {"Slow": slow},
                             namespace="urn:backend-service",
                             parameters={"Slow": ["X"]})
    env.cluster.deploy(backend, node_ids=[n.id for n in extra])
    source = f"""
        (deflink B :wsdl "urn:backend-service" {":sync t" if sync else ""})
        (defun main (params)
          (B-Slow-Method :X params))"""
    env.deploy_workflow("Caller", source, node_ids=workflow_nodes)
    return env


def run_batch(sync: bool) -> dict:
    env = build_env(sync)
    for i in range(TASKS):
        env.cluster.send("Caller", "Start", {"params": i})
    env.cluster.run_until_idle()
    counts = env.registry.counts()
    assert counts.get("completed") == TASKS, counts
    return {
        "makespan": env.cluster.kernel.now,
        "peak_in_service": env.backend_peak,
        "persists": env.metrics.get("persist.writes"),
    }


def test_nonblocking_vs_blocking(benchmark, bench_report):
    benchmark.pedantic(lambda: run_batch(sync=False), rounds=1, iterations=1)

    blocking = run_batch(sync=True)
    nonblocking = run_batch(sync=False)

    rows = [
        ("makespan, blocking (virt s)", None, round(blocking["makespan"], 2)),
        ("makespan, non-blocking (virt s)", None,
         round(nonblocking["makespan"], 2)),
        ("speedup from non-blocking", ">1",
         round(blocking["makespan"] / nonblocking["makespan"], 2)),
        ("peak requests in service, blocking (slot-capped)", None,
         blocking["peak_in_service"]),
        ("peak requests in service, non-blocking ('many more tasks')",
         None, nonblocking["peak_in_service"]),
        ("checkpoints written (non-blocking only)", None,
         nonblocking["persists"]),
    ]
    bench_report("nonblocking_requests", paper_vs_measured(
        f"Section 3.2 — {TASKS} tasks x one {SERVICE_SECONDS}s service "
        "call, 2 workflow slots", rows))

    # the paper's claims, as hard shape checks
    assert nonblocking["makespan"] < blocking["makespan"] / 2
    assert nonblocking["peak_in_service"] > blocking["peak_in_service"]
    assert blocking["persists"] == 0  # sync calls never checkpoint
    assert nonblocking["persists"] >= TASKS


def test_failure_during_service_call(bench_report):
    """Robustness: an instance dies while fibers are suspended awaiting
    a service response; 'other instances automatically compensate'."""
    env = build_env(sync=False, nodes=3)
    for i in range(6):
        env.cluster.send("Caller", "Start", {"params": i})
    env.cluster.run_until(
        lambda: env.metrics.get("persist.writes") >= 3)
    env.fail_node("node-1")
    env.cluster.run_until_idle()
    counts = env.registry.counts()
    bench_report("nonblocking_failure", paper_vs_measured(
        "Section 3.2 — node failure while fibers awaited responses",
        [("tasks completed", 6, counts.get("completed", 0)),
         ("tasks lost", 0, 6 - counts.get("completed", 0)),
         ("messages redelivered", None, env.cluster.queue.redelivered)]))
    assert counts.get("completed") == 6
