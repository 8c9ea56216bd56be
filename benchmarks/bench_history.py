"""Experiment H1 — event-sourced history: replay fidelity and the
snapshot-interval persistence trade-off.

The history plane records every nondeterministic observation a fiber
makes; the GVM is deterministic, so re-executing the recorded bytecode
against that stream must land on exactly the recorded suspensions and
final results.  This bench puts that claim under load and measures the
optimization it unlocks:

* **replay fidelity** — a 200-task chaos campaign (node crashes +
  dropped/duplicated queue messages) is replayed task by task from the
  durable log; any divergence between re-execution and the recorded
  history fails the bench.  Zero divergences is the event-sourcing
  contract.
* **replay-based recovery** — the lock-recovery invariants (no stuck
  fibers, no double runs, correct answers) must hold when crashed
  fibers are rebuilt by replay with the continuation-snapshot plane
  *never read*.
* **snapshot-interval elision** — with histories durable, continuation
  snapshots become an optimization: persisting every Nth suspension
  must cut persisted bytes per suspension by >= 2x at N >= 8, with the
  elided versions rebuilt from history on demand.

The report JSON (``benchmarks/out/history_replay_report.json``) is the
artifact CI uploads; its ``divergences`` count must be 0.
"""

import json
import os

from repro.faults import CRASH, FaultPlan, MessageFault, NodeFault
from repro.faults.campaign import run_campaign
from repro.harness.reporting import table

SEED = 42
NODES = 4
TASKS = 200
SNAPSHOT_INTERVAL = 8

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

CHAOS = FaultPlan([
    MessageFault("drop", operation="RunFiber", nth=3, count=6),
    MessageFault("duplicate", operation="AwakeFiber", nth=2, count=6),
    MessageFault("drop", operation="ResumeFromCall", nth=4, count=3),
    NodeFault(CRASH, at=2.0, restart_after=2.0),
    NodeFault(CRASH, at=8.0, restart_after=2.0),
    NodeFault(CRASH, on_persist=40, restart_after=2.0),
], name="history-chaos")


def test_history_replay_campaign(benchmark, bench_report):
    """Replay all 200 chaos-campaign tasks; prove zero divergences and
    the >= 2x bytes/suspension win from snapshot-interval elision."""

    def run():
        return run_campaign(CHAOS, seed=SEED, tasks=TASKS, nodes=NODES,
                            history="on")

    campaign = benchmark.pedantic(run, rounds=1, iterations=1)
    env = campaign.env
    assert campaign.all_completed, campaign.statuses
    assert campaign.wrong_results() == []
    crashes = sum(count for action, count in campaign.injected.items()
                  if action.startswith("crash"))
    assert crashes >= 2 and campaign.redelivered > 0, campaign.injected

    # -- replay fidelity: every task, from the durable log ------------
    replays = campaign.replay_all()   # raises on the first divergence
    assert len(replays) == TASKS
    divergences = env.cluster.metrics.counter("history.divergences").value
    assert divergences == 0
    windows = sum(r.windows for r in replays)
    instructions = sum(r.instructions for r in replays)

    # -- replay-based recovery under lock-holder crashes --------------
    recovery_plan = FaultPlan([
        NodeFault(CRASH, on_lock=2, restart_after=2.0),
        NodeFault(CRASH, on_lock=9, restart_after=2.0),
        NodeFault(CRASH, on_persist=5, restart_after=2.0),
    ], name="history-recovery")
    rec = run_campaign(recovery_plan, seed=SEED, tasks=8, nodes=NODES,
                       history="on", recovery="replay",
                       locks="file", lease_ttl=1.0)
    assert rec.all_completed, rec.statuses
    assert rec.wrong_results() == []
    stuck = rec.stuck_fibers()
    violations = rec.single_runner_violations()
    assert stuck == [], f"stranded fibers: {stuck}"
    assert violations == [], f"single-runner violations: {violations}"
    rebuilds = rec.env.metrics.get("history.rebuilds")
    assert rebuilds > 0, "replay recovery never rebuilt a fiber"
    rec.replay_all()

    # -- snapshot-interval elision: bytes persisted per suspension ----
    # wide fan-outs (items >> spawn limit) make the root fiber suspend
    # well past the interval, so the sparse run still takes snapshots
    # and the ratio is a finite bytes-per-suspension comparison
    def persisted_per_suspension(interval):
        report = run_campaign(CHAOS, seed=SEED, tasks=40, nodes=NODES,
                              items_range=(10, 14),
                              history="on", snapshot_interval=interval)
        assert report.all_completed and report.wrong_results() == []
        report.replay_all()
        bytes_written = report.env.metrics.get("persist.bytes")
        suspensions = (report.env.metrics.get("persist.writes")
                       + report.env.metrics.get("persist.skipped"))
        return bytes_written, suspensions, report

    every_bytes, every_susp, _ = persisted_per_suspension(1)
    sparse_bytes, sparse_susp, sparse = persisted_per_suspension(
        SNAPSHOT_INTERVAL)
    per_every = every_bytes / max(1, every_susp)
    per_sparse = sparse_bytes / max(1, sparse_susp)
    ratio = per_every / max(1e-9, per_sparse)
    assert ratio >= 2.0, (
        f"snapshot_interval={SNAPSHOT_INTERVAL} saved only {ratio:.2f}x "
        f"({per_every:.0f} -> {per_sparse:.0f} bytes/suspension)")

    payload = {
        "campaign": campaign.name,
        "seed": SEED,
        "tasks": TASKS,
        "faults_injected": dict(campaign.injected),
        "tasks_replayed": len(replays),
        "divergences": int(divergences),
        "windows_replayed": windows,
        "instructions_replayed": instructions,
        "partial_fibers": sum(len(r.partial_fibers) for r in replays),
        "history": env.summary()["history"],
        "recovery_mode_campaign": {
            "stuck_fibers": len(stuck),
            "double_runs": len(violations),
            "rebuilds": rebuilds,
        },
        "snapshot_interval": {
            "interval": SNAPSHOT_INTERVAL,
            "bytes_per_suspension_every": round(per_every, 1),
            "bytes_per_suspension_sparse": round(per_sparse, 1),
            "ratio": round(ratio, 2),
            "persists_skipped":
                sparse.env.metrics.get("persist.skipped"),
            "rebuilds": sparse.env.metrics.get("history.rebuilds"),
        },
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, "history_replay_report.json")
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)

    text = table(
        "H1  event-sourced history: replay fidelity + interval elision",
        ["metric", "value"],
        [("chaos tasks replayed", len(replays)),
         ("divergences", int(divergences)),
         ("windows re-executed", windows),
         ("instructions re-executed", instructions),
         ("faults injected", dict(campaign.injected)),
         ("replay-recovery stuck fibers", len(stuck)),
         ("replay-recovery double runs", len(violations)),
         ("replay-recovery rebuilds", rebuilds),
         (f"bytes/suspension @interval=1", round(per_every, 1)),
         (f"bytes/suspension @interval={SNAPSHOT_INTERVAL}",
          round(per_sparse, 1)),
         ("bytes/suspension ratio", f"{ratio:.2f}x"),
         ("report artifact", out_path)])
    bench_report("bench_history", text)
