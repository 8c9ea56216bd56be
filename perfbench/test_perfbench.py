"""Tests of the benchmark itself.  From the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q

They take a few minutes: each workload runs one short traced run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from layers import LayerTrace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: the wrappers each workload must fire.  Together they are every
#: wrapper the trace installs, so an entry point that is renamed or
#: bypassed fails here instead of reading 0.
FIRES = {
    "paper_day": (
        "Reader.read_all", "Compiler.compile_toplevel",
        "Compiler.compile_function", "VM._run_top", "repro.gvm.vm.capture",
        "repro.gvm.vm.materialize", "FiberCodec.dumps", "FiberCodec.loads",
        "SharedStore.write", "SharedStore.read", "SharedStore.delete",
        "CoordinatorLockManager.try_acquire",
        "CoordinatorLockManager.release", "LockManager.renew",
        "LockManager.renew_owner"),
    "durable_crash_day": (
        "DurableStore.write", "DurableStore.delete", "ShardedStore.write",
        "ShardedStore.read", "ShardedStore.delete",
        "DurableStore.seal_window", "DurableStore.commit_batch",
        "FileLockManager.try_acquire", "FileLockManager.release",
        "FileLockManager.expire_node", "LockManager.expire_lock",
        "LockManager.renew_owner", "HistoryLog.append_batch"),
    "gather_storm": (
        "VM._run_top", "repro.gvm.vm.capture", "repro.gvm.vm.materialize",
        "FiberCodec.dumps", "FiberCodec.loads", "SharedStore.write",
        "SharedStore.read", "CoordinatorLockManager.try_acquire"),
}


@pytest.fixture(scope="module")
def traced_runs():
    """One minimal traced run (one untraced, two traced rounds) each."""
    return {name: run.Run(workload, seed=7, seconds=0, trace=True)
            for name, workload in workloads.WORKLOADS.items()}


def test_paper_day_reproduces_the_production_day_baseline():
    day = run.Day(workloads.PAPER_DAY, 2010, workloads.baseline_specs(2010))
    assert (day.tasks, day.correct) == (200, 200)
    assert day.stats["store.writes"] == 1557
    assert day.stats["store.bytes_written"] == 840_232
    assert day.stats["kernel.events"] == 36_275
    assert day.stats["locks.renewed"] == 29_404
    assert round(day.stats["makespan_vs"] / 3600, 3) == 0.717


def test_every_workload_is_correct_and_deterministic(traced_runs):
    for name, result in traced_runs.items():
        assert result.failures == 0, name
        assert result.nondeterministic == [], name
        assert result.attempted >= 200, name


def test_every_wrapper_fires_where_predicted(traced_runs):
    for name, wrappers in FIRES.items():
        fired = traced_runs[name].days(True)[0][0].trace.fired
        assert [w for w in wrappers if not fired[w]] == [], name
    named = {w for wrappers in FIRES.values() for w in wrappers}
    assert named == set(LayerTrace.installable())


def test_predicted_zeros_stay_zero(traced_runs):
    for name, metrics in workloads.PREDICTED_ZERO.items():
        layer = traced_runs[name].per_layer()
        assert {m: layer[m][0] for m in metrics} == dict.fromkeys(metrics, 0)
    durable = traced_runs["durable_crash_day"].per_layer()
    for metric in workloads.PREDICTED_ZERO["paper_day"]:
        assert durable[metric][0] > 0, metric


def test_traced_run_confirms_the_workload_design(traced_runs):
    layers = {name: r.per_layer() for name, r in traced_runs.items()}
    assert layers["paper_day"]["bluebox.locks.lease_renewals"][0] >= 25_000
    assert layers["gather_storm"]["bluebox.locks.lease_renewals"][0] == 0
    shares = {name: r.host_shares() for name, r in traced_runs.items()}
    assert (shares["gather_storm"]["gvm.continuations"]
            > shares["paper_day"]["gvm.continuations"])
    durable = layers["durable_crash_day"]
    assert durable["bluebox.locks.leases_expired"][0] >= 1
    assert durable["vinz.recovery.fibers_reawakened"][0] >= 1


def test_self_times_add_up_to_host_time(traced_runs):
    for name, result in traced_runs.items():
        for day in result.days(True)[0]:
            total = sum(t for layer, t in day.trace.self_s.items())
            assert total == pytest.approx(day.host_s, rel=1e-3), name


def test_every_prediction_names_a_reported_metric(traced_runs):
    result = traced_runs["paper_day"]
    reported = set(result.end_to_end(1.0)) | set(result.reported())
    layer = set(result.per_layer())
    for row in workloads.PREDICTIONS:
        assert row.layer_metric in layer, row
        assert set(row.moves) <= reported, row
        assert set(row.workloads) <= set(workloads.WORKLOADS), row


def test_a_counter_that_changes_between_rounds_is_reported():
    class FakeDay:
        def __init__(self, writes):
            self.counters = {"store.writes": writes}

    fake = run.Run.__new__(run.Run)
    fake.seeds = [1]
    fake.rounds = [(False, [FakeDay(10)]), (False, [FakeDay(11)])]
    assert fake._mismatches() == [(1, "store.writes", 10, 11)]


def test_benchmark_without_the_program_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_day",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_matches_the_runner(traced_runs):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    result = traced_runs["paper_day"]
    assert [m["name"] for m in spec["end_to_end"]] == \
        list(result.end_to_end(1.0))
    assert [m["name"] for m in spec["per_layer"]] == list(result.per_layer())
