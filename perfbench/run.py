#!/usr/bin/env python3
"""The repository benchmark: the Section 5 day and two variants, run
open loop on the simulated cluster, measured end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload paper_day --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

``--workload`` is ``paper_day``, ``durable_crash_day``, ``gather_storm``
or ``all``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics of a traced run (see ``layers.py``),
with one untraced round for every two traced ones, so the tracing
overhead shows.
Every metric is printed as ``workload  name  value  unit``; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

A run executes the panel of days its seed selects (``workloads.py``)
in rounds until ``--seconds`` have passed, and at least twice.  Host
times are medians over rounds, scaled to a reference speed (see
``REFERENCE_SECONDS``); the unscaled throughput and the host's speed
are printed as well.  The simulation's own counts must be identical
in every round, or the run fails.  Every task's result is
checked against the value its generated input implies, every task is
replayed from its history with no divergence, and on
``durable_crash_day`` no fiber may be stuck or run twice.  Each
failure counts in ``failed``; the exit status is 1 when anything
failed.
"""

from __future__ import annotations

import argparse
import copy
import gc
import heapq
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

_clock = time.perf_counter


#: Roughly what :func:`reference_seconds` measures on the machine the
#: bounds were set on (a 2-vCPU VM, Python 3.11.7) at its fastest.
#: Every host time is reported at that speed: scaled by this over the
#: reference job's median time in the same run.  The job runs no
#: program code.  That VM's speed changed by up to 1.7x for minutes at
#: a time; over ten runs, scaling cut the spread of paper_day's
#: throughput from 0.24-0.41 to about 0.09.
REFERENCE_SECONDS = 0.06


def reference_seconds() -> float:
    """Time a fixed job of the kinds of work the simulator does (heap,
    dict, deep copy, pickle, zlib) that runs no program code."""
    started = _clock()
    heap, counts = [], {}
    for i in range(30_000):
        heapq.heappush(heap, (i * 7919 % 1000, i))
        counts[i % 977] = counts.get(i % 977, 0) + 1
        if len(heap) > 100:
            heapq.heappop(heap)
    data = [{"id": i, "items": [i, str(i), (i, i + 1.5)], "next": None}
            for i in range(400)]
    for _ in range(10):
        zlib.compress(pickle.dumps(copy.deepcopy(data)))
    return _clock() - started


#: fresh interpreters timed setting up, for ``setup_s``
SETUP_SAMPLES = 7
SETUP_PROBE = (
    "import sys, time\n"
    "started = time.perf_counter()\n"
    "sys.path[:0] = [{src!r}, {here!r}]\n"
    "import workloads, layers\n"
    "workloads.WORKLOADS[{name!r}].build({seed!r})\n"
    "setup = time.perf_counter() - started\n"
    "import run\n"
    "print(setup * run.REFERENCE_SECONDS / run.reference_seconds())\n")


def setup_seconds(name: str, seed: int) -> float:
    """Median time a fresh interpreter takes to import the program and
    build one environment of the workload (compile and deploy), each
    at the reference speed."""
    probe = SETUP_PROBE.format(src=SRC, here=HERE, name=name, seed=seed)
    samples = [float(subprocess.run([sys.executable, "-c", probe],
                                    check=True, capture_output=True,
                                    text=True, timeout=120).stdout)
               for _ in range(SETUP_SAMPLES)]
    return statistics.median(samples)


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


#: the counts that must repeat exactly in every round of one day
DETERMINISTIC = ("store.writes", "store.bytes_written", "kernel.events",
                 "locks.renewed", "journal.flushes", "history.batches_written",
                 "persist.writes", "makespan_vs")


class Day:
    """One day of one workload run once: timings, counts and failures."""

    def __init__(self, workload, seed, specs, traced=False, replay=False,
                 history=None):
        from layers import ROOT, LayerTrace
        from workloads import schedule_arrivals, schedule_crashes

        self.seed = seed
        self.tasks = len(specs)
        self.trace = LayerTrace() if traced else None
        if traced:
            with LayerTrace() as build_trace:
                env = workload.build(seed, history)
            self.compile_s = build_trace.self_s["lang"]
            self.trace.fired.update(build_trace.fired)
        else:
            env = workload.build(seed, history)
        replies = schedule_arrivals(env, workload, specs)
        if workload.crashes:
            schedule_crashes(env, seed, workload.crashes)
        gc.collect()
        self.reference_s = reference_seconds()
        if traced:
            with self.trace:
                started = _clock()
                self.trace.span(ROOT, env.cluster.run_until_idle)
                self.host_s = _clock() - started
        else:
            started = _clock()
            env.cluster.run_until_idle()
            self.host_s = _clock() - started
        self.failed = check_results(env, workload, specs, replies)
        if workload.crashes:
            self.failed |= check_single_runner(env, replies)
        if replay:
            self.failed |= check_replay(env, replies)
        self.latencies = [env.registry.tasks[replies[i]].finished_at
                          - spec.arrival for i, spec in enumerate(specs)
                          if i not in self.failed]
        self.stats = env_stats(env)
        self.counters = {key: self.stats[key] for key in DETERMINISTIC}
        if traced:
            self.counters.update(self.trace.fired)
            self.counters["deepcopy_calls"] = self.trace.deepcopy_calls
            self.counters["blob_bytes"] = self.trace.blob_bytes

    @property
    def correct(self) -> int:
        return self.tasks - len(self.failed)


def env_stats(env) -> dict:
    """Everything the environment's public API reports, flattened."""
    store = env.store.stats_snapshot()
    journal = store.get("journal", {})
    history = env.history.summary() if env.history is not None else {}
    recovery = env.recovery.summary()
    leases = env.locks.lease_stats()
    queue = env.cluster.queue
    stats = {
        "store.writes": store["writes"],
        "store.reads": store["reads"],
        "store.bytes_written": store["bytes_written"],
        "kernel.events": env.cluster.kernel.processed_events,
        "locks.renewed": leases["renewed"],
        "locks.expired": leases["expired"],
        "journal.flushes": journal.get("flushes", 0),
        "journal.bytes_appended": journal.get("bytes_appended", 0),
        "history.events": history.get("events", 0),
        "history.batches_written": history.get("batches_written", 0),
        "history.log_bytes": history.get("log_bytes", 0),
        "persist.writes": env.counters.get("persist.writes"),
        "recovery.scans": recovery["scans"],
        "recovery.fibers_reawakened": recovery["fibers_reawakened"],
        "recovery.max_latency": recovery["max_recovery_latency"],
        "queue.redelivered": queue.redelivered,
        "queue.wait_p95": queue.wait_percentile(0.95),
        "makespan_vs": env.cluster.kernel.now,
    }
    for kind in ("mutable", "immutable"):
        stats[f"cache.{kind}.hit"] = env.counters.get(f"cache.{kind}.hit")
        stats[f"cache.{kind}.miss"] = env.counters.get(f"cache.{kind}.miss")
    return stats


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def check_results(env, workload, specs, replies) -> set:
    """Indices of tasks that did not complete with the expected result."""
    failed = set()
    for index, spec in enumerate(specs):
        task = env.registry.tasks.get(replies.get(index))
        if (task is None or task.status != "completed"
                or task.result != workload.expected(spec)):
            failed.add(index)
    return failed


def check_single_runner(env, replies) -> set:
    """Tasks with a stuck fiber or a fiber that ran twice."""
    from repro.faults.campaign import CampaignReport

    audit = CampaignReport(name="perfbench", seed=0, env=env, injector=None)
    fibers = set(audit.stuck_fibers())
    fibers.update(violation[1] for violation in
                  audit.single_runner_violations())
    bad_tasks = {env.registry.fibers[f].task_id for f in fibers}
    return {i for i, task_id in replies.items() if task_id in bad_tasks}


def check_replay(env, replies) -> set:
    """Tasks whose replay from history diverges from the recorded run."""
    from repro.history import ReplayError

    failed = set()
    for index, task_id in replies.items():
        try:
            env.replay_task(task_id)
        except (ReplayError, KeyError):
            failed.add(index)
    return failed


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------

class Run:
    """Rounds over a panel of days until the time is up."""

    def __init__(self, workload, seed, seconds, trace):
        self.seeds = workload.panel_seeds(seed)
        specs = {s: workload.specs(s) for s in self.seeds}
        self.rounds = []
        self.failed = {}
        started = _clock()
        while True:
            # traced runs: one untraced round for every two traced ones
            traced = trace and len(self.rounds) % 3 != 0
            first = not self.rounds
            days = [Day(workload, s, specs[s], traced=traced,
                        replay=first and workload.history == "on")
                    for s in self.seeds]
            for day in days:
                self.failed.setdefault(day.seed, set()).update(day.failed)
            self.rounds.append((traced, days))
            traced_rounds = sum(t for t, _days in self.rounds)
            enough = traced_rounds >= 2 if trace else len(self.rounds) >= 2
            if enough and _clock() - started >= seconds:
                break
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.nondeterministic = self._mismatches()
        if workload.history != "on":
            # replay needs a history: rerun each day with it recorded
            for s in self.seeds:
                shadow = Day(workload, s, specs[s], replay=True, history="on")
                self.failed[s].update(shadow.failed)
        self.attempted = sum(len(specs[s]) for s in self.seeds)
        self.failures = sum(len(f) for f in self.failed.values()) \
            + len(self.nondeterministic)

    def _mismatches(self):
        """Counters that differ between rounds of one day."""
        bad = []
        for position, s in enumerate(self.seeds):
            reference = {}
            for _traced, days in self.rounds:
                for key, value in days[position].counters.items():
                    if reference.setdefault(key, value) != value:
                        bad.append((s, key, reference[key], value))
        return bad

    def days(self, traced):
        """Per round, the panel's days (traced or untraced rounds only)."""
        return [days for t, days in self.rounds if t == traced]

    def speed(self):
        """This host's speed over the run, relative to the reference."""
        return REFERENCE_SECONDS / statistics.median(
            d.reference_s for _traced, days in self.rounds for d in days)

    def panel_host_s(self, traced):
        return statistics.median(sum(d.host_s for d in days)
                                 for days in self.days(traced))

    def end_to_end(self, setup_s):
        first = self.days(False)[0]
        tasks = sum(d.tasks for d in first)
        correct = sum(d.correct for d in first)
        per_day_host = [statistics.median(days[i].host_s
                                          for days in self.days(False))
                        for i in range(len(self.seeds))]
        return {
            "tasks_per_host_s": (
                correct / (sum(per_day_host) * self.speed()), "1/s"),
            "setup_s": (setup_s, "s"),
            "store_writes_per_task": (
                sum(d.stats["store.writes"] for d in first) / tasks, "count"),
            "bytes_written_per_task": (
                sum(d.stats["store.bytes_written"] for d in first) / tasks,
                "B"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def reported(self):
        """End-to-end figures printed for reading but not in the JSON
        result: most follow the seed's draw more than the program."""
        first = self.days(False)[0]
        latencies = [x for d in first for x in d.latencies]
        return {
            "tasks_per_host_s_unscaled": (
                self.end_to_end(0.0)["tasks_per_host_s"][0] * self.speed(),
                "1/s"),
            "task_latency_p50_vs": (percentile(latencies, 0.50), "vs"),
            "task_latency_p95_vs": (percentile(latencies, 0.95), "vs"),
            "makespan_vs": (statistics.median(
                d.stats["makespan_vs"] for d in first), "vs"),
            "recovery_latency_max_vs": (
                max(d.stats["recovery.max_latency"] for d in first), "vs"),
            "failed_task_share": (self.failures / self.attempted, "share"),
            "host_speed": (self.speed(), "ratio"),
        }

    def per_layer(self):
        traced = self.days(True)
        first = traced[0]

        def total(key):
            return sum(d.stats[key] for d in first)

        def count(wrapper):
            return sum(d.trace.fired[wrapper] for d in first)

        def self_s(layer):
            return self.speed() * statistics.median(
                sum(d.trace.self_s[layer] for d in days) for days in traced)

        def hit_rate(kind):
            hits = total(f"cache.{kind}.hit")
            looked = hits + total(f"cache.{kind}.miss")
            return hits / looked if looked else 0.0

        untraced_host = self.panel_host_s(False)
        return {
            "lang.compile_s": (self.speed() * statistics.median(
                d.compile_s for days in traced for d in days), "s"),
            "gvm.vm.runs": (count("VM._run_top"), "count"),
            "gvm.vm.self_s": (self_s("gvm.vm"), "s"),
            "gvm.continuations.captures": (
                count("repro.gvm.vm.capture"), "count"),
            "gvm.continuations.materializes": (
                count("repro.gvm.vm.materialize"), "count"),
            "gvm.continuations.deepcopy_calls": (
                sum(d.trace.deepcopy_calls for d in first), "count"),
            "gvm.continuations.self_s": (self_s("gvm.continuations"), "s"),
            "vinz.persistence.encodes": (count("FiberCodec.dumps"), "count"),
            "vinz.persistence.encode_s": (
                self_s("vinz.persistence.encode"), "s"),
            "vinz.persistence.decodes": (count("FiberCodec.loads"), "count"),
            "vinz.persistence.decode_s": (
                self_s("vinz.persistence.decode"), "s"),
            "vinz.persistence.blob_bytes": (
                sum(d.trace.blob_bytes for d in first), "B"),
            "vinz.cache.hit_rate_mutable": (hit_rate("mutable"), "ratio"),
            "vinz.cache.hit_rate_immutable": (hit_rate("immutable"), "ratio"),
            "vinz.recovery.scans": (total("recovery.scans"), "count"),
            "vinz.recovery.fibers_reawakened": (
                total("recovery.fibers_reawakened"), "count"),
            "vinz.recovery.latency_max_vs": (
                max(d.stats["recovery.max_latency"] for d in first), "vs"),
            "bluebox.store.writes": (total("store.writes"), "count"),
            "bluebox.store.reads": (total("store.reads"), "count"),
            "bluebox.store.self_s": (self_s("bluebox.store"), "s"),
            "bluebox.locks.lease_renewals": (total("locks.renewed"), "count"),
            "bluebox.locks.leases_expired": (total("locks.expired"), "count"),
            "bluebox.locks.self_s": (self_s("bluebox.locks"), "s"),
            "bluebox.clock.events": (total("kernel.events"), "count"),
            "bluebox.clock.self_s": (self_s("bluebox.clock"), "s"),
            "bluebox.messagequeue.redelivered": (
                total("queue.redelivered"), "count"),
            "bluebox.messagequeue.wait_p95_vs": (statistics.median(
                d.stats["queue.wait_p95"] for d in first), "vs"),
            "durastore.journal.flushes": (total("journal.flushes"), "count"),
            "durastore.journal.bytes_appended": (
                total("journal.bytes_appended"), "B"),
            "durastore.commit_s": (self_s("durastore"), "s"),
            "history.events": (total("history.events"), "count"),
            "history.batches_written": (
                total("history.batches_written"), "count"),
            "history.log_bytes": (total("history.log_bytes"), "B"),
            "history.append_s": (self_s("history"), "s"),
            "trace.overhead_share": (
                self.panel_host_s(True) / untraced_host - 1.0, "share"),
        }

    def host_shares(self):
        """Each layer's share of the traced rounds' host time."""
        traced = self.days(True)
        host = self.panel_host_s(True)
        layers = sorted({layer for days in traced for d in days
                         for layer in d.trace.self_s if layer != "lang"})
        return {layer: statistics.median(
            sum(d.trace.self_s[layer] for d in days) for days in traced) / host
            for layer in layers}


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    results = {}
    for name in names:
        run = Run(workloads.WORKLOADS[name], args.seed, args.seconds,
                  bool(args.trace))
        metrics = run.per_layer() if args.trace else \
            run.end_to_end(setup_seconds(name, run.seeds[0]))
        shown = dict(metrics)
        if not args.trace:
            shown.update(run.reported())
        for metric, (value, unit) in shown.items():
            print(f"{name:18s} {metric:34s} {value:14.6g} {unit}")
        if args.trace:
            for layer, share in run.host_shares().items():
                print(f"{name:18s} share of host time  {layer:24s} "
                      f"{share:8.2%}")
        for s, key, want, got in run.nondeterministic:
            print(f"{name}: day seed {s}: {key} was {want}, then {got}",
                  file=sys.stderr)
        results[name] = (run, metrics)

    attempted = sum(run.attempted for run, _ in results.values())
    failed = sum(run.failures for run, _ in results.values())
    prefix = len(results) > 1
    metrics = {(f"{name}.{metric}" if prefix else metric):
               {"value": value, "unit": unit}
               for name, (_run, named) in results.items()
               for metric, (value, unit) in named.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
