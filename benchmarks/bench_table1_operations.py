"""Experiment T1 — Table 1: the Vinz service operations.

Exercises all eight operations and reports each one's behaviour and
client-observed virtual-time latency, regenerating Table 1 with a
"measured" column.
"""

import pytest

from repro.bluebox.messagequeue import ReplyTo
from repro.harness.reporting import table
from repro.vinz.api import VinzEnvironment

WORKFLOW = """
(deflink EC :wsdl "urn:echo-service")

(defun main (params)
  (let ((child (fork-and-exec (lambda (x) (* x x)) :argument 6)))
    (let ((mapped (for-each (x in (list 1 2)) (+ x 10)))
          (echoed (EC-Echo-Method :X 1)))   ; exercises ResumeFromCall
      (list (join-process child) mapped (or params 0)))))
"""

SLOW_WORKFLOW = """
(defun main (params) (workflow-sleep 1000) :late)
"""


def fresh_env():
    from repro.bluebox.services import simple_service

    env = VinzEnvironment(nodes=4, seed=101)
    env.deploy_service(simple_service(
        "Echo", {"Echo": lambda ctx, body: body.get("X")},
        namespace="urn:echo-service", parameters={"Echo": ["X"]}))
    env.deploy_workflow("WF", WORKFLOW)
    env.deploy_workflow("Slow", SLOW_WORKFLOW)
    return env


def run_all_operations(env):
    """One pass that causes every Table 1 operation to execute."""
    measurements = {}

    t0 = env.cluster.kernel.now
    task_id = env.start("WF", 5)          # Start
    measurements["Start"] = env.cluster.kernel.now - t0

    t0 = env.cluster.kernel.now
    env.wait_for_task(task_id)            # drives RunFiber/Awake/Join
    measurements["RunFiber"] = env.cluster.kernel.now - t0

    t0 = env.cluster.kernel.now
    env.run("WF", 5)                      # Run
    measurements["Run"] = env.cluster.kernel.now - t0

    t0 = env.cluster.kernel.now
    result = env.call("WF", 5)            # Call
    measurements["Call"] = env.cluster.kernel.now - t0
    assert result == [36, [11, 12], 5]

    t0 = env.cluster.kernel.now
    slow_task = env.start("Slow", None)
    env.terminate(slow_task)              # Terminate
    measurements["Terminate"] = env.cluster.kernel.now - t0
    return measurements


def test_table1_all_operations(benchmark, bench_report):
    measurements = benchmark(lambda: run_all_operations(fresh_env()))

    env = fresh_env()
    run_all_operations(env)
    counts = {op: env.metrics.get(f"op.WF.{op}")
              for op in ("Start", "Run", "Call", "Terminate", "RunFiber",
                         "AwakeFiber", "ResumeFromCall", "JoinProcess")}
    counts["Terminate"] = env.metrics.get("op.Slow.Terminate")
    counts["Start"] += env.metrics.get("op.Slow.Start")

    wsdl = env.cluster.get_wsdl("WF")
    rows = []
    for op_name in ("Start", "Run", "Call", "Terminate", "RunFiber",
                    "AwakeFiber", "ResumeFromCall", "JoinProcess"):
        rows.append((
            op_name,
            wsdl.operations[op_name].doc,
            counts.get(op_name, 0),
            f"{measurements.get(op_name, 0) * 1000:.1f} ms (virt)"
            if op_name in measurements else "-",
        ))
    bench_report("table1_operations", table(
        "Table 1 — Vinz Service Operations (reproduced)",
        ["Operation", "Description (from WSDL)", "invocations", "latency"],
        rows))

    # every operation actually ran
    for op_name in ("Start", "RunFiber", "AwakeFiber", "JoinProcess"):
        assert counts[op_name] >= 1, op_name


def test_table1_wsdl_is_complete():
    env = fresh_env()
    wsdl = env.cluster.get_wsdl("WF")
    table1 = {"Start", "Run", "Call", "Terminate", "RunFiber",
              "AwakeFiber", "ResumeFromCall", "JoinProcess"}
    assert table1 <= set(wsdl.operations)
    # anything extra is a documented extension operation
    assert set(wsdl.operations) - table1 <= {"DeliverMessage"}
