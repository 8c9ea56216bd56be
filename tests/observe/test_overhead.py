"""Tracing must be zero-cost when disabled: a traced-off run creates no
spans and allocates no per-message span state.  Metrics stay on."""

from repro.bluebox.services import simple_service
from repro.vinz.api import VinzEnvironment
from repro.vinz.persistence import FiberCodec

WORKFLOW = """
(deflink SVC :wsdl "urn:overhead-svc")

(defun main (items)
  (apply #'+ (for-each (x in items)
               (+ x (SVC-Echo-Method :Value x)))))
"""


def build_env(**kwargs):
    env = VinzEnvironment(nodes=3, seed=31, **kwargs)

    def echo(ctx, body):
        ctx.charge(0.1)
        return body.get("Value", 0)

    env.deploy_service(simple_service("Overhead", {"Echo": echo},
                                      namespace="urn:overhead-svc",
                                      parameters={"Echo": ["Value"]}))
    env.deploy_workflow("Over", WORKFLOW)
    return env


def test_disabled_run_creates_no_spans():
    env = build_env(trace=False)
    task_id = env.run("Over", [1, 2, 3])
    assert env.registry.tasks[task_id].result == 12

    assert not env.tracer.enabled
    assert env.tracer.spans_created == 0
    assert env.tracer.spans() == []
    # no span ids leaked into fiber records either
    assert all(f.span_id == 0 for f in env.registry.fibers.values())
    assert all(t.span_id == 0 for t in env.registry.tasks.values())


def test_untraced_run_records_metrics(monkeypatch):
    # an independent count of encodes to hold the histogram against
    encodes = []
    dumps = FiberCodec.dumps

    def counting_dumps(codec, state):
        encodes.append(codec)
        return dumps(codec, state)

    monkeypatch.setattr(FiberCodec, "dumps", counting_dumps)
    env = build_env(trace=False)
    env.run("Over", [1, 2, 3])
    assert env.counters is env.metrics
    snapshot = env.metrics.snapshot()
    assert snapshot["counters"] and snapshot["histograms"]
    # every delivery and every encode observed exactly once
    histograms = snapshot["histograms"]
    assert histograms["queue.wait"]["count"] == env.cluster.queue.delivered
    assert encodes
    assert histograms["codec.encode_bytes"]["count"] == len(encodes)
    assert env.metrics.gauge("tasks.in_flight").peak == 1
