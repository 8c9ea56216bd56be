"""Experiment S4a — Section 4.2's serialization findings.

Three claims to reproduce in shape:

1. "compressing the serialized data before writing it to NFS was a net
   win by reducing IO costs considerably" — compressed blob IO time +
   compression CPU < raw blob IO time, under the store's cost model;
2. "plain deflate can be made to perform approximately 30% better than
   the more robust and space-efficient gzip format" — raw-deflate at a
   light level encodes meaningfully faster than full gzip framing at
   its robust level, at comparable sizes;
3. the custom format (program objects by reference) stores fibers in
   far fewer bytes than generic serialization.
"""

import time

import pytest

from repro.bluebox.store import SharedStore
from repro.gvm.continuations import materialize
from repro.gvm.frames import GozerFunction
from repro.gvm.runtime import make_runtime
from repro.harness.reporting import ratio_check, table
from repro.vinz.persistence import (
    CodeRegistry,
    FiberCodec,
    HostFunctionRegistry,
)

PROGRAM = """
(defun helper-a (x) (* x 17))
(defun helper-b (x) (+ (helper-a x) 3))
(defun busy-work (items)
  (let ((table (make-hash-table))
        (acc (list)))
    (dolist (item items)
      (setf (gethash item table) (helper-b item))
      (append! acc (list item (helper-b item) "intermediate state")))
    (yield :checkpoint)
    (list acc (hash-count table))))
"""


def realistic_continuation():
    """A captured continuation of a program with real data on board."""
    rt = make_runtime(deterministic=True)
    rt.eval_string(PROGRAM)
    result = rt.start("(busy-work (loop for i from 0 below 120 collect i))")
    registry = CodeRegistry()
    hosts = HostFunctionRegistry()
    for name, value in rt.global_env.variables.items():
        if isinstance(value, GozerFunction):
            registry.register_tree(value.code)
        elif callable(value):
            hosts.register(name.name, value)
    return rt, result.continuation, registry, hosts


def measure(codec_name, continuation, registry, hosts, repeats=30):
    codec = FiberCodec(codec_name, registry=registry, hosts=hosts)
    blob = codec.dumps(continuation)
    t0 = time.perf_counter()
    for _ in range(repeats):
        codec.dumps(continuation)
    encode_s = (time.perf_counter() - t0) / repeats
    t0 = time.perf_counter()
    for _ in range(repeats):
        state = codec.loads(blob)
        if codec_name == "custom":  # it unpickles at resume instead
            materialize(state)
    decode_s = (time.perf_counter() - t0) / repeats
    return {"bytes": len(blob), "encode_s": encode_s, "decode_s": decode_s}


@pytest.fixture(scope="module")
def payload():
    return realistic_continuation()


def test_codec_comparison(benchmark, payload, bench_report):
    rt, continuation, registry, hosts = payload
    deflate_codec = FiberCodec("deflate", registry=registry, hosts=hosts)
    benchmark(lambda: deflate_codec.dumps(continuation))

    results = {name: measure(name, continuation, registry, hosts)
               for name in ("none", "gzip", "deflate", "custom")}

    store = SharedStore()  # the NFS cost model
    rows = []
    for name, metrics in results.items():
        io_s = store.cost(int(metrics["bytes"]))
        rows.append((name, int(metrics["bytes"]),
                     metrics["encode_s"] * 1e3,
                     metrics["decode_s"] * 1e3,
                     io_s * 1e3,
                     (metrics["encode_s"] + io_s) * 1e3))
    lines = [table(
        "Section 4.2 — fiber serialization codecs "
        "(realistic captured continuation)",
        ["codec", "bytes", "encode ms", "decode ms",
         "NFS IO ms (model)", "total write ms"],
        rows)]

    none_total = results["none"]["encode_s"] + store.cost(int(results["none"]["bytes"]))
    deflate_total = results["deflate"]["encode_s"] + store.cost(int(results["deflate"]["bytes"]))
    gzip_encode = results["gzip"]["encode_s"]
    deflate_encode = results["deflate"]["encode_s"]
    speedup = (gzip_encode - deflate_encode) / gzip_encode * 100

    lines.append("")
    lines.append("Paper claims (shape checks):")
    lines.append(ratio_check(
        "compression is a net win (deflate total / raw total < 1)",
        deflate_total / none_total, 0.5, tolerance=1.0))
    lines.append(
        f"   deflate encodes {speedup:.0f}% faster than gzip "
        "(paper: ~30% better)")
    lines.append(ratio_check(
        "custom format size vs deflate",
        results["custom"]["bytes"] / results["deflate"]["bytes"],
        0.4, tolerance=1.0))
    bench_report("serialization_codecs", "\n".join(lines))

    # hard shape assertions
    assert results["deflate"]["bytes"] < results["none"]["bytes"]
    assert deflate_total < none_total, "compression must be a net win"
    assert deflate_encode < gzip_encode, "raw deflate must beat gzip CPU"
    assert results["custom"]["bytes"] < results["deflate"]["bytes"]

    # round-trip correctness for every codec
    for name in ("none", "gzip", "deflate", "custom"):
        codec = FiberCodec(name, registry=registry, hosts=hosts)
        restored = codec.loads(codec.dumps(continuation))
        done = rt.resume(restored, None)
        assert done.value[1] == 120


def test_decode_benchmark(benchmark, payload):
    """Reconstituting a fiber 'is still relatively slow' — this is the
    cost the fiber cache (S4b) exists to avoid."""
    _rt, continuation, registry, hosts = payload
    codec = FiberCodec("custom", registry=registry, hosts=hosts)
    blob = codec.dumps(continuation)
    benchmark(lambda: codec.loads(blob))
