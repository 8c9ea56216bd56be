"""Continuation ownership under Vinz: a continuation is its pickle.

The fiber cache holds continuations that never change, so a window that
resumed a cached continuation and then aborted leaves nothing behind:
its retry resumes the same entry and gets the pre-window result.  And
the custom codec writes a continuation's captured bytes as they are.
"""

import zlib

import pytest

from repro.faults import (
    CRASH,
    FAIL_WRITE,
    FaultInjector,
    FaultPlan,
    NodeFault,
    StoreFault,
)
from repro.faults.campaign import data_service
from repro.gvm.continuations import Continuation
from repro.lang.symbols import Keyword
from repro.vinz.api import VinzEnvironment
from repro.vinz.persistence import DeserializationError

#: every service call suspends the fiber; ``acc`` is mutated in place
#: after each resume, so a retry that saw an aborted window's state
#: would return extra elements
WORKFLOW = """
(deflink DS :wsdl "urn:campaign-data")

(defun main (items)
  (let ((acc (list)))
    (dolist (x items)
      (append! acc (DS-Lookup-Method :Key x)))
    acc))
"""

ITEMS = [1, 2, 3, 4]
EXPECTED = [10, 20, 30, 40]


def _env(plan=None):
    env = VinzEnvironment(nodes=1, seed=3)
    env.deploy_service(data_service())
    env.deploy_workflow("W", WORKFLOW)
    injector = FaultInjector(3, plan).install(env) if plan else None
    return env, injector


class TestAbortedWindowOnCacheHit:
    @pytest.mark.parametrize("fault, injected", [
        # the node dies right after persisting the window's suspension
        (NodeFault(CRASH, on_persist=2, restart_after=1.0),
         "crash-on-persist"),
        # the suspension's write fails: the node (and its cache) lives
        (StoreFault(FAIL_WRITE, key_prefix="fiber-state/", nth=2),
         FAIL_WRITE),
    ])
    def test_retry_on_same_node_returns_pre_window_result(self, fault,
                                                          injected):
        env, injector = _env(FaultPlan([fault], name="abort-on-hit"))
        assert env.call("W", ITEMS) == EXPECTED
        assert injector.injected.get(injected) == 1
        # the aborted window (the second) resumed from a cache hit
        assert env.counters.get("cache.mutable.hit") >= 1

    def test_retry_after_failed_write_reuses_the_cached_entry(self):
        env, _ = _env(FaultPlan([StoreFault(FAIL_WRITE,
                                            key_prefix="fiber-state/",
                                            nth=2)]))
        clean, _ = _env()
        assert env.call("W", ITEMS) == clean.call("W", ITEMS)
        # one more hit than the clean run: the retry resumed the very
        # entry the aborted window had resumed
        assert env.counters.get("cache.mutable.hit") \
            == clean.counters.get("cache.mutable.hit") + 1


class TestCodecFramesTheCapture:
    def _suspended(self):
        env, _ = _env()
        service = env.workflows["W"]
        result = service.runtime.start("(list :a (yield :x))")
        return service, result.continuation

    def test_custom_dumps_is_registry_pickle_of_decoded_state(self):
        service, continuation = self._suspended()
        assert continuation.table is service.codec.table
        blob = service.codec.dumps(continuation)
        # a by-value copy: the decoded state, not the captured bytes
        decoded = Continuation.__new__(Continuation)
        decoded.__setstate__(continuation.__getstate__())
        assert decoded.payload is None
        assert blob == service.codec.dumps(decoded)
        assert zlib.decompress(blob[5:]) \
            == service.codec.table.dumps(decoded)

    def test_loaded_continuation_is_payload_backed(self):
        service, continuation = self._suspended()
        loaded = service.codec.loads(service.codec.dumps(continuation))
        assert loaded.payload == continuation.payload
        assert service.runtime.resume(loaded, 7).value == [Keyword("a"), 7]

    def test_corrupt_payload_fails_closed_before_running(self):
        service, continuation = self._suspended()
        codec = service.codec
        # damage the pickle after its header, then re-frame it intact
        payload = bytearray(continuation.payload)
        payload[len(payload) // 2:] = b"\xff" * (len(payload)
                                                 - len(payload) // 2)
        damaged = Continuation(bytes(payload), codec.table)
        blob = codec.dumps(damaged)
        loaded = codec.loads(blob, fiber_id="fiber-7")
        vm = service.runtime.new_vm(allow_yield=True)
        with pytest.raises(DeserializationError) as exc:
            vm.resume(loaded, 1)
        assert "fiber=fiber-7" in str(exc.value)
        assert "codec=custom" in str(exc.value)
        assert vm.instruction_count == 0
