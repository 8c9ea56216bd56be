"""Fiber persistence codec tests (paper Section 4.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bluebox.store import StoreError
from repro.gvm.runtime import make_runtime
from repro.observe import MetricsRegistry
from repro.vinz.persistence import (
    MAGIC,
    CodeRegistry,
    DeserializationError,
    FiberCodec,
    HostFunctionRegistry,
    SnapshotFormatError,
    blob_codec_name,
    compare_codecs,
)


@pytest.fixture(params=["none", "gzip", "deflate", "custom"])
def codec(request):
    return FiberCodec(request.param)


SAMPLE_STATES = [
    {"a": 1, "b": [1, 2, 3], "c": "text" * 10},
    list(range(100)),
    {"nested": {"deep": {"deeper": [None, True, 2.5]}}},
]


class TestRoundTrip:
    @pytest.mark.parametrize("state", SAMPLE_STATES)
    def test_dumps_loads(self, codec, state):
        assert codec.loads(codec.dumps(state)) == state

    def test_blob_framed_with_magic(self, codec):
        blob = codec.dumps({"x": 1})
        assert blob[:4] == b"GZR1"

    def test_codec_name_identifiable(self, codec):
        blob = codec.dumps([1])
        assert blob_codec_name(blob) == codec.codec

    def test_any_codec_decodes_any_blob(self):
        """Blobs are self-describing: a deflate-configured node can read
        a gzip blob another node wrote."""
        registry = CodeRegistry()
        hosts = HostFunctionRegistry()
        writer = FiberCodec("gzip", registry=registry, hosts=hosts)
        reader = FiberCodec("deflate", registry=registry, hosts=hosts)
        assert reader.loads(writer.dumps([1, 2])) == [1, 2]

    def test_bad_blob_rejected(self, codec):
        with pytest.raises(ValueError):
            codec.loads(b"NOPE" + b"x" * 10)

    def test_unknown_codec_name_rejected(self):
        with pytest.raises(ValueError):
            FiberCodec("zstd")

    def test_statistics(self, codec):
        metrics = MetricsRegistry()
        codec = FiberCodec(codec.codec, metrics=metrics)
        codec.dumps([1, 2, 3])
        codec.loads(codec.dumps([4]))
        assert metrics.histogram("codec.encode_bytes").count == 2
        assert metrics.histogram("codec.decode_bytes").count == 1
        assert codec.raw_bytes > 0
        assert codec.stored_bytes > 0


def _continuation_state():
    """A realistic payload: a captured continuation of a real program."""
    rt = make_runtime(deterministic=True)
    rt.eval_string("""
        (defun helper (x) (* x 2))
        (defun work (items)
          (let ((acc (list)))
            (dolist (item items)
              (append! acc (helper item)))
            (yield :checkpoint)
            acc))""")
    result = rt.start("(work (list 1 2 3 4 5 6 7 8 9 10))")
    return rt, result.continuation


class TestContinuationPayloads:
    def test_every_codec_round_trips_a_continuation(self):
        rt, continuation = _continuation_state()
        registry = CodeRegistry()
        hosts = HostFunctionRegistry()
        from repro.gvm.frames import GozerFunction

        for name, value in rt.global_env.variables.items():
            if isinstance(value, GozerFunction):
                registry.register_tree(value.code)
            elif callable(value):
                hosts.register(name.name, value)
        for codec_name in FiberCodec.NAMES:
            codec = FiberCodec(codec_name, registry=registry, hosts=hosts)
            restored = codec.loads(codec.dumps(continuation))
            done = rt.resume(restored, None)
            assert done.value == [2, 4, 6, 8, 10, 12, 14, 16, 18, 20], codec_name

    def test_compression_shrinks_blobs(self):
        """Section 4.2: compression is worth it — the blob is much
        smaller than the raw serialization."""
        rt, continuation = _continuation_state()
        sizes = {}
        for codec_name in ("none", "gzip", "deflate"):
            codec = FiberCodec(codec_name)
            sizes[codec_name] = len(codec.dumps(continuation))
        assert sizes["deflate"] < sizes["none"]
        assert sizes["gzip"] < sizes["none"]

    def test_custom_format_smallest(self):
        """The custom format (code by reference) beats plain deflate,
        like the paper's custom serialization for common objects."""
        rt, continuation = _continuation_state()
        registry = CodeRegistry()
        from repro.gvm.frames import GozerFunction

        for value in rt.global_env.variables.values():
            if isinstance(value, GozerFunction):
                registry.register_tree(value.code)
        deflate = FiberCodec("deflate")
        custom = FiberCodec("custom", registry=registry)
        assert len(custom.dumps(continuation)) < len(deflate.dumps(continuation))


class TestCodeRegistry:
    def test_register_idempotent(self):
        from repro.lang.bytecode import CodeObject

        registry = CodeRegistry()
        code = CodeObject("f")
        k1 = registry.register(code)
        k2 = registry.register(code)
        assert k1 == k2
        assert registry.lookup(k1) is code
        assert len(registry) == 1

    def test_register_tree_includes_nested(self):
        from repro.lang.compiler import Compiler
        from repro.lang.reader import read_string

        code = Compiler().compile_toplevel(
            read_string("(lambda (x) (lambda (y) (+ x y)))"))
        registry = CodeRegistry()
        registry.register_tree(code)
        assert len(registry) == 3

    def test_key_for_unknown_is_none(self):
        from repro.lang.bytecode import CodeObject

        assert CodeRegistry().key_for(CodeObject("x")) is None


class TestHostFunctionRegistry:
    def test_register_lookup(self):
        hosts = HostFunctionRegistry()
        fn = lambda: 1  # noqa: E731
        hosts.register("f", fn)
        assert hosts.key_for(fn) == "f"
        assert hosts.lookup("f") is fn
        assert len(hosts) == 1

    def test_unregistered_function_pickled_by_value_fails_for_locals(self):
        """A local closure NOT in the registry can't be pickled — the
        registry is what makes fiber blobs with intrinsic references
        work."""
        import pickle

        codec = FiberCodec("deflate")

        def local_fn():
            return 1

        with pytest.raises(Exception):
            codec.dumps({"fn": local_fn})


class TestCompareCodecs:
    def test_reports_all_codecs(self):
        results = compare_codecs({"x": list(range(200))})
        assert set(results) == {"none", "gzip", "deflate", "custom"}
        for metrics in results.values():
            assert metrics["bytes"] > 0
            assert metrics["encode_s"] >= 0
            assert metrics["decode_s"] >= 0

    def test_compressed_smaller_than_raw(self):
        results = compare_codecs({"x": ["repetitive data"] * 500})
        assert results["deflate"]["bytes"] < results["none"]["bytes"]
        assert results["gzip"]["bytes"] < results["none"]["bytes"]


# -- fail-closed decoding ---------------------------------------------------
#
# Every decode failure surfaces as a DeserializationError naming the
# fiber id, the format and (where known) the codec, and tunnels through
# the VM boundary like other store errors so the retry/dead-letter
# machinery sees it — never a bare UnpicklingError or zlib.error.

STATE = {"stack": list(range(50)), "label": "suspend-3"}


class TestErrorContext:
    def test_truncated_pickle_names_fiber_and_format(self):
        codec = FiberCodec("none")
        blob = codec.dumps(STATE)
        with pytest.raises(DeserializationError) as exc:
            codec.loads(blob[:-7], fiber_id="fiber-0017")
        message = str(exc.value)
        assert "fiber-0017" in message
        assert "format=v1" in message
        assert "codec=none" in message

    def test_corrupt_compressed_payload_names_codec(self):
        for codec_name in ("gzip", "deflate", "custom"):
            codec = FiberCodec(codec_name)
            blob = codec.dumps(STATE)
            damaged = blob[:5] + b"\x00garbage\xff" + blob[10:]
            with pytest.raises(DeserializationError) as exc:
                codec.loads(damaged, fiber_id="f2")
            assert f"codec={codec_name}" in str(exc.value)
            assert "f2" in str(exc.value)

    def test_unknown_codec_byte_is_typed(self):
        codec = FiberCodec("deflate")
        blob = MAGIC + b"?" + b"whatever"
        with pytest.raises(SnapshotFormatError) as exc:
            codec.loads(blob, fiber_id="f3")
        assert "f3" in str(exc.value)

    def test_bad_magic_is_typed(self):
        codec = FiberCodec("deflate")
        with pytest.raises(SnapshotFormatError):
            codec.loads(b"NOPE" + b"D" + b"x", fiber_id="f4")

    def test_error_chains_original_cause(self):
        codec = FiberCodec("none")
        blob = codec.dumps(STATE)
        with pytest.raises(DeserializationError) as exc:
            codec.loads(blob[:-1], fiber_id="f5")
        assert exc.value.__cause__ is not None

    def test_deserialize_state_wraps_unpickling(self):
        codec = FiberCodec("deflate")
        with pytest.raises(DeserializationError) as exc:
            codec.deserialize_state(b"not a pickle", fiber_id="f6")
        assert "fiber=f6" in str(exc.value)
        assert "format=v1" in str(exc.value)


class TestErrorTyping:
    """The hierarchy the rest of the platform depends on."""

    def test_is_store_error_and_tunnels(self):
        # StoreError → the window aborts, rolls back and retries per
        # the fiber's RetryPolicy instead of poisoning the VM
        assert issubclass(DeserializationError, StoreError)
        err = DeserializationError("x", fiber_id="f")
        assert err.tunnels_through_vm

    def test_is_value_error_for_legacy_callers(self):
        # pre-existing callers catch ValueError on bad blobs; the
        # typed error must remain catchable there
        assert issubclass(DeserializationError, ValueError)
        assert issubclass(SnapshotFormatError, DeserializationError)

    @given(st.binary(max_size=400))
    @settings(max_examples=120, deadline=None)
    def test_no_untyped_escape(self, junk):
        """Whatever bytes arrive at loads(), the only exception that
        may escape is the typed one."""
        codec = FiberCodec("deflate")
        try:
            codec.loads(MAGIC + b"D" + junk, fiber_id="fz")
        except DeserializationError:
            pass  # typed — acceptable

    @given(st.binary(max_size=400))
    @settings(max_examples=120, deadline=None)
    def test_no_untyped_escape_raw_layer(self, junk):
        codec = FiberCodec("none")
        try:
            codec.deserialize_state(junk, fiber_id="fz")
        except DeserializationError:
            pass


class TestRoundTripStillWorks:
    def test_wrapping_does_not_break_good_blobs(self):
        for codec_name in ("none", "gzip", "deflate", "custom"):
            codec = FiberCodec(codec_name)
            assert codec.loads(codec.dumps(STATE), fiber_id="f") == STATE

    def test_loads_without_fiber_id_still_typed(self):
        codec = FiberCodec("none")
        blob = codec.dumps(STATE)
        with pytest.raises(DeserializationError):
            codec.loads(blob[:-3])


class TestBlobFormat:
    def test_v1_blob_roundtrips_through_new_code(self):
        state = {"frames": list(range(200)), "pc": 3}
        for codec_name in ("none", "gzip", "deflate", "custom"):
            codec = FiberCodec(codec_name)
            blob = codec.dumps(state)
            assert blob[:4] == MAGIC
            assert codec.loads(blob, fiber_id="f1") == state

    def test_v1_magic_pinned(self):
        assert MAGIC == b"GZR1"

    def test_retired_chunked_manifest_fails_closed(self):
        """Blobs of the retired chunked-snapshot format (magic
        ``GZS2``) are not fiber blobs: decoding one must fail with a
        typed error naming the fiber, never reach zlib or pickle."""
        blob = b"GZS2" + bytes(40)
        with pytest.raises(SnapshotFormatError) as exc:
            FiberCodec("custom").loads(blob, fiber_id="f9")
        assert "f9" in str(exc.value)
        with pytest.raises(SnapshotFormatError):
            blob_codec_name(blob)

    def test_deploy_accepts_only_v1_snapshots(self):
        from repro.vinz.api import VinzEnvironment

        env = VinzEnvironment(nodes=1, seed=1)
        env.deploy_workflow("V1", "(defun main (p) p)", snapshots="v1")
        with pytest.raises(ValueError):
            env.deploy_workflow("V2", "(defun main (p) p)", snapshots="v2")
