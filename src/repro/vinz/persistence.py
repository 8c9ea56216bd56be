"""Fiber persistence: serialization and compression (paper Section 4.2).

"Vinz writes a fiber's state and data using Java serialization, with
many customizations for efficiency" — here, pickle with the same three
optimizations the paper reports:

1. **Compression before writing**: "compressing the serialized data
   before writing it to NFS was a net win by reducing IO costs
   considerably".
2. **Raw deflate over gzip**: "plain deflate can be made to perform
   approximately 30% better than the more robust and space-efficient
   gzip format".  ``deflate`` here is raw zlib with no gzip header or
   CRC32 trailer, at a lighter compression level; ``gzip`` uses the
   full gzip framing at its default level — the same robustness-for-
   speed trade the paper describes.
3. **A custom format for the most commonly serialized objects**: the
   dominant payload in a fiber snapshot is *program code* (CodeObjects)
   and interned symbols, which never change after load.  The custom
   codec pickles them by reference into the runtime's
   :class:`~repro.gvm.registry.ProgramTable` instead of by value, the
   way the paper's custom format special-cases its hottest object
   types.

Serialized blobs are framed ``b"GZR1" + codec byte + payload`` so any
node can decode a blob written with any codec.  A continuation already
*is* its custom-format pickle, so the custom codec frames it as is and
loads it back without unpickling; the by-value codecs re-pickle it.
"""

from __future__ import annotations

import functools
import gzip
import struct
import zlib
from typing import Any, Dict, List, Optional, Tuple

from ..bluebox.store import StoreError
from ..gvm.continuations import Continuation, is_continuation_pickle
from ..gvm.registry import (
    DECODE_ERRORS,
    CodeRegistry,
    HostFunctionRegistry,
    ProgramTable,
)

MAGIC = b"GZR1"


class DeserializationError(StoreError, ValueError):
    """A persisted fiber blob failed to decode.

    Carries the fiber id and the codec (when known), and names the blob
    format, so a dead-letter report names *which* fiber's state is
    undecodable instead of surfacing a bare ``zlib.error`` — the latent
    bug class this hierarchy fixes.  A :class:`~repro.bluebox.store.StoreError`
    so detection mid-fiber aborts the operation window for a
    policy-driven retry; also a :class:`ValueError` for callers probing
    blobs directly.
    """

    tunnels_through_vm = True

    def __init__(self, message: str, fiber_id: Optional[str] = None,
                 codec: Optional[str] = None):
        detail = []
        if fiber_id is not None:
            detail.append(f"fiber={fiber_id}")
        detail.append("format=v1")
        if codec is not None:
            detail.append(f"codec={codec}")
        super().__init__(f"{message} ({', '.join(detail)})")
        self.fiber_id = fiber_id
        self.codec = codec

    def __str__(self) -> str:  # StoreError is a KeyError; avoid repr quoting
        return self.args[0]


class SnapshotFormatError(DeserializationError):
    """The blob's *framing* is not one this deployment can read: not a
    fiber blob at all (wrong magic), or an unknown codec byte."""

CODEC_NONE = b"N"
CODEC_GZIP = b"G"
CODEC_DEFLATE = b"D"
CODEC_CUSTOM = b"C"

#: raw-deflate compression level: lighter than gzip's default 9-ish
#: work factor; this is where the ~30% CPU savings come from.
DEFLATE_LEVEL = 3
GZIP_LEVEL = 9


class FiberCodec:
    """Encodes/decodes fiber state blobs with a selectable codec.

    ``codec`` is one of ``"none" | "gzip" | "deflate" | "custom"``.
    ``custom`` implies the code-registry pickling *plus* raw deflate of
    the (much smaller) remainder.  ``table`` resolves program references
    through ``registry`` and ``hosts``.
    """

    NAMES = {
        "none": CODEC_NONE,
        "gzip": CODEC_GZIP,
        "deflate": CODEC_DEFLATE,
        "custom": CODEC_CUSTOM,
    }

    def __init__(self, codec: str = "deflate",
                 registry: Optional[CodeRegistry] = None,
                 hosts: Optional[HostFunctionRegistry] = None):
        if codec not in self.NAMES:
            raise ValueError(f"unknown codec {codec!r}")
        self.codec = codec
        self.table = ProgramTable(registry, hosts)
        # statistics
        self.encoded = 0
        self.decoded = 0
        self.raw_bytes = 0
        self.stored_bytes = 0
        #: optional MetricsRegistry (repro.observe) for blob-size
        #: histograms; set by the owning WorkflowService
        self.metrics = None

    # -- encode ---------------------------------------------------------

    def dumps(self, state: Any) -> bytes:
        if self.codec == "custom" and type(state) is Continuation \
                and state.table is self.table:
            raw = state.payload  # already this table's custom pickle
        else:
            # every codec pickles host functions by reference (they are
            # program, not state); only `custom` also refs CodeObjects
            raw = self.table.dumps(state, ref_code=(self.codec == "custom"))
        if self.codec == "none":
            payload = raw
        elif self.codec == "gzip":
            payload = gzip.compress(raw, compresslevel=GZIP_LEVEL)
        else:  # deflate and custom
            payload = zlib.compress(raw, DEFLATE_LEVEL)
        self.encoded += 1
        self.raw_bytes += len(raw)
        blob = MAGIC + self.NAMES[self.codec] + payload
        self.stored_bytes += len(blob)
        if self.metrics is not None and self.metrics.enabled:
            from ..observe.metrics import DEFAULT_SIZE_BUCKETS
            self.metrics.histogram(
                "codec.encode_bytes",
                buckets=DEFAULT_SIZE_BUCKETS).observe(len(blob))
        return blob

    # -- decode ---------------------------------------------------------

    def loads(self, blob: bytes, fiber_id: Optional[str] = None) -> Any:
        if blob[:4] != MAGIC:
            raise SnapshotFormatError("not a Gozer fiber blob",
                                      fiber_id=fiber_id)
        codec = blob[4:5]
        payload = blob[5:]
        codec_name = next(
            (name for name, byte in self.NAMES.items() if byte == codec),
            None)
        if codec_name is None:
            raise SnapshotFormatError(f"unknown codec byte {codec!r}",
                                      fiber_id=fiber_id)
        try:
            if codec == CODEC_NONE:
                raw = payload
            elif codec == CODEC_GZIP:
                raw = gzip.decompress(payload)
            else:  # deflate and custom
                raw = zlib.decompress(payload)
        except (zlib.error, gzip.BadGzipFile, EOFError, OSError) as exc:
            raise DeserializationError(
                f"fiber blob failed to decompress: {exc}",
                fiber_id=fiber_id, codec=codec_name) from exc
        if codec == CODEC_CUSTOM and is_continuation_pickle(raw):
            # decoded when resumed; a damaged payload fails there, as
            # the same typed error, before any instruction runs
            state = Continuation(raw, self.table, functools.partial(
                _decode_failure, fiber_id=fiber_id, codec_name=codec_name))
        else:
            state = self.deserialize_state(raw, fiber_id=fiber_id,
                                           codec_name=codec_name)
        self.decoded += 1
        if self.metrics is not None and self.metrics.enabled:
            from ..observe.metrics import DEFAULT_SIZE_BUCKETS
            self.metrics.histogram(
                "codec.decode_bytes",
                buckets=DEFAULT_SIZE_BUCKETS).observe(len(blob))
        return state

    # -- the raw (uncompressed, unframed) layer ---------------------------

    def deserialize_state(self, raw: bytes, fiber_id: Optional[str] = None,
                          codec_name: Optional[str] = None) -> Any:
        """Deserialize raw pickled state, converting every decode
        failure into a typed :class:`DeserializationError` that names
        the fiber and format (never a swallowed ``UnpicklingError``)."""
        try:
            return self.table.loads(raw)
        except DECODE_ERRORS as exc:
            raise _decode_failure(exc, fiber_id, codec_name) from exc


def _decode_failure(exc: BaseException, fiber_id: Optional[str],
                    codec_name: Optional[str]) -> DeserializationError:
    return DeserializationError(
        f"fiber state failed to deserialize: {type(exc).__name__}: {exc}",
        fiber_id=fiber_id, codec=codec_name)


#: CRC frame layout: magic + u32 payload length + u32 crc32(payload)
_FRAME_HEADER = struct.Struct("<II")


def crc_frame(payload: bytes, magic: bytes) -> bytes:
    """Wrap ``payload`` in a length+CRC frame.

    The durable store's write-ahead journal and checkpoints persist
    through these frames: a torn tail (a write cut short by a crash)
    is detectable — the length or the checksum will not line up — so
    replay can drop exactly the uncommitted suffix.
    """
    return (magic + _FRAME_HEADER.pack(len(payload),
                                       zlib.crc32(payload) & 0xFFFFFFFF)
            + payload)


def parse_crc_frames(data: bytes, magic: bytes,
                     offset: int = 0) -> Tuple[List[bytes], int, Optional[str]]:
    """Parse consecutive CRC frames from ``data`` starting at ``offset``.

    Returns ``(payloads, good_offset, tail_error)``: every frame that
    passed its check, the offset just past the last good frame, and —
    when the stream ends in a torn or corrupt record — a short reason
    string (``None`` for a clean tail).  Frames after a bad one are
    never trusted: a torn record means the writer died there.
    """
    payloads: List[bytes] = []
    header_len = len(magic) + _FRAME_HEADER.size
    while offset < len(data):
        header = data[offset:offset + header_len]
        if len(header) < header_len:
            return payloads, offset, "torn-header"
        if header[:len(magic)] != magic:
            return payloads, offset, "bad-magic"
        length, crc = _FRAME_HEADER.unpack(header[len(magic):])
        start = offset + header_len
        payload = data[start:start + length]
        if len(payload) < length:
            return payloads, offset, "torn-payload"
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return payloads, offset, "crc-mismatch"
        payloads.append(payload)
        offset = start + length
    return payloads, offset, None


def blob_codec_name(blob: bytes) -> str:
    """Identify which codec produced ``blob``."""
    if blob[:4] != MAGIC:
        raise SnapshotFormatError("not a Gozer fiber blob")
    for name, byte in FiberCodec.NAMES.items():
        if blob[4:5] == byte:
            return name
    raise SnapshotFormatError(f"unknown codec byte {blob[4:5]!r}")


def compare_codecs(state: Any, registry: Optional[CodeRegistry] = None,
                   repeats: int = 1) -> Dict[str, Dict[str, float]]:
    """Measure each codec on ``state``: size and encode/decode wall time.

    The raw material of benchmark S4a; also used by tests to assert the
    size ordering (custom < deflate ≈ gzip < none).
    """
    import time

    results: Dict[str, Dict[str, float]] = {}
    for codec_name in FiberCodec.NAMES:
        codec = FiberCodec(codec_name, registry=registry)
        t0 = time.perf_counter()
        for _ in range(repeats):
            blob = codec.dumps(state)
        t1 = time.perf_counter()
        for _ in range(repeats):
            codec.loads(blob)
        t2 = time.perf_counter()
        results[codec_name] = {
            "bytes": float(len(blob)),
            "encode_s": (t1 - t0) / repeats,
            "decode_s": (t2 - t1) / repeats,
        }
    return results
