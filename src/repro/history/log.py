"""Durable storage for task histories: CRC-framed batches on the store.

Each committed operation window appends one batch per task under
``history//<task-id>/<n>``.  When the shared store is a durable
(window-capable) store, these writes ride the existing group-commit
journal like any other key — history durability costs no extra fsync
plane.  A batch frame is ``magic + u32 len + u32 crc + payload`` (the
same framing the write-ahead journal uses), so a torn tail — the writer
died inside ``write(2)`` — is *detectable*: the length or checksum will
not line up.

The read side fails closed: any tear, gap or CRC mismatch surfaces as a
typed :exc:`HistoryCorruptionError` subclass rather than a silently
truncated (and therefore wrong) history.  Replay would otherwise happily
rebuild a fiber from half its life and diverge — or worse, not diverge.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, List, Optional

from ..bluebox.store import StoreError
from ..observe.metrics import MetricsRegistry
from ..vinz.persistence import crc_frame, parse_crc_frames
from .recorder import SCHEMA_VERSION, HistoryEvent

#: frame magic for the history plane (journal uses its own)
HISTORY_MAGIC = b"GZH1"


class HistoryLogError(RuntimeError):
    """Base class for history-plane failures."""


class HistoryCorruptionError(HistoryLogError):
    """A history batch failed its integrity check — the stream cannot
    be trusted past this point and replay must not proceed."""

    def __init__(self, task_id: str, batch: int, reason: str):
        super().__init__(f"history of {task_id} corrupt at batch "
                         f"{batch}: {reason}")
        self.task_id = task_id
        self.batch = batch
        self.reason = reason


class TornHistoryError(HistoryCorruptionError):
    """The history's tail batch is torn (crash mid-append)."""


class DroppedBatchError(HistoryCorruptionError):
    """A mid-stream batch is missing (sequence gap) — a dropped write."""


class HistoryLog:
    """Batched, CRC-framed history storage on a shared-store plane."""

    #: batch appends survive this many transient store failures before
    #: the error propagates (history runs in the window's completion
    #: hook, *after* commit — there is no message redelivery left to
    #: retry it, so the append must absorb transient faults itself)
    WRITE_ATTEMPTS = 3

    def __init__(self, store, metrics: Optional[MetricsRegistry] = None):
        self.store = store
        metrics = metrics or MetricsRegistry()
        self._batches = metrics.counter("history.batches")
        self._bytes = metrics.counter("history.bytes")
        self._retries = metrics.counter("history.write_retries")
        #: optional FaultInjector (set by ``FaultInjector.install``):
        #: consulted before every batch write for HistoryFault damage
        self.injector = None
        #: next batch index per task
        self._next_batch: Dict[str, int] = {}

    @staticmethod
    def _key(task_id: str, index: int) -> str:
        return f"history//{task_id}/{index:08d}"

    # -- write side -----------------------------------------------------

    def append_batch(self, task_id: str, events: List[HistoryEvent],
                     codec) -> None:
        """Append one committed window's events for ``task_id``.

        Payloads are serialized through the workflow's fiber codec so
        anything a fiber can hold (GozerFunctions included) round-trips,
        and byte-for-byte deterministically — the property the
        recorder-determinism test pins down.
        """
        encoded = [(e.seq, e.kind, e.fiber, codec.dumps(e.payload))
                   for e in events]
        payload = pickle.dumps((SCHEMA_VERSION, encoded), protocol=4)
        blob = crc_frame(payload, HISTORY_MAGIC)
        index = self._next_batch.get(task_id, 0)
        self._next_batch[task_id] = index + 1
        key = self._key(task_id, index)
        if self.injector is not None:
            blob = self.injector.on_history_write(key, blob)
            if blob is None:
                return  # dropped-batch fault: the write never lands
        # A failed append would leave a permanent gap at this index —
        # read_task fails closed on gaps, so the whole history would be
        # unreplayable over one transient store hiccup.  Other store
        # writes get retried by message redelivery; this one runs after
        # the window committed, so it retries here.  The write is
        # idempotent (same key, same bytes), and a persistent outage
        # still surfaces: the last error propagates.
        for attempt in range(self.WRITE_ATTEMPTS):
            try:
                self.store.write(key, blob)
                break
            except StoreError:
                self._retries.inc()
                if attempt == self.WRITE_ATTEMPTS - 1:
                    raise
        self._batches.inc()
        self._bytes.inc(len(blob))

    # -- read side ------------------------------------------------------

    def read_task(self, task_id: str, codec) -> List[HistoryEvent]:
        """Read and verify the full event stream of one task.

        Fails closed: torn frames, CRC mismatches and sequence gaps all
        raise typed errors.  A gap means a batch was dropped mid-stream;
        a tear means the final append was cut short — either way the
        suffix cannot be trusted.
        """
        events: List[HistoryEvent] = []
        index = 0
        while True:
            key = self._key(task_id, index)
            if not self.store.exists(key):
                break
            blob = self.store.read(key)
            payloads, _, tail_error = parse_crc_frames(blob, HISTORY_MAGIC)
            if tail_error is not None or len(payloads) != 1:
                raise TornHistoryError(task_id, index,
                                       tail_error or "empty-frame")
            try:
                version, encoded = pickle.loads(payloads[0])
            except Exception as exc:  # pragma: no cover - CRC catches most
                raise HistoryCorruptionError(task_id, index,
                                             f"undecodable batch: {exc}")
            if version != SCHEMA_VERSION:
                raise HistoryCorruptionError(
                    task_id, index, f"schema version {version} "
                    f"(expected {SCHEMA_VERSION})")
            for seq, kind, fiber, payload_blob in encoded:
                events.append(HistoryEvent(seq, kind, fiber,
                                           codec.loads(payload_blob)))
            index = index + 1
        # a dropped batch leaves a hole: either the batch index stops
        # short of what the writer appended, or (defense in depth) the
        # per-task sequence numbers have a gap
        highest = self._next_batch.get(task_id, index)
        if index < highest:
            raise DroppedBatchError(task_id, index, "missing batch")
        for position, event in enumerate(events):
            if event.seq != position:
                raise DroppedBatchError(
                    task_id, index,
                    f"sequence gap: expected seq {position}, "
                    f"found {event.seq}")
        return events

    # -- introspection --------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        return {
            "batches_written": self._batches.value,
            "log_bytes": self._bytes.value,
            "write_retries": self._retries.value,
        }
