"""The write-ahead journal: group commit, checkpoint, torn-tail replay.

Netherite's core move — funnel a partition's updates through one commit
log so a batch of small writes costs one IO — applied to Vinz fiber
state.  A :class:`WriteAheadJournal` appends *batches*: every mutation
issued inside one operation window (continuation blob, task env,
fork thunks, reclamation deletes) becomes a single CRC-framed record,
amortizing the store's ~2 ms per-operation latency across the batch.

Records are framed with :func:`repro.vinz.persistence.crc_frame`, so a
write cut short by a crash (a *torn tail*) is detected by length/CRC
mismatch during :meth:`replay` and exactly the uncommitted suffix is
dropped — committed batches always survive, uncommitted ones never do.

Checkpoints bound replay time: every ``checkpoint_interval`` commits the
journal owner snapshots the committed key space into a checkpoint frame
and truncates the log.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Dict, List, Optional, Tuple

from ..bluebox.store import StoreWriteError
from ..vinz.persistence import crc_frame, parse_crc_frames

#: journal file header
JOURNAL_MAGIC = b"GZWJ1\n"
#: per-batch record frame magic
BATCH_MAGIC = b"GJB1"
#: checkpoint frame magic
CHECKPOINT_MAGIC = b"GJC1"

#: batch record ops
OP_PUT = "put"
OP_DELETE = "del"


class MemoryJournalStorage:
    """Journal bytes held in memory (the pure-simulation default)."""

    def __init__(self):
        self._buf = bytearray()

    def append(self, data: bytes) -> None:
        self._buf.extend(data)

    def read_all(self) -> bytes:
        return bytes(self._buf)

    def truncate(self, offset: int) -> None:
        del self._buf[offset:]

    def reset(self, data: bytes = b"") -> None:
        self._buf = bytearray(data)

    def size(self) -> int:
        return len(self._buf)


class FileJournalStorage:
    """Journal bytes on a real file — what the cross-process crash
    tests kill mid-batch.  Every append opens, writes and flushes, so
    bytes written before a process dies are on disk."""

    def __init__(self, path: str):
        self.path = path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        if not os.path.exists(path):
            with open(path, "wb"):
                pass

    def append(self, data: bytes) -> None:
        with open(self.path, "ab") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())

    def read_all(self) -> bytes:
        with open(self.path, "rb") as fh:
            return fh.read()

    def truncate(self, offset: int) -> None:
        with open(self.path, "r+b") as fh:
            fh.truncate(offset)

    def reset(self, data: bytes = b"") -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)

    def size(self) -> int:
        return os.path.getsize(self.path)


#: one journaled mutation: (op, key, value-or-None)
Record = Tuple[str, str, Optional[bytes]]


def encode_batch(records: List[Record]) -> bytes:
    """One operation window's mutations as a single framed record."""
    return crc_frame(pickle.dumps(records, protocol=4), BATCH_MAGIC)


class SealedBatch:
    """A window's mutations, framed and priced but not yet on the log.

    Sealing happens when the operation handler finishes (so the commit
    cost lands inside the window's simulated duration); the physical
    append happens when the window *ends* — mirroring a transacted JMS
    session where the state write commits with the receive.  A window
    aborted in between (node death) simply discards its sealed batch:
    nothing ever reaches the log, so replay excludes it by construction.
    """

    __slots__ = ("records", "framed", "cost", "flushed")

    def __init__(self, records: List[Record], framed: bytes, cost: float,
                 flushed: bool = True):
        self.records = records
        self.framed = framed
        self.cost = cost
        #: whether this batch pays for its own physical flush
        #: (``op_latency``) or piggybacks on one already in flight —
        #: classic group commit: commits landing within one op latency
        #: of the last flush share it and pay only their bytes
        self.flushed = flushed

    def __len__(self) -> int:
        return len(self.records)


class WriteAheadJournal:
    """An append-only batch log with torn-tail detection.

    ``injector`` (optional, a :class:`repro.faults.FaultInjector`) is
    consulted per physical append and may tear the record: only a
    prefix of the frame reaches storage and the append raises — the
    simulation's stand-in for the writer dying mid-``write(2)``.
    """

    def __init__(self, storage=None):
        self.storage = storage if storage is not None \
            else MemoryJournalStorage()
        self.injector = None
        # statistics
        self.commits = 0
        self.records_committed = 0
        self.bytes_appended = 0
        #: physical IOs: commits that paid an ``op_latency`` flush of
        #: their own (the rest shared an in-flight flush — group commit)
        self.flushes = 0
        self.torn_appends = 0
        self.checkpoints = 0
        #: bytes of log verified good (appends past this may be torn)
        self._good_offset = self.storage.size()
        #: a torn append left garbage after _good_offset
        self._dirty_tail = False
        if self._good_offset == 0:
            self.storage.reset(JOURNAL_MAGIC)
            self._good_offset = len(JOURNAL_MAGIC)

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------

    def append_batch(self, batch: SealedBatch) -> None:
        """Physically commit one sealed batch (a single IO).

        Raises :class:`StoreWriteError` when a torn-journal fault
        fires: the partial record is on storage (recovery will drop
        it), and the caller's window aborts so the platform retries.
        """
        self._repair_tail()
        framed = batch.framed
        if self.injector is not None:
            on_commit = getattr(self.injector, "on_journal_commit", None)
            if on_commit is not None:
                keep = on_commit(self.commits + 1, len(framed))
                if keep is not None:
                    self.storage.append(framed[:max(0, int(keep))])
                    self.torn_appends += 1
                    self._dirty_tail = True
                    raise StoreWriteError("torn journal record")
        self.storage.append(framed)
        self._good_offset += len(framed)
        self.commits += 1
        if getattr(batch, "flushed", True):
            self.flushes += 1
        self.records_committed += len(batch.records)
        self.bytes_appended += len(framed)

    def _repair_tail(self) -> None:
        """Restart-style recovery after a torn append: truncate the
        garbage suffix so the next append lands on a clean tail."""
        if self._dirty_tail:
            self.storage.truncate(self._good_offset)
            self._dirty_tail = False

    # ------------------------------------------------------------------
    # checkpoint / compaction
    # ------------------------------------------------------------------

    def checkpoint(self, state: Dict[str, bytes]) -> int:
        """Snapshot the full key space and truncate the log.

        Returns the checkpoint frame size.  Replay then starts from the
        snapshot instead of the beginning of time.
        """
        frame = crc_frame(pickle.dumps(state, protocol=4), CHECKPOINT_MAGIC)
        self.storage.reset(JOURNAL_MAGIC + frame)
        self._good_offset = len(JOURNAL_MAGIC) + len(frame)
        self._dirty_tail = False
        self.checkpoints += 1
        return len(frame)

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------

    def replay(self) -> Dict[str, Any]:
        """Reconstruct committed state from storage.

        Returns a report::

            {"state": {key: bytes-or-None},   # None = committed delete
             "checkpoint_keys": int,
             "batches": int, "records": int,
             "tail_error": None | str, "tail_bytes_dropped": int}

        ``state`` maps every key any committed batch (or the
        checkpoint) touched to its final committed value.  A torn or
        corrupt tail is dropped, never applied.
        """
        data = self.storage.read_all()
        offset = 0
        if data[:len(JOURNAL_MAGIC)] == JOURNAL_MAGIC:
            offset = len(JOURNAL_MAGIC)
        state: Dict[str, Optional[bytes]] = {}
        checkpoint_keys = 0
        # an optional leading checkpoint frame
        cp_payloads, cp_offset, cp_error = parse_crc_frames(
            data[:_frame_end(data, offset, CHECKPOINT_MAGIC)],
            CHECKPOINT_MAGIC, offset)
        if cp_payloads:
            snapshot = pickle.loads(cp_payloads[0])
            state.update(snapshot)
            checkpoint_keys = len(snapshot)
            offset = cp_offset
        payloads, good_offset, tail_error = parse_crc_frames(
            data, BATCH_MAGIC, offset)
        batches = 0
        records = 0
        for payload in payloads:
            for op, key, value in pickle.loads(payload):
                if op == OP_PUT:
                    state[key] = value
                else:
                    state[key] = None
            batches += 1
            records += len(pickle.loads(payload))
        return {
            "state": state,
            "checkpoint_keys": checkpoint_keys,
            "batches": batches,
            "records": records,
            "tail_error": tail_error,
            "tail_bytes_dropped": len(data) - good_offset
            if tail_error else 0,
        }

    def repair_after_replay(self, replay: Dict[str, Any]) -> int:
        """Truncate the torn/corrupt suffix a :meth:`replay` reported,
        so future appends land on a clean, replayable tail.  A recovery
        that skips this would write good batches *after* the garbage —
        invisible to every later replay.  Returns bytes dropped."""
        dropped = replay["tail_bytes_dropped"]
        if dropped:
            good = self.storage.size() - dropped
            self.storage.truncate(good)
            self._good_offset = good
            self._dirty_tail = False
        return dropped

    def stats_snapshot(self) -> Dict[str, Any]:
        return {
            "commits": self.commits,
            "records_committed": self.records_committed,
            "bytes_appended": self.bytes_appended,
            "flushes": self.flushes,
            "torn_appends": self.torn_appends,
            "checkpoints": self.checkpoints,
            "log_bytes": self.storage.size(),
        }


def _frame_end(data: bytes, offset: int, magic: bytes) -> int:
    """End offset of a single leading ``magic`` frame (or ``offset``
    when the stream does not start with one) — lets checkpoint and
    batch frames share one parser without ambiguity."""
    if data[offset:offset + len(magic)] != magic:
        return offset
    import struct as _struct

    header = data[offset + len(magic):offset + len(magic) + 8]
    if len(header) < 8:
        return len(data)
    length, _crc = _struct.unpack("<II", header)
    return min(len(data), offset + len(magic) + 8 + length)
