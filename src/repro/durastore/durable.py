"""The durable store: group commit over a write-ahead journal.

:class:`DurableStore` is a :class:`~repro.durastore.sharded.ShardedStore`
whose mutations are additionally funnelled through a
:class:`~repro.durastore.journal.WriteAheadJournal`.  Its one performance
idea is **group commit**: every write and delete issued inside one
operation window defers its per-operation latency, and the window's
whole mutation set commits as a single journal append.  A window that
persisted a continuation, wrote three fork thunks and reclaimed a task
env pays one ``op_latency`` instead of five — the Gozer filer's ~2 ms
per-op cost amortized exactly the way Netherite batches partition
updates into one commit-log IO.

Window lifecycle (driven by the cluster):

1. ``begin_window()`` as the operation handler starts.
2. ``write``/``delete`` during the handler buffer journal records;
   state is applied to the backends immediately so reads in the same
   window see it.  Each charges only its byte cost.
3. ``seal_window()`` as the handler finishes: the batch is framed and
   the group-commit IO priced — the cost lands inside the window's
   simulated duration.
4. ``commit_batch(batch)`` when the window *completes*: the sealed
   frame is physically appended (this is where a torn-journal fault can
   strike).  A window aborted in between — node death, store fault —
   calls ``abort_window()``/``discard_batch()`` instead and the batch
   never reaches the log, so journal replay excludes it by
   construction: rollback and replay compose.

Mutations outside any window (task submission, dead-letter bookkeeping)
auto-commit as singleton batches, so the journal is always a complete
record of committed state.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..bluebox.store import StoreError
from ..observe.metrics import MetricsRegistry
from .backend import StoreBackend
from .journal import (
    OP_DELETE,
    OP_PUT,
    Record,
    SealedBatch,
    WriteAheadJournal,
    encode_batch,
)
from .sharded import ShardedStore


class DurableStore(ShardedStore):
    """A sharded store with a write-ahead journal and group commit."""

    def __init__(self, backends: Optional[Sequence[StoreBackend]] = None,
                 shards: int = 4,
                 journal: Optional[WriteAheadJournal] = None,
                 checkpoint_interval: int = 64,
                 commit_interval: Optional[float] = None, **kwargs):
        # the journal must exist before super().__init__ assigns
        # self.injector (the property setter mirrors it onto the journal)
        self.journal = journal if journal is not None else WriteAheadJournal()
        self.checkpoint_interval = checkpoint_interval
        super().__init__(backends=backends, shards=shards, **kwargs)
        #: group-commit horizon: a window sealing within this many
        #: simulated seconds of the last physical flush piggybacks on
        #: it (pays only its bytes).  Defaults to one ``op_latency`` —
        #: while a filer write is in flight, concurrent committers
        #: queue behind it and share the next IO.
        self.commit_interval = commit_interval \
            if commit_interval is not None else self.op_latency
        self._last_flush_at: Optional[float] = None
        #: records of the currently open operation window (None = no
        #: window open; windows never overlap — operation handlers run
        #: synchronously inside one kernel event)
        self._window: Optional[List[Record]] = None
        # group-commit statistics
        self.windows_sealed = 0
        self.windows_aborted = 0
        self.batches_committed = 0
        self.batches_discarded = 0
        self.deferred_ops = 0
        self.auto_commits = 0
        self.shared_flushes = 0
        self.checkpoint_seconds = 0.0
        #: observability wiring: recovery counts into ``metrics`` and
        #: emits a span when a tracer is attached.  The store is built
        #: before the cluster that owns the shared registry, so
        #: VinzEnvironment swaps that registry in
        self.tracer = None
        self.metrics = MetricsRegistry()
        self.now_fn = None

    # the injector consults both store IO and journal appends; mirror
    # assignments (FaultInjector.install sets env.store.injector) onto
    # the journal so torn-record faults reach it
    @property
    def injector(self):
        return self._injector

    @injector.setter
    def injector(self, value) -> None:
        self._injector = value
        if getattr(self, "journal", None) is not None:
            self.journal.injector = value

    # ------------------------------------------------------------------
    # the operation-window lifecycle
    # ------------------------------------------------------------------

    def begin_window(self) -> None:
        if self._window is not None:
            raise RuntimeError("operation window already open")
        self._window = []

    def in_window(self) -> bool:
        return self._window is not None

    def seal_window(self) -> Optional[SealedBatch]:
        """Frame the open window's mutations and price the group IO.

        Returns ``None`` for a window that mutated nothing (no IO, no
        cost).  The returned batch's ``cost`` is the *incremental* cost
        of the commit — one ``op_latency`` plus the byte cost of the
        frame overhead; the payload bytes were already charged as the
        writes happened — so window total = ``op_latency`` + framed
        bytes, versus N × (``op_latency`` + payload bytes) unjournaled.

        The second group-commit tier works *across* windows: when this
        seal lands within ``commit_interval`` of the last physical
        flush (a concurrent handler on another node just committed),
        the batch piggybacks on that in-flight IO — it pays only its
        bytes and the journal counts no new flush.
        """
        records = self._window
        self._window = None
        if not records:
            return None
        framed = encode_batch(records)
        payload = sum(len(value) for _op, _key, value in records
                      if value is not None)
        framing_cost = max(0, len(framed) - payload) * self.per_byte
        now = self.now_fn() if self.now_fn is not None else None
        shares = (now is not None and self._last_flush_at is not None
                  and now - self._last_flush_at < self.commit_interval)
        if shares:
            cost = framing_cost
            self.shared_flushes += 1
            self.io_seconds += cost
        else:
            cost = self.op_latency + framing_cost
            if now is not None:
                self._last_flush_at = now
            self._account(cost)
        self.windows_sealed += 1
        return SealedBatch(records, framed, cost, flushed=not shares)

    def abort_window(self) -> None:
        """Drop the open window's buffered records (store fault or node
        death mid-handler).  The caller's abort-undo hooks restore the
        backend state; nothing was journaled, so replay never sees it."""
        if self._window is not None:
            self._window = None
            self.windows_aborted += 1

    def commit_batch(self, batch: Optional[SealedBatch]) -> None:
        """Physically append a sealed batch — the group commit.

        Raises :class:`~repro.bluebox.store.StoreWriteError` when a
        torn-journal fault fires; the caller aborts the window (undo
        hooks roll the backends back) and the partial record is dropped
        by the next replay.
        """
        if batch is None:
            return
        self.journal.append_batch(batch)
        self.batches_committed += 1
        self._maybe_checkpoint()

    def discard_batch(self, batch: Optional[SealedBatch]) -> None:
        """A sealed batch whose window died before completing: it never
        reaches the log."""
        if batch is not None:
            self.batches_discarded += 1

    def _auto_commit(self, record: Record) -> None:
        """Out-of-window mutations journal as singleton batches."""
        batch = SealedBatch([record], encode_batch([record]), 0.0)
        self.journal.append_batch(batch)
        self.auto_commits += 1
        self._maybe_checkpoint()

    # ------------------------------------------------------------------
    # mutation API: defer op_latency inside windows
    # ------------------------------------------------------------------

    def write(self, key: str, data: bytes) -> float:
        if self._window is None:
            cost = super().write(key, data)
            self._auto_commit((OP_PUT, key, data))
            return cost
        if not isinstance(data, bytes):
            raise TypeError("store values must be bytes")
        self._consult_shard(key, write=True)
        self._consult_write(key)
        self._put(key, data)
        self.writes += 1
        self.bytes_written += len(data)
        self._window.append((OP_PUT, key, data))
        self.deferred_ops += 1
        # bytes still travel to the log; the op_latency is deferred to
        # the group commit at seal time
        cost = len(data) * self.per_byte
        self.io_seconds += cost
        stats = self.shard_stats[self.shard_for(key)]
        stats.writes += 1
        stats.bytes_written += len(data)
        stats.io_seconds += cost
        return cost

    def delete(self, key: str) -> float:
        if self._window is None:
            cost = super().delete(key)
            self._auto_commit((OP_DELETE, key, None))
            return cost
        self._consult_shard(key, write=True)
        self._consult_write(key)
        self._remove(key)
        self.deletes += 1
        self._window.append((OP_DELETE, key, None))
        self.deferred_ops += 1
        self.shard_stats[self.shard_for(key)].deletes += 1
        return 0.0

    def rollback_value(self, key: str, value: Optional[bytes]) -> None:
        """Abort-undo: restore the backend value *and* scrub the key
        from the open window, so a rolled-back write can never be
        journaled — rollback and replay compose."""
        self.restore_value(key, value)
        if self._window:
            self._window = [r for r in self._window if r[1] != key]

    # ------------------------------------------------------------------
    # checkpoint / compaction
    # ------------------------------------------------------------------

    def _maybe_checkpoint(self) -> None:
        if self.checkpoint_interval and \
                self.journal.commits % self.checkpoint_interval == 0:
            self.run_checkpoint()

    def run_checkpoint(self) -> float:
        """Snapshot the key space into the journal and truncate the log.

        Background compaction: its IO cost is accounted on the store
        (``checkpoint_seconds``) but charged to no operation window —
        the paper-world filer does this off the critical path.
        """
        state = {key: self._get(key) for key in self._key_list()}
        frame_bytes = self.journal.checkpoint(state)
        cost = self.cost(frame_bytes)
        self._account(cost)
        self.checkpoint_seconds += cost
        return cost

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------

    def recover(self) -> Dict[str, Any]:
        """Rebuild backend state from the journal: exactly the
        committed batches, never a torn tail.

        Counts ``store.recovery.*`` metrics and, when a tracer is
        attached, emits a ``recovery``-kind span.  Returns a report::

            {"recovered_keys", "deleted_keys", "checkpoint_keys",
             "batches", "records", "tail_error", "tail_bytes_dropped",
             "replay_cost_s"}
        """
        now = self.now_fn() if self.now_fn is not None else 0.0
        span_id = 0
        if self.tracer is not None and self.tracer.enabled:
            span_id = self.tracer.begin("store.recover", "recovery", now,
                                        journal_bytes=self.journal.storage.size())
        replay = self.journal.replay()
        self.journal.repair_after_replay(replay)
        for backend in self.backends.values():
            for key in backend.keys():
                backend.remove(key)
        recovered = 0
        deleted = 0
        for key, value in replay["state"].items():
            if value is None:
                deleted += 1
            else:
                self._backend(key).put(key, value)
                recovered += 1
        cost = self.cost(self.journal.storage.size())
        self._account(cost)
        report = {
            "recovered_keys": recovered,
            "deleted_keys": deleted,
            "checkpoint_keys": replay["checkpoint_keys"],
            "batches": replay["batches"],
            "records": replay["records"],
            "tail_error": replay["tail_error"],
            "tail_bytes_dropped": replay["tail_bytes_dropped"],
            "replay_cost_s": cost,
        }
        if span_id:
            if replay["tail_error"]:
                self.tracer.event("journal.torn-tail", now, span_id,
                                  error=replay["tail_error"],
                                  bytes_dropped=replay["tail_bytes_dropped"])
            self.tracer.end(span_id, now + cost, **{
                k: v for k, v in report.items() if k != "replay_cost_s"})
        self.metrics.counter("store.recovery.runs").inc()
        self.metrics.counter("store.recovery.keys").inc(recovered)
        self.metrics.counter("store.recovery.batches").inc(replay["batches"])
        if replay["tail_error"]:
            self.metrics.counter("store.recovery.torn_tails").inc()
        return report

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def stats_snapshot(self) -> Dict[str, Any]:
        snap = super().stats_snapshot()
        snap["journal"] = self.journal.stats_snapshot()
        snap["group_commit"] = {
            "windows_sealed": self.windows_sealed,
            "windows_aborted": self.windows_aborted,
            "batches_committed": self.batches_committed,
            "batches_discarded": self.batches_discarded,
            "deferred_ops": self.deferred_ops,
            "auto_commits": self.auto_commits,
            "shared_flushes": self.shared_flushes,
        }
        snap["recoveries"] = self.metrics.get("store.recovery.runs")
        snap["checkpoint_seconds"] = self.checkpoint_seconds
        return snap
