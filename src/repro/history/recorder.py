"""Typed, versioned task-history events and the recorder that emits them.

Gozer's durability story (paper Section 4.2) persists whole fiber
continuations on every suspension: the snapshot is both the audit trail
and the only recovery path.  Modern engines (Durable Functions /
Netherite) instead *event-source* each task: an append-only history of
every nondeterministic decision a task made — fork targets, delivered
messages, service responses, clock reads — is enough to rebuild any
fiber by re-executing its deterministic bytecode and feeding the
recorded decisions back in.  Snapshots become an optimization taken
every N suspensions instead of every one.

:class:`HistoryRecorder` is the write side.  Events are buffered per
operation window and committed by a completion hook, so an aborted
window (node crash, store fault, fencing rejection) leaves no trace —
history only ever describes *committed* execution, exactly like the
fiber state it shadows.  Committed events are mirrored in memory (the
live rebuild path) and appended, CRC-framed, to the
:class:`~repro.history.log.HistoryLog` plane of the shared store.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: bump when event payload shapes change; stored in every batch frame
SCHEMA_VERSION = 1

# -- event kinds ------------------------------------------------------------

TASK_STARTED = "task-started"
FIBER_FORKED = "fiber-forked"
MESSAGE_DELIVERED = "message-delivered"
SERVICE_REQUESTED = "service-requested"
SERVICE_COMPLETED = "service-completed"
TIMER_FIRED = "timer-fired"
FIBER_JOINED = "fiber-joined"
NONDET_RECORDED = "nondet"
FIBER_SUSPENDED = "fiber-suspended"
SNAPSHOT_TAKEN = "snapshot-taken"
FIBER_COMPLETED = "fiber-completed"
FIBER_FAILED = "fiber-failed"

#: kinds that resume a suspended fiber (carry the resume value)
RESUME_KINDS = (SERVICE_COMPLETED, TIMER_FIRED, FIBER_JOINED,
                MESSAGE_DELIVERED)

#: kinds the replay cursor skips: audit markers that carry no decision
#: the re-executing bytecode consumes (mailbox appends are consumed via
#: a later resume event; snapshot markers only locate rebuild bases)
AUDIT_KINDS = (TASK_STARTED, SERVICE_REQUESTED, SNAPSHOT_TAKEN)


def resume_kind_for(waiting_on: Optional[str]) -> str:
    """Classify a resume event by what the fiber was suspended on."""
    if waiting_on == "service-call":
        return SERVICE_COMPLETED
    if waiting_on == "sleep":
        return TIMER_FIRED
    if waiting_on in ("join", "await"):
        return FIBER_JOINED
    return MESSAGE_DELIVERED


class HistoryEvent:
    """One recorded decision: ``(seq, kind, fiber, payload)``.

    ``seq`` is the per-task sequence number assigned at commit time;
    ``fiber`` is ``None`` for task-scoped events (TaskStarted).
    """

    __slots__ = ("seq", "kind", "fiber", "payload")

    def __init__(self, seq: int, kind: str, fiber: Optional[str],
                 payload: Dict[str, Any]):
        self.seq = seq
        self.kind = kind
        self.fiber = fiber
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"HistoryEvent(seq={self.seq}, kind={self.kind!r}, "
                f"fiber={self.fiber!r}, payload={self.payload!r})")


class HistoryRecorder:
    """The write side of the history plane.

    One per :class:`~repro.vinz.api.VinzEnvironment` (when
    ``history="on"``).  ``record`` buffers the event on the operation
    window; the window's completion hook assigns sequence numbers and
    appends one batch per task to the log — the abort hook discards the
    buffer, so rolled-back windows record nothing.
    """

    def __init__(self, env, log):
        self.env = env
        self.log = log
        self._events = env.metrics.counter("history.events")
        #: committed events per task (the live rebuild path reads this
        #: mirror; ``replay_task`` reads the durable log instead)
        self.histories: Dict[str, List[HistoryEvent]] = {}
        self._seqs: Dict[str, int] = {}

    # -- recording ------------------------------------------------------

    def record(self, ctx, task_id: str, kind: str,
               fiber: Optional[str] = None, **payload: Any) -> None:
        entry = (task_id, kind, fiber, payload)
        on_complete = getattr(ctx, "on_complete", None)
        if on_complete is None:
            # out-of-band context (dead-letter handling): there is no
            # window to be transactional with — commit immediately
            self._commit([entry])
            return
        buffer = getattr(ctx, "_history_buffer", None)
        if buffer is None:
            buffer = []
            ctx._history_buffer = buffer
            on_complete(lambda: self._commit(buffer))
            ctx.on_abort(buffer.clear)
        buffer.append(entry)

    def _commit(self, entries: List[Tuple]) -> None:
        if not entries:
            return
        by_task: Dict[str, List[HistoryEvent]] = {}
        for task_id, kind, fiber, payload in entries:
            seq = self._seqs.get(task_id, 0)
            self._seqs[task_id] = seq + 1
            event = HistoryEvent(seq, kind, fiber, payload)
            self.histories.setdefault(task_id, []).append(event)
            by_task.setdefault(task_id, []).append(event)
        registry = self.env.registry
        for task_id, events in by_task.items():
            task = registry.tasks.get(task_id)
            workflow = self.env.workflows.get(task.workflow) \
                if task is not None else None
            if workflow is None:  # pragma: no cover - task swept mid-commit
                continue
            self.log.append_batch(task_id, events, workflow.codec)
            self._events.inc(len(events))

    # -- introspection --------------------------------------------------

    def events_of(self, task_id: str) -> List[HistoryEvent]:
        return list(self.histories.get(task_id, ()))

    def summary(self) -> Dict[str, Any]:
        return {
            "tasks_recorded": len(self.histories),
            "events": sum(self._seqs.values()),
            **self.log.summary(),
        }
