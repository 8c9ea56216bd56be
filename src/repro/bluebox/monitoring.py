"""Monitoring: the trace event log.

"The underlying BlueBox platform provides monitoring and management
features" (paper Section 1).  The trace log is also how we regenerate
the paper's Figure 1 (sample workflow lifetime): every queue, instance,
fiber and persistence event is recorded with its virtual timestamp, and
the Figure-1 bench renders the sequence for one task.  Metrics live
in :mod:`repro.observe.metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Fault-injection / robustness event kinds (recorded by the cluster
#: and the FaultInjector).  Every injected fault and every recovery
#: decision is observable in the trace:
#:
#: * ``fault.injected`` — the injector fired (action=drop/duplicate/
#:   delay/fail-write/fail-read/corrupt-read/crash/crash-on-persist);
#: * ``retry.scheduled`` — a failed delivery was re-scheduled with its
#:   backoff delay and attempt number;
#: * ``deadletter.enqueued`` — a message exhausted its RetryPolicy and
#:   moved to the dead-letter queue;
#: * ``operation-fault`` — an operation aborted mid-window (store
#:   fault) and its state was rolled back.
FAULT_INJECTED = "fault.injected"
RETRY_SCHEDULED = "retry.scheduled"
DEADLETTER_ENQUEUED = "deadletter.enqueued"
OPERATION_FAULT = "operation-fault"

FAULT_EVENT_KINDS = (FAULT_INJECTED, RETRY_SCHEDULED, DEADLETTER_ENQUEUED,
                     OPERATION_FAULT)


@dataclass
class TraceEvent:
    """One timestamped event."""

    time: float
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:
        bits = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:10.3f}] {self.kind} {bits}"


class TraceTruncatedError(RuntimeError):
    """A replay assertion was attempted on a truncated trace.

    A capacity-bounded :class:`TraceLog` that dropped events cannot
    vouch for bit-identical replay — comparing signatures of truncated
    streams would pass vacuously.
    """


class TraceLog:
    """An append-only event log with simple querying.

    When ``capacity`` is bounded, events past the cap are counted in
    ``dropped`` rather than silently discarded, and
    :meth:`signature` refuses to fingerprint the truncated stream.
    """

    def __init__(self, enabled: bool = True, capacity: Optional[int] = None):
        self.enabled = enabled
        self.capacity = capacity
        self.events: List[TraceEvent] = []
        #: events rejected because the log was full
        self.dropped = 0

    def record(self, time: float, kind: str, **detail: Any) -> None:
        if not self.enabled:
            return
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(TraceEvent(time, kind, detail))

    def of_kind(self, *kinds: str) -> List[TraceEvent]:
        wanted = set(kinds)
        return [e for e in self.events if e.kind in wanted]

    def where(self, predicate: Callable[[TraceEvent], bool]) -> List[TraceEvent]:
        return [e for e in self.events if predicate(e)]

    def for_task(self, task_id: str) -> List[TraceEvent]:
        return [e for e in self.events if e.detail.get("task") == task_id]

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    def snapshot(self) -> Dict[str, Any]:
        """Log health for summaries: event count, capacity, drops."""
        return {"events": len(self.events), "capacity": self.capacity,
                "dropped": self.dropped}

    def signature(self, *kinds: str) -> Tuple[Tuple[Any, ...], ...]:
        """A hashable, order-preserving fingerprint of the event
        sequence, for bit-identical replay assertions: two runs of the
        same seeded fault campaign must produce equal signatures.
        Restrict to specific ``kinds`` to compare a sub-stream.

        Raises :class:`TraceTruncatedError` if events were dropped —
        a fingerprint of a truncated stream would let replay
        assertions pass vacuously.
        """
        if self.dropped:
            raise TraceTruncatedError(
                f"trace log dropped {self.dropped} events "
                f"(capacity={self.capacity}); its signature would not "
                f"cover the full event stream")
        events = self.events if not kinds else self.of_kind(*kinds)
        return tuple(
            (e.time, e.kind, tuple(sorted((k, repr(v))
                                          for k, v in e.detail.items())))
            for e in events)

    def render(self, events: Optional[Iterable[TraceEvent]] = None) -> str:
        """Human-readable lifetime rendering (the Figure 1 format)."""
        return "\n".join(repr(e) for e in (events if events is not None
                                           else self.events))
