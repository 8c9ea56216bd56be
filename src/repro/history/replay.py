"""Deterministic replay: rebuild any fiber from its event history.

The GVM is deterministic; everything nondeterministic a fiber ever
observes flows through its :class:`~repro.vinz.service.FiberExecution`
(fork targets, service responses, mailbox pops, clock reads, RNG
draws) and is recorded by the history plane.  Replay therefore
re-executes the fiber's *actual bytecode* window by window — a fresh VM
per advancement, exactly like the live service — with a
:class:`ReplayExecution` standing in for the live bridge: every
intrinsic that would touch the outside world instead consumes the next
recorded event and returns the recorded value.

Two consumers:

* **recovery** — :meth:`ReplayEngine.rebuild` reconstructs a crashed
  fiber's continuation at its current version, either from the task's
  start (``recovery="replay"``: no continuation snapshot is ever read)
  or forward from the latest SnapshotTaken base (``snapshot_interval >
  1``: the skipped versions between snapshots are recomputed);
* **verification** — :meth:`ReplayEngine.replay_task` re-runs every
  fiber of a finished task against its durable log and checks each
  recorded suspension and terminal outcome, raising
  :exc:`ReplayDivergenceError` at the *first* mismatched event.

A divergence means the runtime was nondeterministic somewhere the
recorder did not intercept — precisely the bug class event sourcing
exists to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..bluebox.services import ServiceFault
from ..gvm.conditions import UnhandledConditionError
from ..gvm.futures import enter_fiber_thread
from ..gvm.vm import Done, Yielded
from ..lang.errors import GozerRuntimeError
from ..lang.symbols import Symbol
from ..vinz import distribution
from ..vinz.service import deliver_collected
from .recorder import (
    FIBER_COMPLETED,
    FIBER_FAILED,
    FIBER_FORKED,
    FIBER_SUSPENDED,
    HistoryEvent,
    MESSAGE_DELIVERED,
    NONDET_RECORDED,
    RESUME_KINDS,
    TASK_STARTED,
)

_S = Symbol

#: kinds the per-fiber cursor consumes (everything else is audit)
_CONSUMABLE = set((NONDET_RECORDED, FIBER_FORKED, FIBER_SUSPENDED,
                   FIBER_COMPLETED, FIBER_FAILED) + RESUME_KINDS)


class ReplayError(RuntimeError):
    """Base class for replay failures."""


class IncompleteHistoryError(ReplayError):
    """The history ends before the fiber's recorded life does — e.g. a
    dropped tail batch left a finished fiber with no terminal event."""


class ReplayDivergenceError(ReplayError):
    """Replayed execution disagrees with the recorded history.

    Pinpoints the *first* mismatched event: ``task``/``fiber`` locate
    the stream, ``seq`` the recorded event (or the position where one
    was missing), ``expected`` what the history says happened and
    ``actual`` what re-execution produced.
    """

    def __init__(self, task: str, fiber: str, seq: Optional[int],
                 expected: str, actual: str):
        super().__init__(
            f"replay of {fiber} ({task}) diverged at event "
            f"{'<end>' if seq is None else seq}: "
            f"recorded {expected}, replayed {actual}")
        self.task = task
        self.fiber = fiber
        self.seq = seq
        self.expected = expected
        self.actual = actual


@dataclass
class ReplayReport:
    """What one task's verification replay covered."""

    task: str
    fibers_replayed: int = 0
    windows: int = 0
    events_consumed: int = 0
    instructions: int = 0
    #: fibers whose stream ends suspended (swept by task termination):
    #: replayed up to their last recorded suspension, no terminal check
    partial_fibers: List[str] = field(default_factory=list)


class _Cursor:
    """Ordered consumption of one fiber's decision events."""

    def __init__(self, task_id: str, fiber_id: str,
                 events: List[HistoryEvent]):
        self.task_id = task_id
        self.fiber_id = fiber_id
        self.events = events
        self.pos = 0

    def exhausted(self) -> bool:
        return self.pos >= len(self.events)

    def diverge(self, expected: str, actual: str) -> "ReplayDivergenceError":
        seq = self.events[self.pos].seq if not self.exhausted() else None
        return ReplayDivergenceError(self.task_id, self.fiber_id, seq,
                                     expected, actual)

    def next(self, *kinds: str) -> HistoryEvent:
        if self.exhausted():
            raise ReplayDivergenceError(
                self.task_id, self.fiber_id, None,
                "<no further events>", f"attempt to consume {kinds}")
        event = self.events[self.pos]
        if event.kind not in kinds:
            raise self.diverge(event.kind, f"attempt to consume {kinds}")
        self.pos += 1
        return event


def _values_equal(codec, recorded: Any, replayed: Any) -> bool:
    """Structural equality through the codec: recorded values already
    round-tripped through it, so serializing both sides is the honest
    comparison (GozerFunctions, conditions and keywords included)."""
    if recorded is replayed:
        return True
    try:
        if recorded == replayed:
            return True
    except Exception:  # pragma: no cover - exotic __eq__
        pass
    try:
        return codec.dumps(recorded) == codec.dumps(replayed)
    except Exception:  # pragma: no cover - unserializable replay value
        return False


class _Stub:
    """Minimal ``.id``-bearing stand-in for task/fiber records."""

    __slots__ = ("id", "spawn_limit")

    def __init__(self, id: str):
        self.id = id
        self.spawn_limit = None


class ReplayExecution:
    """The replay-side twin of :class:`FiberExecution`.

    Same surface, opposite data flow: where the live bridge performs an
    effect and records the outcome, this one consumes the recorded
    outcome and performs nothing.  Any call the history cannot satisfy
    is a divergence.
    """

    def __init__(self, service, cursor: _Cursor):
        self.service = service
        self.cursor = cursor
        self.task = _Stub(cursor.task_id)
        self.fiber = _Stub(cursor.fiber_id)
        self.vm = None
        self.charged = 0.0
        #: chain groups reconstructed from FiberForked(chain) events
        self.chain_groups: Dict[str, List[str]] = {}

    # -- recorded nondeterminism ---------------------------------------

    def nondet(self, op: str, thunk=None) -> Any:
        event = self.cursor.next(NONDET_RECORDED)
        recorded_op = event.payload.get("op")
        if recorded_op != op:
            raise ReplayDivergenceError(
                self.cursor.task_id, self.cursor.fiber_id, event.seq,
                f"nondet {recorded_op!r}", f"nondet {op!r}")
        return event.payload.get("value")

    def clock_now(self) -> float:  # pragma: no cover - never called
        raise ReplayError("replay must read the clock from history")

    def random_draw(self, n):  # pragma: no cover - never called
        raise ReplayError("replay must draw randomness from history")

    # -- fiber management ----------------------------------------------

    def fork(self, fn, args, notify_parent: bool) -> str:
        event = self.cursor.next(FIBER_FORKED)
        if "chain" in event.payload:
            raise self.cursor.diverge("fork-chain", "fork")
        return event.payload["child"]

    def fork_chain(self, fn, items) -> str:
        event = self.cursor.next(FIBER_FORKED)
        if "chain" not in event.payload:
            raise self.cursor.diverge("fork", "fork-chain")
        group_id = event.payload["chain"]
        self.chain_groups[group_id] = list(event.payload["children"])
        return group_id

    def collect_chain(self, vm, group_id: str) -> List[Any]:
        children = self.chain_groups.get(group_id)
        if children is None:
            raise GozerRuntimeError(f"no chain group {group_id}")
        return self.collect_results(vm, children)

    def collect_results(self, vm, child_ids: List[str]) -> List[Any]:
        triples = self.nondet("collect")
        return deliver_collected(vm, child_ids, triples)

    def join_sync(self, pid: str) -> Any:
        return self.nondet("join-sync")

    def awake(self, pid: str, payload: Any) -> None:
        self.nondet("awake")

    def send_fiber_message(self, pid: str, value: Any) -> None:
        self.nondet("send-message")

    def auto_chunk_size(self) -> int:
        return self.nondet("auto-chunk")

    def try_receive(self) -> Any:
        return self.nondet("try-receive")

    # -- spawn limit ----------------------------------------------------

    def spawn_limit(self) -> int:
        return self.nondet("spawn-limit")

    def set_spawn_limit(self, n: int) -> int:
        # pure given its input: mirrors the live clamp, mutates nothing
        self.task.spawn_limit = max(1, n)
        return self.task.spawn_limit

    def auto_spawn_limit(self) -> int:
        return self.nondet("auto-spawn-limit")

    # -- task variables --------------------------------------------------

    def get_task_var(self, name: str) -> Any:
        return self.nondet(f"taskvar-get/{name}")

    def set_task_var(self, name: str, value: Any) -> Any:
        if name not in self.service.task_var_defaults:
            raise GozerRuntimeError(f"undeclared task variable ^{name}^")
        self.nondet(f"taskvar-set/{name}")
        return value

    # -- service calls ---------------------------------------------------

    def call_sync(self, soap_action: str, values) -> Any:
        return self.nondet(f"call-sync/{soap_action}")

    # -- misc ------------------------------------------------------------

    def charge(self, seconds: float) -> None:
        self.charged += float(seconds)


class ReplayEngine:
    """Replays fibers from history: recovery rebuilds + verification."""

    def __init__(self, env):
        self.env = env

    # -- event access ----------------------------------------------------

    def _service_for(self, task_id: str):
        task = self.env.registry.tasks.get(task_id)
        if task is None:
            raise ReplayError(f"no such task {task_id}")
        service = self.env.workflows.get(task.workflow)
        if service is None:  # pragma: no cover - undeployed workflow
            raise ReplayError(f"workflow {task.workflow} not deployed")
        return service

    @staticmethod
    def _fiber_stream(events: List[HistoryEvent],
                      fiber_id: str) -> List[HistoryEvent]:
        """The decision events one fiber consumes, in order.  Mailbox
        *appends* (audit flavour of MessageDelivered) are skipped: the
        value reaches the fiber via a later resume event."""
        out = []
        for event in events:
            if event.fiber != fiber_id or event.kind not in _CONSUMABLE:
                continue
            if event.kind == MESSAGE_DELIVERED and event.payload.get("append"):
                continue
            out.append(event)
        return out

    @staticmethod
    def _start_of(events: List[HistoryEvent],
                  fiber_id: str) -> Tuple[Any, List[Any], bool]:
        """How ``fiber_id`` began: ``(fn_or_None, args, is_root)``.

        Children get their start thunk from the parent's FiberForked
        payload — the history-plane copy of the cloned closure, so a
        from-scratch rebuild touches no store key at all.
        """
        for event in events:
            if event.kind != FIBER_FORKED:
                continue
            payload = event.payload
            if payload.get("child") == fiber_id:
                return payload["fn"], list(payload.get("args") or []), False
            if "chain" in payload and fiber_id in payload["children"]:
                index = payload["children"].index(fiber_id)
                return payload["fn"], [payload["items"][index]], False
        return None, [], True

    # -- one fiber --------------------------------------------------------

    def _run_window(self, service, execution: ReplayExecution, thunk):
        """Execute one advancement window exactly as ``_advance_locked``
        does, mapping the same exception set to the same outcomes."""
        try:
            outcome = thunk()
        except distribution.VinzBreak:
            return "completed", None
        except distribution.VinzTerminateTask as term:
            return "failed", term.reason
        except UnhandledConditionError as exc:
            return "failed", str(exc.condition)
        except ServiceFault as fault:
            return "failed", f"{fault.qname}: {fault.message}"
        if isinstance(outcome, Done):
            return "completed", outcome.value
        assert isinstance(outcome, Yielded)
        return "suspended", outcome

    def replay_fiber(self, service, task_id: str,
                     task_events: List[HistoryEvent],
                     fiber_id: str, stop_version: Optional[int] = None,
                     base=None,
                     report: Optional[ReplayReport] = None):
        """Re-execute one fiber against its recorded stream.

        * ``stop_version`` — return the live continuation the moment
          the replayed fiber suspends at that version (recovery mode);
          ``None`` replays to the stream's end (verification mode).
        * ``base`` — ``(continuation, version)``: fast-forward the
          cursor to that suspension and resume from the given
          continuation instead of re-running from the task start.

        Returns ``(kind, value, instructions)`` where kind is
        ``"continuation"`` / ``"completed"`` / ``"failed"`` /
        ``"partial"`` (stream ended suspended — fiber swept by task
        termination).
        """
        cursor = _Cursor(task_id, fiber_id,
                         self._fiber_stream(task_events, fiber_id))
        execution = ReplayExecution(service, cursor)
        instructions = 0

        def fresh_vm():
            vm = service.runtime.new_vm(allow_yield=True)
            vm.vinz = execution
            execution.vm = vm
            return vm

        cv_token = distribution.CURRENT_EXECUTION.set(execution)
        enter_fiber_thread()
        try:
            if base is not None:
                continuation, base_version = base
                # fast-forward: everything up to (and including) the
                # base suspension already happened before the snapshot
                while True:
                    event = cursor.next(*_CONSUMABLE)
                    if event.kind == FIBER_SUSPENDED \
                            and event.payload.get("version") == base_version:
                        break
                state, value = "suspended", None
                outcome = None
            else:
                fn, args, is_root = self._start_of(task_events, fiber_id)
                if is_root:
                    main = service.runtime.global_env.lookup_or(
                        _S(service.main_name))
                    started = [e for e in task_events
                               if e.kind == TASK_STARTED]
                    params = started[0].payload.get("params") \
                        if started else None
                    fn, args = main, [params]
                vm = fresh_vm()
                state, value = self._run_window(
                    service, execution,
                    lambda: service._run_top_call(vm, fn, list(args)))
                instructions += vm.instruction_count
                outcome = value if state == "suspended" else None
                if report is not None:
                    report.windows += 1

            while True:
                if state == "suspended" and outcome is not None:
                    descriptor = outcome.value \
                        if isinstance(outcome.value, dict) else \
                        {"kind": "await"}
                    event = cursor.next(FIBER_SUSPENDED)
                    recorded_why = event.payload.get("why")
                    if recorded_why != descriptor.get("kind", "await"):
                        raise ReplayDivergenceError(
                            cursor.task_id, fiber_id, event.seq,
                            f"suspend on {recorded_why!r}",
                            f"suspend on {descriptor.get('kind')!r}")
                    if stop_version is not None \
                            and event.payload.get("version") == stop_version:
                        return "continuation", outcome.continuation, \
                            instructions
                    continuation = outcome.continuation
                elif state == "suspended":
                    continuation = base[0]  # first window after a base
                else:
                    # terminal: verify against the recorded terminal
                    recorded = cursor.next(FIBER_COMPLETED, FIBER_FAILED)
                    expected_kind = FIBER_COMPLETED \
                        if state == "completed" else FIBER_FAILED
                    if recorded.kind != expected_kind:
                        raise ReplayDivergenceError(
                            cursor.task_id, fiber_id, recorded.seq,
                            recorded.kind, expected_kind)
                    if state == "completed":
                        if not _values_equal(service.codec,
                                             recorded.payload.get("result"),
                                             value):
                            raise ReplayDivergenceError(
                                cursor.task_id, fiber_id, recorded.seq,
                                f"result {recorded.payload.get('result')!r}",
                                f"result {value!r}")
                    else:
                        if recorded.payload.get("error") != value:
                            raise ReplayDivergenceError(
                                cursor.task_id, fiber_id, recorded.seq,
                                f"error {recorded.payload.get('error')!r}",
                                f"error {value!r}")
                    if not cursor.exhausted():
                        raise cursor.diverge(
                            "<further events>",
                            f"terminal {expected_kind} already reached")
                    return state, value, instructions

                # the fiber is suspended: the next event resumes it —
                # unless the stream ends here (swept by termination)
                if cursor.exhausted():
                    if stop_version is not None:
                        raise IncompleteHistoryError(
                            f"history of {fiber_id} ends before version "
                            f"{stop_version}")
                    if report is not None:
                        report.partial_fibers.append(fiber_id)
                    return "partial", None, instructions
                resume = cursor.next(*RESUME_KINDS)
                vm = fresh_vm()
                state, value = self._run_window(
                    service, execution,
                    lambda: vm.resume(continuation,
                                      resume.payload.get("value")))
                instructions += vm.instruction_count
                outcome = value if state == "suspended" else None
                if report is not None:
                    report.windows += 1
        finally:
            if report is not None:
                report.events_consumed += cursor.pos
                report.instructions += instructions
            distribution.CURRENT_EXECUTION.reset(cv_token)

    # -- recovery: rebuild a live continuation ---------------------------

    def rebuild(self, service, fiber, target_version: int,
                base=None) -> Tuple[Any, int]:
        """Rebuild ``fiber``'s continuation at ``target_version`` from
        the in-memory committed history (optionally forward from a
        ``(continuation, version)`` snapshot base).  Returns
        ``(continuation, instructions_executed)``."""
        recorder = self.env.history
        events = recorder.events_of(fiber.task_id)
        metrics = self.env.metrics
        tracer = self.env.cluster.tracer
        span = 0
        if tracer.enabled:
            span = tracer.begin("history.replay", kind="history",
                                start=self.env.cluster.kernel.now,
                                fiber=fiber.id, task=fiber.task_id,
                                mode="rebuild", target=target_version)
        try:
            kind, value, instructions = self.replay_fiber(
                service, fiber.task_id, events, fiber.id,
                stop_version=target_version, base=base)
        finally:
            if span:
                tracer.end(span, end=self.env.cluster.kernel.now)
        if kind != "continuation":  # pragma: no cover - guarded by caller
            raise ReplayError(
                f"rebuild of {fiber.id} reached {kind} before version "
                f"{target_version}")
        metrics.counter("history.rebuilds").inc()
        metrics.counter("history.rebuild_instructions").inc(instructions)
        return value, instructions

    # -- verification: replay a whole task -------------------------------

    def replay_task(self, task_id: str,
                    source: str = "log") -> ReplayReport:
        """Replay every fiber of ``task_id`` against its history and
        verify each recorded outcome; raises
        :exc:`ReplayDivergenceError` at the first mismatch.

        ``source`` selects the event stream: ``"log"`` reads (and
        integrity-checks) the durable batches — the verification mode
        CI uses — while ``"memory"`` uses the recorder's mirror.
        """
        service = self._service_for(task_id)
        if source == "log":
            events = self.env.history_log.read_task(task_id, service.codec)
        else:
            events = self.env.history.events_of(task_id)
        report = ReplayReport(task=task_id)
        fiber_ids = []
        seen = set()
        for event in events:
            if event.fiber and event.fiber not in seen:
                seen.add(event.fiber)
                fiber_ids.append(event.fiber)
        metrics = self.env.metrics
        tracer = self.env.cluster.tracer
        span = 0
        if tracer.enabled:
            span = tracer.begin("history.replay", kind="history",
                                start=self.env.cluster.kernel.now,
                                task=task_id, mode="verify",
                                fibers=len(fiber_ids))
        try:
            for fiber_id in fiber_ids:
                self.replay_fiber(service, task_id, events, fiber_id,
                                  report=report)
                report.fibers_replayed += 1
        except ReplayDivergenceError:
            metrics.counter("history.divergences").inc()
            raise
        finally:
            if span:
                tracer.end(span, end=self.env.cluster.kernel.now)
            metrics.counter("history.replays").inc()
        return report
