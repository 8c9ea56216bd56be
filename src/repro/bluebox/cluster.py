"""The simulated BlueBox cluster.

Nodes host service instances; the message queue load-balances operation
requests across them.  The cluster is driven by the discrete-event
kernel (:mod:`repro.bluebox.clock`), so every run is deterministic given
a seed, and simulated days finish in real milliseconds.

Failure semantics follow the paper (Section 3.2): when an instance dies
mid-request, the message queue re-delivers the message to another
instance, so "the failure of any instance will result in only minimal
delays as other instances automatically compensate".

A node's request slots are shared by every service deployed on it —
the cluster-operations reality behind the paper's Section 5 remark that
"because instances are often shared across services, even unrelated
service operations may be blocked".
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Callable, Dict, List, Optional

from ..faults.retry import RetryPolicy
from ..observe import MetricsRegistry, SpanTracer
from ..sched.admission import (
    DELAY as ADMIT_DELAY,
    SERVER_BUSY_QNAME,
    SHED as ADMIT_SHED,
    make_admission,
)
from ..sched.fair import make_policy
from .clock import SimKernel
from .messagequeue import (
    Message,
    MessageQueue,
    PRIORITY_NORMAL,
    ReplyTo,
    _trace_ids,
)
from .store import StoreError
from .services import (
    OperationContext,
    ResponseEnvelope,
    Service,
    ServiceFault,
)
from .wsdl import WsdlDocument


class Node:
    """One machine in the cluster."""

    def __init__(self, node_id: str, slots: int = 1):
        self.id = node_id
        self.slots = slots
        self.busy = 0
        self.alive = True
        self.services: Dict[str, "ServiceInstance"] = {}
        #: arbitrary per-node memory — Vinz hangs the fiber cache here
        self.memory: Dict[str, Any] = {}
        # statistics
        self.processed = 0
        self.busy_time = 0.0

    @property
    def free_slots(self) -> int:
        return self.slots - self.busy if self.alive else 0

    def __repr__(self) -> str:
        state = "up" if self.alive else "DOWN"
        return f"<Node {self.id} {state} {self.busy}/{self.slots} busy>"


class ServiceInstance:
    """One service deployed on one node."""

    _ids = itertools.count(1)

    def __init__(self, node: Node, service: Service):
        self.id = f"{service.name}@{node.id}"
        self.node = node
        self.service = service
        self.processed = 0

    def __repr__(self) -> str:
        return f"<Instance {self.id}>"


class _InFlight:
    """A request being processed; ``valid`` is cleared on node failure."""

    def __init__(self, message: Message, instance: ServiceInstance,
                 started: float):
        self.message = message
        self.instance = instance
        self.started = started
        self.valid = True
        self.context: Optional[OperationContext] = None
        #: the operation-window span (0 when tracing is disabled)
        self.span_id = 0
        #: the window's sealed journal batch (durable store only),
        #: committed when the window completes, discarded if it dies
        self.batch = None


class Cluster:
    """The simulated BlueBox environment.

    Typical setup::

        cluster = Cluster(seed=1)
        cluster.add_nodes(4, slots=2)
        cluster.deploy(my_service)
        envelope = cluster.call("MyService", "DoThing", {"x": 1})
    """

    def __init__(self, seed: int = 0, delivery_latency: float = 0.002,
                 redelivery_delay: float = 0.05, trace: bool = True,
                 retry_policy: Optional[RetryPolicy] = None,
                 scheduler: Any = None,
                 admission: Any = None):
        self.kernel = SimKernel()
        #: the one metrics registry (repro.observe), always on; every
        #: component the cluster or Vinz builds is handed this one
        self.metrics = MetricsRegistry()
        #: message ordering is the scheduling policy's job
        #: (repro.sched.fair): None/"strict" reproduces the paper's
        #: strict priority heap; "fair" is deficit round-robin across
        #: workflows with priority aging
        self.queue = MessageQueue(policy=make_policy(scheduler),
                                  metrics=self.metrics)
        #: optional admission control (repro.sched.admission): depth/
        #: in-flight watermarks that delay or shed work at the front
        #: door.  None (the default) accepts everything, as the paper's
        #: production system does.
        self.admission = make_admission(admission)
        #: causal span tracing (repro.observe), the one event record;
        #: ``trace`` switches it.  Hot paths guard on the single
        #: ``enabled`` flag, so a disabled tracer allocates nothing.
        self.tracer = SpanTracer(enabled=trace)
        self.queue.tracer = self.tracer
        self.queue.now_fn = lambda: self.kernel.now
        self.rng = random.Random(seed)
        self.delivery_latency = delivery_latency
        self.redelivery_delay = redelivery_delay
        #: governs fault retries (drops, store faults): backoff delays,
        #: attempt caps, timeouts.  The platform default reproduces the
        #: legacy constant-delay, per-message-cap behaviour; campaigns
        #: pass RetryPolicy.default() (or per-message policies) for
        #: bounded exponential backoff and dead-lettering.
        self.retry_policy = retry_policy or \
            RetryPolicy.platform(redelivery_delay)
        #: optional FaultInjector (repro.faults), wired by install()
        self.injector = None
        #: the distributed lock manager (repro.bluebox.locks), wired by
        #: VinzEnvironment.  When it has leases enabled the cluster
        #: heartbeats long operation windows, validates fencing tokens
        #: at window completion, and — as the lock manager's
        #: ``lease_breaker`` — aborts a zombie holder's in-flight
        #: window before an expiry/steal hands the lock to a new owner
        self.lock_manager = None
        #: a window-capable store (repro.durastore.DurableStore), wired
        #: by VinzEnvironment when the shared store supports group
        #: commit: each operation window's mutations seal into one
        #: journal batch, committed as the window completes
        self.durable_store = None
        #: called with each dead-lettered Message (Vinz fails the
        #: owning task/fiber so nothing hangs silently)
        self.dead_letter_listeners: List[Callable[[Message], None]] = []
        self.nodes: Dict[str, Node] = {}
        self.services: Dict[str, Service] = {}
        #: per-operation durations: the spawn governor's latency signal
        self._op_duration = self.metrics.histogram("op.duration")
        self._lease_renewed = self.metrics.counter("lease.renewed")
        self._in_flight: List[_InFlight] = []
        self._node_seq = itertools.count(1)

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    def add_node(self, node_id: Optional[str] = None, slots: int = 1) -> Node:
        node = Node(node_id or f"node-{next(self._node_seq)}", slots=slots)
        self.nodes[node.id] = node
        # a new node hosts every already-deployed service
        for service in self.services.values():
            node.services[service.name] = ServiceInstance(node, service)
        self._kick_all()
        return node

    def add_nodes(self, count: int, slots: int = 1) -> List[Node]:
        return [self.add_node(slots=slots) for _ in range(count)]

    def deploy(self, service: Service,
               node_ids: Optional[List[str]] = None) -> Service:
        """Deploy ``service`` on the given nodes (default: all nodes)."""
        self.services[service.name] = service
        targets = ([self.nodes[nid] for nid in node_ids] if node_ids
                   else list(self.nodes.values()))
        for node in targets:
            node.services[service.name] = ServiceInstance(node, service)
        service.on_deployed(self)
        self._kick(service.name)
        return service

    def get_wsdl(self, service_name: str) -> WsdlDocument:
        """Fetch a service's interface document (what deflink does)."""
        service = self.services.get(service_name)
        if service is None:
            raise KeyError(f"no service named {service_name!r} is deployed")
        return service.wsdl

    def find_service_by_namespace(self, namespace: str) -> Optional[Service]:
        for service in self.services.values():
            if service.namespace == namespace:
                return service
        return None

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------

    def send(self, service: str, operation: str, body: Dict[str, Any],
             priority: int = PRIORITY_NORMAL,
             reply_to: Optional[ReplyTo] = None,
             max_attempts: int = 10,
             affinity: Optional[str] = None,
             retry_policy: Optional[RetryPolicy] = None,
             parent_span: int = 0) -> Message:
        """Place a message on the queue (asynchronous).

        ``parent_span`` is the causal span that initiated this send
        (the sender's operation window or fiber run); the message's
        queue-hop span becomes its child.
        """
        if service not in self.services:
            raise KeyError(f"no service named {service!r} is deployed")
        message = self.queue.make_message(service, operation, body,
                                          priority=priority,
                                          reply_to=reply_to,
                                          now=self.kernel.now,
                                          max_attempts=max_attempts,
                                          affinity=affinity,
                                          retry_policy=retry_policy,
                                          parent_span=parent_span)
        if self.admission is not None and not self._admit(message):
            return message
        self.queue.enqueue(message, self.kernel.now)
        self.kernel.schedule(self.delivery_latency,
                             lambda: self._kick(service))
        return message

    def _admit(self, message: Message) -> bool:
        """Run a new message through admission control.

        Returns True when the message was enqueued normally should
        proceed (ACCEPT); on DELAY the enqueue is rescheduled after a
        backoff, on SHED the caller is answered immediately with a
        retryable ServerBusy fault — in both cases False is returned
        and :meth:`send` stops there.
        """
        service = message.service
        in_flight = sum(1 for r in self._in_flight
                        if r.message.service == service)
        backlog = self.queue.peek_depth(service) + in_flight
        slots = sum(n.slots for n in self.nodes.values()
                    if n.alive and service in n.services)
        # a request nobody awaits can only be delayed, never shed:
        # there is no caller to hand the ServerBusy fault to
        sheddable = message.reply_to is not None
        verdict, delay = self.admission.decide(
            service, message.operation, backlog, slots, sheddable)
        if verdict == ADMIT_SHED:
            self._record_admission(message, verdict, backlog, delay)
            self._route_reply(message.reply_to, ResponseEnvelope(
                fault_qname=SERVER_BUSY_QNAME,
                fault_message=f"{service}.{message.operation} shed: "
                              f"backlog {backlog} over {slots} slots"),
                parent_span=message.parent_span)
            return False
        if verdict == ADMIT_DELAY:
            self._record_admission(message, verdict, backlog, delay)
            self.kernel.schedule(
                delay, lambda m=message: (
                    self.queue.enqueue(m, self.kernel.now),
                    self.kernel.schedule(self.delivery_latency,
                                         lambda: self._kick(m.service))))
            return False
        return True

    def _record_admission(self, message: Message, verdict: str,
                          backlog: int, delay: float) -> None:
        self.metrics.counter(
            "sched.admission.shed" if verdict == ADMIT_SHED
            else "sched.admission.delayed").inc()
        self.metrics.gauge(f"sched.backlog.{message.service}").set(backlog)
        if self.tracer.enabled:
            span = self.tracer.begin(
                f"sched:{verdict}:{message.service}", kind="sched",
                start=self.kernel.now,
                parent_id=message.parent_span or None, msg=message.id,
                service=message.service, operation=message.operation,
                backlog=backlog, delay=round(delay, 6),
                **_trace_ids(message.body))
            self.tracer.end(span, end=self.kernel.now + delay)

    def call(self, service: str, operation: str, body: Dict[str, Any],
             priority: int = PRIORITY_NORMAL,
             timeout: Optional[float] = None) -> ResponseEnvelope:
        """Synchronous call from *outside* the cluster.

        Runs the simulation until the response arrives (or the optional
        virtual-time timeout passes).
        """
        holder: List[ResponseEnvelope] = []

        def callback(response_body: Dict[str, Any]) -> None:
            holder.append(ResponseEnvelope.from_body(response_body))

        self.send(service, operation, body, priority=priority,
                  reply_to=ReplyTo(callback=callback))
        deadline = (self.kernel.now + timeout) if timeout is not None else None
        satisfied = self.kernel.run_until(lambda: bool(holder),
                                          deadline=deadline)
        if not satisfied:
            raise TimeoutError(
                f"{service}.{operation} did not respond "
                f"(queue depth {self.queue.total_depth()})")
        return holder[0]

    def call_inline(self, service_name: str, operation: str,
                    body: Dict[str, Any],
                    parent_context: Optional[OperationContext] = None
                    ) -> ResponseEnvelope:
        """A *synchronous* service request, bypassing the queue.

        This is the path the paper prescribes for requests from a
        future's background thread and for operations the programmer
        marks synchronous (Section 3.2): the sender blocks while the
        operation runs, so the time is charged to the sender's own slot.
        """
        service = self.services.get(service_name)
        if service is None:
            raise KeyError(f"no service named {service_name!r} is deployed")
        hosts = [node for node in self.nodes.values()
                 if node.alive and service_name in node.services]
        if not hosts:
            raise KeyError(f"no alive instance of {service_name!r}")
        node = self.rng.choice(hosts)
        instance = node.services[service_name]
        message = self.queue.make_message(service_name, operation, body,
                                          now=self.kernel.now)
        context = OperationContext(self, instance, message)
        self.metrics.counter(f"sync.{service_name}.{operation}").inc()
        try:
            value = service.handle(context, operation, body)
            envelope = ResponseEnvelope(value=value)
        except ServiceFault as fault:
            envelope = ResponseEnvelope(fault_qname=fault.qname,
                                        fault_message=fault.message)
        context.flush_outbox()  # synchronous call: effects are immediate
        envelope.duration = context.charged + 2 * self.delivery_latency
        if parent_context is not None:
            # the synchronous caller pays for the whole round trip
            parent_context.charge(envelope.duration)
        return envelope

    def run_until_idle(self) -> float:
        return self.kernel.run_until_idle()

    def run_until(self, predicate: Callable[[], bool],
                  deadline: Optional[float] = None) -> bool:
        return self.kernel.run_until(predicate, deadline=deadline)

    # ------------------------------------------------------------------
    # dispatch machinery
    # ------------------------------------------------------------------

    def _kick_all(self) -> None:
        for service_name in self.queue.services_with_messages():
            self._kick(service_name)

    def _kick(self, service_name: str) -> None:
        """Deliver queued messages for a service while slots are free."""
        while self._dispatch_one(service_name):
            pass

    def _dispatch_one(self, service_name: str) -> bool:
        pending = self.queue.peek_message(service_name)
        if pending is None:
            return False
        instance = self._pick_instance(service_name, pending.affinity)
        if instance is None:
            return False
        message = self.queue.pop_next(service_name, self.kernel.now)
        if message is None:  # pragma: no cover - guarded by peek
            return False
        # the hop span this delivery belongs to — captured now because a
        # duplicate-injection push_back below re-points message.span_id
        # at the duplicate's own fresh hop span
        hop_span = message.span_id
        if self.injector is not None:
            decision = self.injector.on_deliver(message)
            if decision is not None:
                action, delay = decision
                if action == "drop":
                    # at-least-once semantics: the lost delivery
                    # consumes an attempt; redelivery (or the DLQ)
                    # is driven by the message's retry policy
                    self._retry_or_dead_letter(message, "delivery dropped")
                    return True
                if action == "delay":
                    self.kernel.schedule(
                        max(delay, 0.0),
                        lambda m=message: (self.queue.push_back(m),
                                           self._kick(m.service)))
                    return True
                if action == "duplicate":
                    # deliver now *and* enqueue the same message again
                    # (same id — receivers must be idempotent)
                    self.queue.duplicated += 1
                    self.queue.push_back(message)
        if message.affinity is not None:
            if instance.node.id == message.affinity:
                self.metrics.counter("placement.affinity-hit").inc()
            else:
                self.metrics.counter("placement.affinity-miss").inc()
        self._process(instance, message, hop_span=hop_span)
        return True

    def _kick_node(self, node: Node) -> None:
        """A slot freed on ``node``: deliver waiting work in *global*
        priority order across every service the node hosts — this is
        what keeps interactive traffic ahead of batch AwakeFiber storms
        (paper Sections 3.2 and 5)."""
        while True:
            best = None
            for service_name in node.services:
                peek = self.queue.peek_priority(service_name)
                if peek is not None and (best is None or peek < best[0]):
                    best = (peek, service_name)
            if best is None:
                return
            if not self._dispatch_one(best[1]):
                return

    def _pick_instance(self, service_name: str,
                       affinity: Optional[str] = None
                       ) -> Optional[ServiceInstance]:
        """Load balancing: the free instance on the least-busy node.

        A message's ``affinity`` hint wins when that node can take the
        work right now; otherwise normal balancing applies (the hint is
        soft — correctness never depends on it).
        """
        if affinity is not None:
            preferred = self.nodes.get(affinity)
            if preferred is not None and preferred.alive \
                    and service_name in preferred.services \
                    and preferred.free_slots > 0:
                return preferred.services[service_name]
        candidates = [node.services[service_name]
                      for node in self.nodes.values()
                      if node.alive and service_name in node.services
                      and node.free_slots > 0]
        if not candidates:
            return None
        # least-loaded: rank by busy *fraction*, not absolute busy
        # count, so a 2-slot node at 1/2 ranks behind an 8-slot node at
        # 1/8 on heterogeneous clusters (identical ordering when every
        # node has the same slot count)
        least = min(c.node.busy / c.node.slots for c in candidates)
        pool = [c for c in candidates
                if c.node.busy / c.node.slots == least]
        return self.rng.choice(pool)

    def _process(self, instance: ServiceInstance, message: Message,
                 hop_span: int = 0) -> None:
        node = instance.node
        node.busy += 1
        started = self.kernel.now
        record = _InFlight(message, instance, started)
        self._in_flight.append(record)
        context = OperationContext(self, instance, message)
        record.context = context
        if self.tracer.enabled:
            record.span_id = self.tracer.begin(
                f"op:{message.service}.{message.operation}", kind="operation",
                start=started, parent_id=hop_span or None, node=node.id,
                msg=message.id, **_trace_ids(message.body))
            context.span_id = record.span_id
        if self.durable_store is not None:
            self.durable_store.begin_window()
        try:
            value = instance.service.handle(context, message.operation,
                                            message.body)
            envelope = ResponseEnvelope(value=value)
        except ServiceFault as fault:
            envelope = ResponseEnvelope(fault_qname=fault.qname,
                                        fault_message=fault.message)
        except StoreError as err:
            # a store IO fault (or injected corruption) surfaced while
            # processing: abort the window — roll back state, free the
            # slot — and retry the message per its policy
            if self.durable_store is not None:
                self.durable_store.abort_window()
            self._abort_window(record, f"store fault: {err}")
            return
        if self.durable_store is not None:
            if record.valid:
                # group commit: the window's writes become one journal
                # batch; its IO cost lands inside the window duration
                record.batch = self.durable_store.seal_window()
                if record.batch is not None:
                    context.charge(record.batch.cost)
            else:
                # the node died mid-handler (crash-on-persist): the
                # abort hooks already rolled state back; the buffered
                # records must never reach the journal
                self.durable_store.abort_window()
        duration = max(context.charged, 1e-6)
        if self.injector is not None:
            duration *= self.injector.slow_factor(node.id, started)
        if not record.valid:
            # the node died (or was crashed by the injector) while the
            # handler ran: fail_node already rolled back and requeued
            self._kick_node(node)
            return
        self._schedule_heartbeats(record, duration)
        self.kernel.schedule(
            duration, lambda: self._complete(record, envelope, duration))

    @staticmethod
    def _window_owner(record: "_InFlight") -> str:
        """The lock-owner identity this window's handler used
        (one place: LockManager.owner_node parses it back)."""
        return f"{record.instance.id}#{record.message.id}"

    def _schedule_heartbeats(self, record: "_InFlight",
                             duration: float) -> None:
        """Keep a long window's lock leases alive while its node is.

        The chain self-terminates: each beat reschedules only while the
        window is still in flight on a live node, so `run_until_idle`
        always drains.  A crashed node stops beating — which is exactly
        what lets its leases lapse and recovery begin.
        """
        lm = self.lock_manager
        if lm is None or lm.lease_ttl <= 0 or lm.heartbeat_interval <= 0:
            return
        interval = lm.heartbeat_interval
        if duration <= interval:
            return  # the window ends (and releases) before a beat is due
        owner = self._window_owner(record)
        if not lm.locks_of(owner):
            return  # this window holds no leases
        deadline = self.kernel.now + duration

        def beat() -> None:
            if not record.valid or not record.instance.node.alive:
                return  # dead window / dead node: the lease must lapse
            if lm.renew_owner(owner):
                self._lease_renewed.inc()
            if self.kernel.now + interval < deadline:
                self.kernel.schedule(interval, beat)

        self.kernel.schedule(interval, beat)

    def break_window_for(self, key: str, owner: str, reason: str) -> bool:
        """The lock manager's ``lease_breaker``: a lease on ``key`` held
        by ``owner`` is being expired or stolen — abort that owner's
        in-flight window *now*, so its rollback lands before the new
        owner reads any state.  Returns True when a window was broken.
        """
        for record in list(self._in_flight):
            if record.valid and self._window_owner(record) == owner:
                self.metrics.counter("lease.window-broken").inc()
                self._abort_window(record,
                                   f"lease on {key} broken: {reason}")
                return True
        return False

    def _complete(self, record: _InFlight, envelope: ResponseEnvelope,
                  duration: float) -> None:
        if not record.valid:
            return  # the node died while processing; message was requeued
        if self.lock_manager is not None and record.context is not None:
            # fencing: a window whose lock grant was superseded while it
            # ran (lease expired, lock stolen by a new owner) must not
            # commit — its effects roll back and the message retries.
            # Normally the lease breaker already aborted such windows
            # synchronously at steal time; this is the last line of
            # defense for expiries that bypassed it.
            fence = getattr(record.context, "fence", None)
            if fence is not None \
                    and not self.lock_manager.fence_valid(*fence):
                self.lock_manager.fence_rejections += 1
                self.metrics.counter("lease.fence-rejected").inc()
                self._abort_window(record, "fencing token superseded")
                return
        if self.durable_store is not None and record.batch is not None:
            # the group commit: one journal append for the whole
            # window.  A torn-commit fault aborts the window — state
            # rolls back via the undo hooks, the partial record is
            # dropped by the next replay, and the message retries.
            batch, record.batch = record.batch, None
            try:
                self.durable_store.commit_batch(batch)
            except StoreError as err:
                self._abort_window(record, f"journal fault: {err}")
                return
        self._in_flight.remove(record)
        node = record.instance.node
        node.busy -= 1
        node.processed += 1
        node.busy_time += duration
        record.instance.processed += 1
        self.metrics.counter(
            f"op.{record.message.service}.{record.message.operation}").inc()
        self._op_duration.observe(duration)
        message = record.message
        if record.context is not None:
            for hook in record.context.completion_hooks:
                hook()
        from .services import Deferred, Requeue

        if record.context is not None and \
                not isinstance(envelope.value, Requeue):
            # transactional sends: the operation's outgoing messages hit
            # the queue now, at the end of its simulated window
            record.context.flush_outbox()
        if isinstance(envelope.value, Requeue):
            # the handler backed off (e.g. AwakeFiber lock patience):
            # the message goes back on the queue, keeping its reply_to
            if record.span_id:
                self.tracer.end(record.span_id, end=self.kernel.now,
                                requeued=True)
            delay = envelope.value.delay
            if self.queue.requeue(message, self.kernel.now):
                self.kernel.schedule(max(delay, 0.0),
                                     lambda s=message.service: self._kick(s))
            else:
                self._on_dead_letter(message, "voluntary requeues exhausted")
            self._kick_node(node)
            return
        if record.span_id:
            self.tracer.end(record.span_id, end=self.kernel.now,
                            ok=envelope.ok)
        if isinstance(envelope.value, Deferred):
            pass  # reply postponed; the Deferred resolves it later
        elif message.reply_to is not None:
            self._route_reply(message.reply_to, envelope,
                              parent_span=record.span_id)
        # the freed slot may unblock any service on this node
        self._kick_node(node)

    def _route_reply(self, reply_to: ReplyTo, envelope: ResponseEnvelope,
                     parent_span: int = 0) -> None:
        body = envelope.to_body()
        if reply_to.callback is not None:
            callback = reply_to.callback
            self.kernel.schedule(self.delivery_latency,
                                 lambda: callback(body))
            return
        merged = dict(reply_to.extra)
        merged["response"] = body
        self.send(reply_to.service, reply_to.operation, merged,
                  max_attempts=1_000_000, affinity=reply_to.affinity,
                  parent_span=parent_span)

    # ------------------------------------------------------------------
    # retry / dead-letter machinery
    # ------------------------------------------------------------------

    def _abort_window(self, record: "_InFlight", reason: str) -> None:
        """An operation failed mid-window (store fault): run its abort
        hooks (state rollback, lock release), free the slot, and retry
        the message per its policy — the same recovery path a node
        death takes, but for a single failed operation."""
        record.valid = False
        if record in self._in_flight:
            self._in_flight.remove(record)
        node = record.instance.node
        node.busy -= 1
        if self.durable_store is not None and record.batch is not None:
            # sealed but never committed (fence rejection, lease steal
            # mid-window): the batch must not reach the journal
            self.durable_store.discard_batch(record.batch)
            record.batch = None
        if record.context is not None:
            for hook in record.context.abort_hooks:
                hook()
        if record.span_id:
            self.tracer.end(record.span_id, end=self.kernel.now,
                            aborted=True, error=reason)
        self.metrics.counter("operation.faults").inc()
        self._retry_or_dead_letter(record.message, reason)
        self._kick_node(node)

    def _retry_or_dead_letter(self, message: Message, reason: str) -> bool:
        """Consume one delivery attempt; either schedule a backoff
        retry or move the message to the dead-letter queue.  Returns
        True when a retry was scheduled."""
        policy = message.retry_policy or self.retry_policy
        now = self.kernel.now
        if policy.expired(message.first_enqueued_at, now):
            message.attempts += 1
            self.queue.dead_letter(message)
            self._on_dead_letter(message, f"{reason}; retry timeout expired")
            return False
        cap = policy.max_attempts if policy.max_attempts is not None \
            else message.max_attempts
        if not self.queue.requeue(message, now, cap=cap, push=False):
            self._on_dead_letter(message, f"{reason}; attempts exhausted")
            return False
        delay = policy.backoff_delay(message.attempts, self.rng)
        self.metrics.counter("retry.scheduled").inc()
        self.kernel.schedule(
            delay, lambda m=message: (self.queue.push_back(m),
                                      self._kick(m.service)))
        return True

    def _on_dead_letter(self, message: Message, reason: str) -> None:
        """Observability + liveness when a message dead-letters: record
        a point event under its first queue hop, answer any waiting
        requester with a fault (so synchronous callers and suspended
        fibers get a signalable condition instead of hanging), and tell
        the listeners (Vinz fails the owning fiber/task through the
        normal error path)."""
        self.tracer.event("dead-letter", self.kernel.now,
                          message.origin_span_id, msg=message.id,
                          service=message.service,
                          operation=message.operation,
                          attempts=message.attempts, reason=reason)
        self.metrics.counter("deadletter.enqueued").inc()
        if message.reply_to is not None:
            self._route_reply(message.reply_to, ResponseEnvelope(
                fault_qname="{urn:bluebox}DeadLettered",
                fault_message=f"{message.service}.{message.operation} "
                              f"dead-lettered: {reason}"),
                parent_span=message.origin_span_id)
        for listener in self.dead_letter_listeners:
            listener(message)

    # ------------------------------------------------------------------
    # failure injection (survivability, paper Section 3.2)
    # ------------------------------------------------------------------

    def fail_node(self, node_id: str) -> int:
        """Kill a node.  In-flight messages are re-queued for delivery
        elsewhere; per-node memory (caches) is lost.  Returns how many
        requests were re-queued."""
        node = self.nodes[node_id]
        node.alive = False
        node.memory.clear()
        requeued = 0
        for record in list(self._in_flight):
            if record.instance.node is node:
                record.valid = False
                self._in_flight.remove(record)
                node.busy -= 1
                if self.durable_store is not None \
                        and record.batch is not None:
                    # sealed but never committed: the batch dies with
                    # the node and replay excludes it by construction
                    self.durable_store.discard_batch(record.batch)
                    record.batch = None
                if record.context is not None:
                    # a *dirty* crash: abort hooks that model work the
                    # dead JVM could never do (releasing an NFS lock
                    # file) check this flag and abandon instead
                    record.context.node_failed = True
                    for hook in record.context.abort_hooks:
                        hook()
                message = record.message
                if record.span_id:
                    self.tracer.end(record.span_id, end=self.kernel.now,
                                    aborted=True, error="node-failure")
                if self.queue.requeue(message, self.kernel.now):
                    requeued += 1
                    service = message.service
                    self.kernel.schedule(self.redelivery_delay,
                                         lambda s=service: self._kick(s))
                else:
                    self._on_dead_letter(
                        message, f"redelivery after {node.id} failure "
                                 f"exhausted attempts")
        return requeued

    def restore_node(self, node_id: str) -> None:
        node = self.nodes[node_id]
        node.alive = True
        self._kick_all()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def alive_nodes(self) -> List[Node]:
        return [n for n in self.nodes.values() if n.alive]

    def total_slots(self) -> int:
        return sum(n.slots for n in self.alive_nodes())

    def utilization(self) -> float:
        """Mean busy fraction across alive nodes since t=0."""
        now = self.kernel.now
        if now <= 0:
            return 0.0
        capacity = sum(n.slots for n in self.nodes.values()) * now
        busy = sum(n.busy_time for n in self.nodes.values())
        return busy / capacity if capacity else 0.0
