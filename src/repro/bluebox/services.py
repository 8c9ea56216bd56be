"""Service abstractions: what runs on BlueBox nodes.

"Operations are the only way to interact with a service in BlueBox and
the only way instances of services can interact with each other"
(paper Section 3.1).  A :class:`Service` publishes a WSDL and a set of
operation handlers; the cluster instantiates it on nodes and routes
queue messages to instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from .messagequeue import PRIORITY_NORMAL, ReplyTo
from .wsdl import WsdlDocument, WsdlOperation, WsdlParameter


class ServiceFault(Exception):
    """An operation-level error, identified by a QName.

    These travel in response messages and are re-signalled as Gozer
    conditions on the requesting side (paper Section 3.7: "the response
    from the service might be an error, conveniently expressed as an
    XML QName").
    """

    def __init__(self, qname: str, message: str = "", data: Any = None):
        super().__init__(f"{qname}: {message}")
        self.qname = qname
        self.message = message
        self.data = data


class OperationContext:
    """Everything a handler may do while processing one message.

    * ``charge(seconds)`` — consume simulated processing time; the
      instance slot stays busy for the total charged duration.
    * ``send(...)`` — place a new message on the queue.
    * ``now`` — current virtual time.
    * ``node``/``instance`` — where this handler is running (fiber
      cache lookups are per-instance, Section 4.2).
    """

    def __init__(self, cluster, instance, message):
        self.cluster = cluster
        self.instance = instance
        self.message = message
        self.charged = 0.0
        #: the current causal span (the operation window, or — while a
        #: fiber advances — its fiber-run span).  Sends from this
        #: context parent their queue-hop spans here; 0 when tracing
        #: is disabled.
        self.span_id = 0
        #: buffered outgoing messages: (extra_delay, send kwargs).
        #: Flushed when the simulated window ends — message sends are
        #: transactional with the operation, so a node failure
        #: mid-window sends nothing (the redelivered operation will).
        self.outbox = []
        #: run when the operation's simulated window ends normally
        self.completion_hooks = []
        #: run if the node dies before the window ends
        self.abort_hooks = []

    def on_complete(self, fn: Callable[[], None]) -> None:
        """Register a hook for the end of this operation's simulated
        processing window (e.g. releasing a fiber lock held for the
        whole window)."""
        self.completion_hooks.append(fn)

    def on_abort(self, fn: Callable[[], None]) -> None:
        """Register a hook for node failure mid-window (e.g. a lock
        coordinator expiring the dead node's session)."""
        self.abort_hooks.append(fn)

    @property
    def now(self) -> float:
        return self.cluster.kernel.now

    @property
    def node(self):
        return self.instance.node

    def charge(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self.charged += seconds

    def send(self, service: str, operation: str, body: Dict[str, Any],
             priority: int = PRIORITY_NORMAL,
             reply_to: Optional[ReplyTo] = None,
             max_attempts: int = 10,
             affinity: Optional[str] = None,
             retry_policy: Optional[Any] = None,
             parent_span: Optional[int] = None) -> None:
        """Queue a message, to be placed on the queue when this
        operation's simulated processing window ends.  The outgoing
        message's causal parent is captured *now* (``parent_span``
        defaulting to the context's current span), so causality is
        preserved even though the send is deferred to window end."""
        self.outbox.append((0.0, dict(service=service, operation=operation,
                                      body=body, priority=priority,
                                      reply_to=reply_to,
                                      max_attempts=max_attempts,
                                      affinity=affinity,
                                      retry_policy=retry_policy,
                                      parent_span=(self.span_id
                                                   if parent_span is None
                                                   else parent_span))))

    def send_later(self, delay: float, service: str, operation: str,
                   body: Dict[str, Any],
                   priority: int = PRIORITY_NORMAL,
                   affinity: Optional[str] = None) -> None:
        """Like :meth:`send`, delayed a further ``delay`` seconds after
        the window ends (used for timers like workflow-sleep)."""
        self.outbox.append((delay, dict(service=service, operation=operation,
                                        body=body, priority=priority,
                                        affinity=affinity,
                                        parent_span=self.span_id)))

    def flush_outbox(self) -> None:
        """Dispatch buffered sends (called by the cluster at window
        end, or immediately for inline synchronous calls)."""
        outbox, self.outbox = self.outbox, []
        for delay, kwargs in outbox:
            if delay > 0:
                self.cluster.kernel.schedule(
                    delay, lambda kw=kwargs: self.cluster.send(**kw))
            else:
                self.cluster.send(**kwargs)

    def defer(self) -> Deferred:
        """Capture this message's reply for later resolution."""
        return Deferred(self.cluster, self.message.reply_to)

    def event(self, kind: str, **attrs: Any) -> None:
        """Record a point event under this window's current span."""
        self.cluster.tracer.event(kind, self.now + self.charged,
                                  self.span_id, **attrs)


class Deferred:
    """Returned by a handler to postpone its reply.

    Synchronous workflow operations (Run, Call, JoinProcess) cannot
    answer until the task finishes; the handler captures the message's
    ``reply_to`` in a :class:`Deferred` and resolves it later.
    """

    def __init__(self, cluster, reply_to: Optional[ReplyTo]):
        self._cluster = cluster
        self._reply_to = reply_to
        self.resolved = False

    def resolve(self, value: Any = None) -> None:
        self._send(ResponseEnvelope(value=value))

    def fail(self, qname: str, message: str = "") -> None:
        self._send(ResponseEnvelope(fault_qname=qname, fault_message=message))

    def _send(self, envelope: "ResponseEnvelope") -> None:
        if self.resolved:
            return
        self.resolved = True
        if self._reply_to is not None:
            self._cluster._route_reply(self._reply_to, envelope)


class Requeue:
    """Returned by a handler to put its message back on the queue.

    Used by AwakeFiber when the fiber's lock is held elsewhere: "a
    running AwakeFiber places a strict limit on how long it will wait
    for its turn to execute the fiber before giving up and placing
    itself back on the message queue for later delivery" (paper
    Section 5).  The handler charges the patience time it spent waiting
    before giving up; ``delay`` is the re-delivery delay.
    """

    def __init__(self, delay: float = 0.0):
        self.delay = delay


#: handler signature: (context, body-dict) -> result value
OperationHandler = Callable[[OperationContext, Dict[str, Any]], Any]


class Service:
    """Base class for BlueBox services.

    Subclasses (or instances built with :meth:`add_operation`) register
    handlers per operation name.  ``base_latency`` is the default
    simulated processing cost charged for every operation on top of
    whatever the handler charges.
    """

    def __init__(self, name: str, namespace: Optional[str] = None,
                 doc: str = "", base_latency: float = 0.001):
        self.name = name
        self.namespace = namespace or f"urn:{name.lower()}-service"
        self.base_latency = base_latency
        self._handlers: Dict[str, OperationHandler] = {}
        self.wsdl = WsdlDocument(service=name, namespace=self.namespace,
                                 port=name, doc=doc)

    def add_operation(self, name: str, handler: OperationHandler,
                      doc: str = "", parameters=None, output: str = "any",
                      faults=None, bridgeable: bool = True) -> None:
        """Register an operation and publish it in the WSDL."""
        self._handlers[name] = handler
        self.wsdl.add_operation(WsdlOperation(
            name=name, doc=doc,
            parameters=[p if isinstance(p, WsdlParameter) else WsdlParameter(p)
                        for p in (parameters or [])],
            output=output,
            faults=list(faults or []),
            bridgeable=bridgeable,
        ))

    def operation_names(self):
        return list(self._handlers)

    def handle(self, context: OperationContext, operation: str,
               body: Dict[str, Any]) -> Any:
        handler = self._handlers.get(operation)
        if handler is None:
            raise ServiceFault(self.wsdl.fault_qname("NoSuchOperation"),
                               f"{self.name} has no operation {operation}")
        context.charge(self.base_latency)
        return handler(context, body)

    def on_deployed(self, cluster) -> None:
        """Hook: called once when the service is deployed to a cluster."""

    def __repr__(self) -> str:
        return f"<Service {self.name} ops={sorted(self._handlers)}>"


def simple_service(name: str, operations: Dict[str, OperationHandler],
                   namespace: Optional[str] = None,
                   base_latency: float = 0.001,
                   parameters: Optional[Dict[str, list]] = None) -> Service:
    """Convenience constructor used heavily by tests and workloads.

    ``parameters`` optionally maps operation name -> list of parameter
    names to publish in the WSDL (deflink generates ``&key`` arguments
    from these).
    """
    service = Service(name, namespace=namespace, base_latency=base_latency)
    parameters = parameters or {}
    for op_name, handler in operations.items():
        service.add_operation(op_name, handler,
                              parameters=parameters.get(op_name, []))
    return service


@dataclass
class ResponseEnvelope:
    """What goes back to a requester: a value or a fault.

    ``duration`` (simulated seconds of processing) is local metadata —
    it never travels in the serialized body; the adaptive-migration
    learner reads it from synchronous inline calls.
    """

    value: Any = None
    fault_qname: Optional[str] = None
    fault_message: str = ""
    duration: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.fault_qname is None

    def to_body(self) -> Dict[str, Any]:
        if self.ok:
            return {"result": self.value}
        return {"fault": self.fault_qname, "message": self.fault_message}

    @classmethod
    def from_body(cls, body: Dict[str, Any]) -> "ResponseEnvelope":
        if "fault" in body:
            return cls(fault_qname=body["fault"],
                       fault_message=body.get("message", ""))
        return cls(value=body.get("result"))
