"""Causal spans: the platform's one event record.

A :class:`Span` is a named interval of virtual (or real) time with a
parent link; a :class:`SpanTracer` owns them.  The span kinds the
platform emits, and how they nest for one task:

.. code-block:: text

    task:T1                               (root of the task's tree)
    └─ fiber:F1                           fiber lifetime
       └─ queue-hop RunFiber              enqueue -> delivery wait
          └─ op Sample.RunFiber           the operation window on a node
             └─ fiber-run F1              the GVM advancing the fiber
                ├─ persist.encode         continuation -> blob -> store
                ├─ queue-hop Market.Quote next causal step (a send)
                │  └─ op Market.Quote ...
                └─ ...

Parent ids travel in :class:`~repro.bluebox.messagequeue.Message`
headers (``parent_span``/``span_id``/``origin_span_id``), in the fiber
and task records (``span_id``), and in the
:class:`~repro.bluebox.services.OperationContext` (``span_id``), so the
tree survives node migrations.  Fault-driven redeliveries open a *new*
queue-hop span whose parent is the message's **original** hop span
(``retry_of`` attribute), so retries stay attached to the lifetime they
belong to instead of dangling.

Zero-cost-when-disabled contract: when ``enabled`` is False,
:meth:`SpanTracer.begin` and :meth:`SpanTracer.event` return 0 without
allocating a Span, and every hot-path call site guards on the single
``enabled`` flag before building keyword arguments (point events are
rare, so their call sites do not).  ``spans_created`` stays 0 for a
disabled run — tests assert exactly that.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple


class Span:
    """One timed interval in the causal tree."""

    __slots__ = ("id", "parent_id", "name", "kind", "start", "end",
                 "attrs", "point")

    def __init__(self, span_id: int, parent_id: int, name: str, kind: str,
                 start: float, attrs: Dict[str, Any]):
        self.id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs
        #: a point event (SpanTracer.event) begins and ends at once
        self.point = False

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    def __repr__(self) -> str:
        end = f"{self.end:.3f}" if self.end is not None else "..."
        return (f"<Span #{self.id} {self.kind}:{self.name} "
                f"[{self.start:.3f}, {end}] parent={self.parent_id}>")


class SpanTracer:
    """Owns every span of one simulated platform run.

    Span ids are positive integers; 0 means "no span" everywhere (the
    value hot paths carry when tracing is disabled).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._spans: Dict[int, Span] = {}
        self._next_id = 1
        #: total Span objects allocated — the zero-cost guard metric
        self.spans_created = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def begin(self, name: str, kind: str, start: float,
              parent_id: Optional[int] = None, **attrs: Any) -> int:
        """Open a span; returns its id (0 when tracing is disabled)."""
        if not self.enabled:
            return 0
        span_id = self._next_id
        self._next_id += 1
        self.spans_created += 1
        self._spans[span_id] = Span(span_id, parent_id or 0, name, kind,
                                    start, attrs)
        return span_id

    def end(self, span_id: int, end: float, **attrs: Any) -> None:
        """Close a span; extra attrs are merged in."""
        if not self.enabled or not span_id:
            return
        span = self._spans.get(span_id)
        if span is None:
            return
        span.end = end
        if attrs:
            span.attrs.update(attrs)

    def event(self, kind: str, time: float, parent_id: Optional[int] = None,
              name: Optional[str] = None, **attrs: Any) -> int:
        """Record a point event under ``parent_id`` (a root when 0 or
        None); returns its id (0 when tracing is disabled)."""
        span_id = self.begin(name or kind, kind, time, parent_id, **attrs)
        if span_id:
            span = self._spans[span_id]
            span.point = True
            span.end = time
        return span_id

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------

    def get(self, span_id: int) -> Optional[Span]:
        return self._spans.get(span_id)

    def spans(self) -> List[Span]:
        return list(self._spans.values())

    def of_kind(self, *kinds: str) -> List[Span]:
        wanted = set(kinds)
        return [s for s in self._spans.values() if s.kind in wanted]

    def open_spans(self) -> List[Span]:
        return [s for s in self._spans.values() if s.end is None]

    def children_of(self, span_id: int) -> List[Span]:
        return [s for s in self._spans.values() if s.parent_id == span_id]

    def child_index(self) -> Dict[int, List[Span]]:
        """parent id -> children, in creation order (one pass)."""
        index: Dict[int, List[Span]] = {}
        for span in self._spans.values():
            index.setdefault(span.parent_id, []).append(span)
        return index

    def ancestors(self, span_id: int) -> List[Span]:
        """The chain from ``span_id``'s parent up to its root."""
        chain: List[Span] = []
        span = self._spans.get(span_id)
        while span is not None and span.parent_id:
            span = self._spans.get(span.parent_id)
            if span is None:
                break
            chain.append(span)
        return chain

    def task_root(self, task_id: str) -> Optional[Span]:
        for span in self._spans.values():
            if span.kind == "task" and span.attrs.get("task") == task_id:
                return span
        return None

    def task_tree(self, task_id: str) -> List[Span]:
        """Every span reachable from the task's root span, preorder.

        This is the Figure-1 object: one task's complete distributed
        lifetime — queue hops, operation windows, fiber runs,
        persistence — as a single tree.
        """
        root = self.task_root(task_id)
        if root is None:
            return []
        index = self.child_index()
        out: List[Span] = []
        stack = [root]
        while stack:
            span = stack.pop()
            out.append(span)
            # reversed so preorder preserves creation order
            stack.extend(reversed(index.get(span.id, [])))
        return out

    def signature(self, *kinds: str) -> Tuple[Tuple[Any, ...], ...]:
        """A hashable, order-preserving fingerprint of every span (or
        of the spans of ``kinds``), for replay assertions: two runs of
        the same seeded campaign must produce equal signatures."""
        wanted = set(kinds)
        return tuple(
            (s.id, s.parent_id, s.kind, s.name, s.start, s.end,
             tuple(sorted((k, repr(v)) for k, v in s.attrs.items())))
            for s in self._spans.values() if not wanted or s.kind in wanted)

    def verify_parents(self) -> List[Span]:
        """Spans whose parent id doesn't resolve — integrity check."""
        return [s for s in self._spans.values()
                if s.parent_id and s.parent_id not in self._spans]

    def summary(self) -> Dict[str, Any]:
        by_kind: Dict[str, int] = {}
        for span in self._spans.values():
            by_kind[span.kind] = by_kind.get(span.kind, 0) + 1
        return {
            "enabled": self.enabled,
            "created": self.spans_created,
            "open": sum(1 for s in self._spans.values() if s.end is None),
            "by_kind": by_kind,
        }

    def clear(self) -> None:
        self._spans.clear()

    # ------------------------------------------------------------------
    # rendering (the Figure-1 tree)
    # ------------------------------------------------------------------

    def render_tree(self, root: Span,
                    attr_keys: Iterable[str] = (
                        "node", "msg", "attempt", "retry_of", "resume",
                        "suspend", "bytes", "status", "requeued",
                        "error")) -> str:
        """Indented text rendering of a span subtree; a point event
        renders as ``@ time name`` with all its attributes."""
        index = self.child_index()
        lines: List[str] = []

        def visit(span: Span, depth: int) -> None:
            if span.point:
                bits = " ".join(f"{k}={v}" for k, v in span.attrs.items())
                lines.append(f"{'  ' * depth}@ {span.start:.3f} {span.name}"
                             + (f" {bits}" if bits else ""))
                return
            end = f"{span.end:.3f}" if span.end is not None else "..."
            bits = " ".join(f"{k}={span.attrs[k]}" for k in attr_keys
                            if k in span.attrs)
            lines.append(f"{'  ' * depth}{span.kind} {span.name} "
                         f"[{span.start:.3f} -> {end}]"
                         + (f" {bits}" if bits else ""))
            for child in index.get(span.id, []):
                visit(child, depth + 1)

        visit(root, 0)
        return "\n".join(lines)
