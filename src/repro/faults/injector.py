"""The compiled fault injector: seeded, deterministic, observable.

A :class:`FaultInjector` is a ``(seed, FaultPlan)`` pair compiled into
interception hooks.  ``install(env)`` wires it into a
:class:`~repro.vinz.api.VinzEnvironment`:

* the cluster consults :meth:`on_deliver` as each message is popped for
  delivery (drop / duplicate / delay);
* the shared store consults :meth:`on_store_write` / :meth:`on_store_read`
  before every IO (fail / corrupt);
* the cluster multiplies operation durations by :meth:`slow_factor`;
* Vinz calls :meth:`on_persist` after each fiber-state persist (crash
  *during* persistence);
* time-triggered crashes/restarts are scheduled on the virtual clock at
  install time.

Every injected fault is recorded as a ``fault`` point event (named
``fault.<action>``, under the span it hit or as a root) and counted,
so a campaign can assert it actually exercised what it claims to.  All randomness comes from ``random.Random(seed)``: the same
``(seed, plan)`` replays bit-identically.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from ..bluebox.store import StoreCorruptionError, StoreReadError, StoreWriteError
from .plan import (
    CORRUPT_FRAME,
    CORRUPT_READ,
    CRASH,
    DELAY,
    DROP,
    DROPPED_BATCH,
    DUPLICATE,
    FAIL_READ,
    FAIL_WRITE,
    FaultPlan,
    HistoryFault,
    JournalFault,
    MessageFault,
    NodeFault,
    SHARD_OUTAGE,
    SLOW,
    ShardFault,
    StoreFault,
    TORN_COMMIT,
    TORN_TAIL,
)


class FaultInjector:
    """Deterministic interception hooks compiled from ``(seed, plan)``."""

    def __init__(self, seed: int, plan: FaultPlan):
        self.seed = seed
        self.plan = plan
        self.rng = random.Random(seed)
        self.env = None  # set by install()
        #: per-fault match counters (fault index -> matching events seen)
        self._seen: Dict[int, int] = {}
        #: cluster-wide fiber persist counter (crash-during-persistence)
        self.persists = 0
        #: cluster-wide fiber-lock acquisition counter (crash-on-lock)
        self.lock_acquisitions = 0
        #: how many faults of each action were actually injected
        self.injected: Dict[str, int] = {}
        #: node faults with a concrete node resolved at install time
        self._node_faults: List[NodeFault] = []
        #: shard faults: fault index -> resolved shard name ("" = any)
        self._shard_targets: Dict[int, str] = {
            i: f.shard for i, f in enumerate(plan.faults)
            if isinstance(f, ShardFault)}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def install(self, env) -> "FaultInjector":
        """Wire the hooks into a VinzEnvironment and schedule the
        time-triggered node faults on its virtual clock."""
        self.env = env
        env.injector = self
        env.cluster.injector = self
        env.store.injector = self
        history_log = getattr(env, "history_log", None)
        if history_log is not None:
            history_log.injector = self
        # resolve unnamed shard-outage targets against the store's ring
        shard_names = sorted(getattr(env.store, "backends", {}))
        if shard_names:
            for index, name in list(self._shard_targets.items()):
                if not name:
                    self._shard_targets[index] = self.rng.choice(shard_names)
        node_ids = sorted(env.cluster.nodes)
        for fault in self.plan.node_faults():
            node = fault.node or (self.rng.choice(node_ids) if node_ids
                                  else "")
            resolved = NodeFault(action=fault.action, node=node,
                                 at=fault.at,
                                 restart_after=fault.restart_after,
                                 on_persist=fault.on_persist,
                                 on_lock=fault.on_lock,
                                 factor=fault.factor,
                                 duration=fault.duration)
            self._node_faults.append(resolved)
            if resolved.action == CRASH and resolved.at is not None:
                env.cluster.kernel.schedule_at(
                    resolved.at, lambda f=resolved: self._crash(f))
        return self

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def _record(self, action: str, span: int = 0, **detail: Any) -> None:
        self.injected[action] = self.injected.get(action, 0) + 1
        if self.env is not None:
            cluster = self.env.cluster
            cluster.metrics.counter("fault.injected").inc()
            cluster.metrics.counter(f"fault.injected.{action}").inc()
            # a point event under the span the fault hit, so a rendered
            # task tree shows exactly where chaos struck
            cluster.tracer.event("fault", cluster.kernel.now, span,
                                 name=f"fault.{action}", action=action,
                                 **detail)

    def total_injected(self) -> int:
        return sum(self.injected.values())

    # ------------------------------------------------------------------
    # match bookkeeping
    # ------------------------------------------------------------------

    def _triggered(self, index: int, nth: int, count: int) -> bool:
        """Count one matching event for fault ``index``; True when the
        occurrence number falls inside the fault's [nth, nth+count)
        firing window."""
        seen = self._seen.get(index, 0) + 1
        self._seen[index] = seen
        return nth <= seen < nth + count

    # ------------------------------------------------------------------
    # message hooks (called by Cluster._dispatch_one)
    # ------------------------------------------------------------------

    def on_deliver(self, message) -> Optional[Tuple[str, float]]:
        """Decide the fate of a delivery: ``None`` (deliver normally),
        ``("drop", 0)``, ``("duplicate", 0)`` or ``("delay", seconds)``.

        Every message fault whose selector matches counts the delivery;
        the first fault whose firing window covers it wins.
        """
        decision: Optional[Tuple[str, float]] = None
        for index, fault in enumerate(self.plan.faults):
            if not isinstance(fault, MessageFault):
                continue
            if not fault.matches(message.service, message.operation):
                continue
            if self._triggered(index, fault.nth, fault.count) \
                    and decision is None:
                decision = (fault.action, fault.delay)
        if decision is not None:
            action, delay = decision
            detail = dict(msg=message.id, service=message.service,
                          operation=message.operation)
            if action == DELAY:
                detail["delay"] = delay
            self._record(action, span=message.span_id, **detail)
        return decision

    # ------------------------------------------------------------------
    # store hooks (called by SharedStore.write / SharedStore.read)
    # ------------------------------------------------------------------

    def on_store_write(self, key: str) -> None:
        for index, fault in enumerate(self.plan.faults):
            if not isinstance(fault, StoreFault) or fault.action != FAIL_WRITE:
                continue
            if not fault.matches(key):
                continue
            if self._triggered(index, fault.nth, fault.count):
                self._record(FAIL_WRITE, key=key)
                raise StoreWriteError(key)

    def on_store_read(self, key: str) -> None:
        for index, fault in enumerate(self.plan.faults):
            if not isinstance(fault, StoreFault) \
                    or fault.action not in (FAIL_READ, CORRUPT_READ):
                continue
            if not fault.matches(key):
                continue
            if self._triggered(index, fault.nth, fault.count):
                self._record(fault.action, key=key)
                if fault.action == FAIL_READ:
                    raise StoreReadError(key)
                raise StoreCorruptionError(key)

    # ------------------------------------------------------------------
    # durable-store hooks (ShardedStore._consult_shard /
    # WriteAheadJournal.append_batch)
    # ------------------------------------------------------------------

    def _now(self) -> float:
        if self.env is not None:
            return self.env.cluster.kernel.now
        return 0.0

    def on_shard_op(self, shard: str, key: str, write: bool) -> None:
        """Shard-outage faults: raise if ``shard`` is down for this IO."""
        for index, fault in enumerate(self.plan.faults):
            if not isinstance(fault, ShardFault):
                continue
            target = self._shard_targets.get(index, fault.shard)
            if target and target != shard:
                continue
            if fault.writes_only and not write:
                continue
            if fault.at is not None:
                now = self._now()
                end = (fault.at + fault.duration) \
                    if fault.duration is not None else float("inf")
                fired = fault.at <= now < end
            else:
                fired = self._triggered(index, fault.nth, fault.count)
            if fired:
                self._record(SHARD_OUTAGE, shard=shard, key=key,
                             write=write)
                if write:
                    raise StoreWriteError(key)
                raise StoreReadError(key)

    def on_journal_commit(self, commit_index: int,
                          frame_len: int) -> Optional[int]:
        """Torn-commit faults: return how many bytes of the framed
        batch reach storage before the writer dies (``None`` = the
        append succeeds whole)."""
        for index, fault in enumerate(self.plan.faults):
            if not isinstance(fault, JournalFault):
                continue
            if self._triggered(index, fault.nth, fault.count):
                keep = int(frame_len * fault.keep_fraction)
                self._record(TORN_COMMIT, commit=commit_index,
                             frame_len=frame_len, kept=keep)
                return keep
        return None

    # ------------------------------------------------------------------
    # history-log hooks (HistoryLog.append_batch)
    # ------------------------------------------------------------------

    def on_history_write(self, key: str, blob: bytes) -> Optional[bytes]:
        """History-fault hooks on the batch-append path: return what
        actually reaches storage — ``None`` (the batch is lost
        entirely), a truncated frame (the writer died mid-``write``),
        or the frame with one bit flipped (the CRC check must catch
        it).  All silent: the writer believes the append succeeded; the
        damage surfaces on the next replay as a typed history error."""
        for index, fault in enumerate(self.plan.faults):
            if not isinstance(fault, HistoryFault):
                continue
            if self._triggered(index, fault.nth, fault.count):
                if fault.action == DROPPED_BATCH:
                    self._record(DROPPED_BATCH, key=key,
                                 blob_len=len(blob))
                    return None
                if fault.action == TORN_TAIL:
                    keep = int(len(blob) * fault.keep_fraction)
                    self._record(TORN_TAIL, key=key, blob_len=len(blob),
                                 kept=keep)
                    return blob[:keep]
                flipped = bytearray(blob)
                position = self.rng.randrange(len(flipped)) if flipped else 0
                if flipped:
                    flipped[position] ^= 1 << self.rng.randrange(8)
                self._record(CORRUPT_FRAME, key=key, blob_len=len(blob),
                             position=position)
                return bytes(flipped)
        return blob

    # ------------------------------------------------------------------
    # node hooks
    # ------------------------------------------------------------------

    def slow_factor(self, node_id: str, now: float) -> float:
        """Product of every active slow fault on ``node_id``."""
        factor = 1.0
        for fault in self._node_faults:
            if fault.action != SLOW or fault.node != node_id:
                continue
            start = fault.at if fault.at is not None else 0.0
            end = (start + fault.duration) if fault.duration is not None \
                else float("inf")
            if start <= now < end:
                factor *= fault.factor
        return factor

    def _crash(self, fault: NodeFault) -> None:
        if self.env is None:
            return
        node = self.env.cluster.nodes.get(fault.node)
        if node is None or not node.alive:
            return
        self._record(CRASH, node=fault.node)
        self.env.fail_node(fault.node)
        if fault.restart_after is not None:
            self.env.cluster.kernel.schedule(
                fault.restart_after,
                lambda n=fault.node: self.env.restore_node(n))

    def on_persist(self, ctx, fiber) -> None:
        """Called by Vinz after each fiber-state persist; fires
        crash-during-persistence faults against the persisting node."""
        self.persists += 1
        for fault in self._node_faults:
            if fault.action == CRASH and fault.on_persist is not None \
                    and fault.on_persist == self.persists:
                node = ctx.node
                if node.alive:
                    self._record("crash-on-persist",
                                 span=getattr(ctx, "span_id", 0),
                                 node=node.id, fiber=fiber.id,
                                 persist=self.persists)
                    self.env.fail_node(node.id)
                    if fault.restart_after is not None:
                        self.env.cluster.kernel.schedule(
                            fault.restart_after,
                            lambda n=node.id: self.env.restore_node(n))

    def on_lock_acquired(self, ctx, fiber) -> None:
        """Called by Vinz right after a fiber-lock acquisition (with
        the window's abort hooks already registered); fires
        crash-on-lock faults — the node dies the instant it takes the
        lock, the worst case for lease recovery: nothing was persisted,
        the lock entry survives, and only the lease can free it."""
        self.lock_acquisitions += 1
        for fault in self._node_faults:
            if fault.action == CRASH and fault.on_lock is not None \
                    and fault.on_lock == self.lock_acquisitions:
                node = ctx.node
                if node.alive:
                    self._record("crash-on-lock",
                                 span=getattr(ctx, "span_id", 0),
                                 node=node.id, fiber=fiber.id,
                                 acquisition=self.lock_acquisitions)
                    self.env.fail_node(node.id)
                    if fault.restart_after is not None:
                        self.env.cluster.kernel.schedule(
                            fault.restart_after,
                            lambda n=node.id: self.env.restore_node(n))
