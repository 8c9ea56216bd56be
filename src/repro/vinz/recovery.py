"""Orphan-fiber recovery: no crashed node may strand a suspended fiber.

Paper Section 4.2 motivates distributed locks with the single-runner
requirement — but locks create the dual hazard: a JVM that dies while
*holding* a fiber's lock leaves the fiber locked forever (NFS lock
files outlive their writers, and the paper calls the NFS behaviour
"completely opaque").  The lease layer in :mod:`repro.bluebox.locks`
bounds that ownership in virtual time; this module closes the loop:

* :class:`RecoveryScanner` watches outstanding leases (armed by the
  lock manager's ``lease_listener``, so it costs nothing while no lock
  is held) and expires the ones whose lease lapsed or whose owner node
  is dead — through the one public :meth:`LockManager.expire_lock`
  API, so the ordering invariant (zombie window aborted *before* the
  lock changes hands) holds for scanner recoveries too;
* for every reclaimed ``fiber/…`` lock it re-enqueues the fiber's last
  awaken message.  The message keeps its original id, so the
  ``processed_deliveries`` guard makes the re-awaken idempotent: if the
  fiber was in fact advanced (or another delivery of the same message
  is already looping on the queue), the duplicate is a no-op and the
  fiber is never run twice.

Together with the fencing check on fiber-state writes this yields the
two invariants the chaos campaign asserts jointly: **no fiber stays
stuck** (every orphaned lock is reclaimed within one lease TTL plus
one scan interval) and **no fiber is ever double-run**.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from ..observe.metrics import MetricsRegistry

#: slop added when scheduling a scan at a lease's expiry instant, so
#: the `now >= expires_at` comparison is decided by arithmetic, not by
#: floating-point luck
_EPSILON = 1e-6


class RecoveryScanner:
    """Detects lapsed/orphaned lock leases and re-awakens their fibers.

    Driven entirely off the cluster's discrete-event clock: a scan is
    armed when a lease is granted (or a node dies) and re-armed only
    while leases remain outstanding, so the kernel still drains to idle
    — the scanner never keeps the simulation alive on its own.  Its
    statistics live in ``metrics`` (``recovery.*``).
    """

    def __init__(self, vinz, metrics: MetricsRegistry,
                 interval: Optional[float] = None):
        self.vinz = vinz
        self.locks = vinz.locks
        ttl = self.locks.lease_ttl
        #: scan cadence while leases are outstanding; default half the
        #: TTL, so recovery latency is bounded by ``ttl + interval``
        self.interval = interval if interval is not None else \
            (ttl / 2.0 if ttl > 0 else 0.0)
        self.locks.lease_listener = self._on_lease_granted
        self._armed = False
        self._scans = metrics.counter("recovery.scans")
        self._locks_expired = metrics.counter("recovery.locks_expired")
        self._reawakened = metrics.counter("recovery.reawakened")
        self._skipped = metrics.counter("recovery.reawakens_skipped")
        #: lease age at expiry: its max and total are the recovery
        #: latency statistics
        self._latency = metrics.histogram("recovery.latency")

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------

    def _on_lease_granted(self, lease) -> None:
        if self.interval > 0:
            self._arm(self.interval)

    def on_node_failed(self, node_id: str) -> None:
        """A node just died: schedule a scan for the instant its locks'
        leases lapse (file backend — the coordinator's failure detector
        already expired them through :meth:`expire_node`)."""
        delay = self._next_delay()
        if delay is not None:
            self._arm(delay)

    def _arm(self, delay: float) -> None:
        if self._armed or self.interval <= 0:
            return
        self._armed = True
        self.vinz.cluster.kernel.schedule(delay, self._tick)

    def _next_delay(self) -> Optional[float]:
        """Seconds until the earliest outstanding lease expires, capped
        at the scan interval; None when nothing is outstanding."""
        leases = self.locks.outstanding_leases()
        if not leases or self.interval <= 0:
            return None
        earliest = min(lease.expires_at for lease in leases)
        if not math.isfinite(earliest):
            return None
        now = self.vinz.cluster.kernel.now
        return min(max(0.0, earliest - now) + _EPSILON, self.interval)

    # ------------------------------------------------------------------
    # scanning
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        self._armed = False
        self._scans.inc()
        cluster = self.vinz.cluster
        now = cluster.kernel.now
        for lease in self.locks.outstanding_leases():
            node_id = self.locks.owner_node(lease.owner)
            node = cluster.nodes.get(node_id) if node_id else None
            dead = node is not None and not node.alive
            if not dead and not self.locks.lease_expired(lease.key):
                continue
            reason = "owner-node-dead" if dead else "lease-lapsed"
            # the breaker aborts any zombie window before the entry is
            # removed — scanner recoveries obey the ordering invariant
            evicted = self.locks.expire_lock(lease.key, reason=reason)
            if evicted is None:
                continue
            self._locks_expired.inc()
            self._latency.observe(now - lease.renewed_at)
            tracer = cluster.tracer
            span = 0
            if tracer.enabled:
                span = tracer.begin("recovery.expire", kind="recovery",
                                    start=lease.renewed_at, key=lease.key,
                                    owner=evicted, reason=reason)
                tracer.end(span, end=now)
            if lease.key.startswith("fiber/"):
                self._reawaken(lease.key[len("fiber/"):], reason, span)
        delay = self._next_delay()
        if delay is not None:
            self._arm(delay)

    def _reawaken(self, fiber_id: str, reason: str, span: int) -> None:
        """Idempotently re-enqueue the orphaned fiber's awaken message
        (a ``fiber-reawakened`` point event under the expiry ``span``).

        Same message id as the original delivery, so receivers treat it
        exactly like a queue-level duplicate: if the fiber already
        advanced under it, ``processed_deliveries`` makes it a no-op.
        """
        fiber = self.vinz.registry.fibers.get(fiber_id)
        if fiber is None or fiber.finished or fiber.last_message is None:
            self._skipped.inc()
            return
        cluster = self.vinz.cluster
        message = fiber.last_message
        cluster.queue.push_back(message, now=cluster.kernel.now)
        cluster.kernel.schedule(cluster.delivery_latency,
                                lambda s=message.service: cluster._kick(s))
        self._reawakened.inc()
        cluster.tracer.event("fiber-reawakened", cluster.kernel.now, span,
                             fiber=fiber_id, msg=message.id, reason=reason)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        return {
            "interval": self.interval,
            "scans": self._scans.value,
            "locks_expired": self._locks_expired.value,
            "fibers_reawakened": self._reawakened.value,
            "reawakens_skipped": self._skipped.value,
            "max_recovery_latency": self._latency.max or 0.0,
            "total_recovery_latency": self._latency.total,
        }
