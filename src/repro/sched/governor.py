"""The AIMD spawn governor: feedback control for the spawn limit.

The paper throttles ``for-each``/``parallel`` fan-out with a *static*
spawn limit the programmer must guess (Section 3.5, Listing 3).  Too
low under-drives the cluster; too high floods the queue, inflates
``queue.wait`` and — under the Section 5 burst pathology — starves
unrelated traffic.  The governor replaces the guess with TCP-style
additive-increase / multiplicative-decrease driven by live signals:

* **queue pressure** — total backlog per alive slot, and the mean
  ``queue.wait`` over the last control interval (streamed by the
  queue);
* **operation latency** — the mean operation duration over the last
  interval (from the ``op.duration`` histogram) against a slow EWMA
  baseline; a sustained rise (an injected slow-down, a hot store)
  reads as congestion even before the queue visibly backs up.

While both are calm the limit creeps up by ``increase`` per interval;
any congestion signal halves it (``decrease``).  Workflows opt in per
task with ``(vinz-auto-spawn-limit)`` or per deployment with
``spawn_limit="auto"``; the paper's Listing 3 throttle loop re-reads
the limit every iteration, so a running fan-out follows the governor
mid-flight — no new mechanism needed in the loop itself.

The governor is *pulled*, not timer-driven: every spawn-limit read
calls :meth:`current_limit`, which re-evaluates at most once per
``interval`` of virtual time.  That keeps the control loop strictly
deterministic (it runs at the same virtual instants for the same
workload and seed) and costs nothing while no fan-out is running.

Decisions are observable: a ``sched.spawn_limit`` gauge,
``sched.governor.increase``/``decrease`` counters, and a ``sched``-kind
span per adjustment in the causal trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

#: sentinel accepted wherever a spawn limit is configured: resolve the
#: limit through the environment's governor at each read
AUTO_SPAWN_LIMIT = "auto"


@dataclass
class GovernorConfig:
    """Tuning knobs for the AIMD controller (see docs/scheduler.md)."""

    #: limit bounds and starting point
    initial: int = 4
    min_limit: int = 1
    max_limit: int = 64
    #: additive step per calm interval / multiplicative cut on congestion
    increase: int = 2
    decrease: float = 0.5
    #: virtual seconds between control decisions
    interval: float = 0.5
    #: backlog per alive slot: above ``depth_high`` is congestion,
    #: below ``depth_low`` is headroom
    depth_high: float = 3.0
    depth_low: float = 1.5
    #: interval-mean queue wait (virtual seconds): congestion / headroom
    wait_high: float = 0.5
    wait_low: float = 0.1
    #: interval-mean op duration vs. the EWMA baseline: a ratio above
    #: ``latency_factor`` (e.g. an injected node slow-down) is congestion
    latency_factor: float = 2.5
    #: smoothing for the op-duration baseline
    latency_alpha: float = 0.3


class SpawnGovernor:
    """One AIMD controller per :class:`~repro.vinz.api.VinzEnvironment`.

    Reads its signals straight off the owning cluster (queue depth and
    streaming wait counters) and its metrics registry (operation
    durations); writes its decisions back as ``sched.*`` metrics and
    spans.  All state is derived from the virtual clock, so a campaign
    replays bit-identically.
    """

    def __init__(self, cluster, config: Optional[GovernorConfig] = None):
        self.cluster = cluster
        self.config = config or GovernorConfig()
        self.limit = self.config.initial
        self._last_decision = cluster.kernel.now
        metrics = cluster.metrics
        self._op_duration = metrics.histogram("op.duration")
        self._limit_gauge = metrics.gauge("sched.spawn_limit")
        self._increases = metrics.counter("sched.governor.increase")
        self._decreases = metrics.counter("sched.governor.decrease")
        # interval snapshots of the cumulative signal counters
        self._wait_count, self._wait_total = self._wait_totals()
        self._op_count, self._op_total = self._op_totals()
        self._latency_baseline: Optional[float] = None
        # bookkeeping for tests / reports
        self.decisions = 0
        #: (virtual time, limit) after every change — the convergence
        #: trace the chaos campaign asserts over
        self.history: List[Tuple[float, int]] = [(self._last_decision,
                                                  self.limit)]
        self._limit_gauge.set(self.limit)

    # -- signal taps ---------------------------------------------------------

    def _wait_totals(self) -> Tuple[int, float]:
        queue = self.cluster.queue
        return queue.wait_count(), queue.wait_sum()

    def _op_totals(self) -> Tuple[int, float]:
        return self._op_duration.count, self._op_duration.total

    # -- the control loop ----------------------------------------------------

    def current_limit(self, now: Optional[float] = None) -> int:
        """The governed spawn limit, re-evaluated at most once per
        control interval.  This is what ``(vinz-auto-spawn-limit)``
        tasks read on every Listing-3 loop iteration."""
        if now is None:
            now = self.cluster.kernel.now
        if now - self._last_decision >= self.config.interval:
            self._decide(now)
        return self.limit

    def _decide(self, now: float) -> None:
        cfg = self.config
        self._last_decision = now
        self.decisions += 1

        slots = max(1, self.cluster.total_slots())
        depth_per_slot = self.cluster.queue.total_depth() / slots

        wait_count, wait_total = self._wait_totals()
        delivered = wait_count - self._wait_count
        interval_wait = ((wait_total - self._wait_total) / delivered
                         if delivered > 0 else 0.0)
        self._wait_count, self._wait_total = wait_count, wait_total

        op_count, op_total = self._op_totals()
        completed = op_count - self._op_count
        interval_latency = ((op_total - self._op_total) / completed
                            if completed > 0 else None)
        self._op_count, self._op_total = op_count, op_total

        latency_inflated = False
        if interval_latency is not None:
            if self._latency_baseline is None:
                self._latency_baseline = interval_latency
            else:
                latency_inflated = (interval_latency >
                                    cfg.latency_factor *
                                    self._latency_baseline)
                alpha = cfg.latency_alpha
                self._latency_baseline = (alpha * interval_latency +
                                          (1 - alpha) *
                                          self._latency_baseline)

        congested = (depth_per_slot >= cfg.depth_high
                     or interval_wait >= cfg.wait_high
                     or latency_inflated)
        headroom = (depth_per_slot <= cfg.depth_low
                    and interval_wait <= cfg.wait_low
                    and not latency_inflated)

        if congested:
            new_limit = max(cfg.min_limit, int(self.limit * cfg.decrease))
            reason = "congested"
        elif headroom:
            new_limit = min(cfg.max_limit, self.limit + cfg.increase)
            reason = "headroom"
        else:
            return  # hold
        if new_limit == self.limit:
            return
        old, self.limit = self.limit, new_limit
        self.history.append((now, new_limit))
        self._record(now, old, new_limit, reason,
                     depth_per_slot=depth_per_slot,
                     interval_wait=interval_wait,
                     interval_latency=interval_latency)

    # -- observability -------------------------------------------------------

    @property
    def increases(self) -> int:
        return self._increases.value

    @property
    def decreases(self) -> int:
        return self._decreases.value

    def _record(self, now: float, old: int, new: int, reason: str,
                **signals: Any) -> None:
        self._limit_gauge.set(new)
        (self._increases if new > old else self._decreases).inc()
        tracer = self.cluster.tracer
        if tracer is not None and tracer.enabled:
            span = tracer.begin(
                f"sched:governor:{reason}", kind="sched", start=now,
                old_limit=old, new_limit=new,
                **{k: round(v, 6) for k, v in signals.items()
                   if v is not None})
            tracer.end(span, end=now)

    def summary(self) -> dict:
        return {
            "limit": self.limit,
            "decisions": self.decisions,
            "increases": self.increases,
            "decreases": self.decreases,
            "min_seen": min(l for _, l in self.history),
            "max_seen": max(l for _, l in self.history),
        }
