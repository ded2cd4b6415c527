"""Service-level metrics: own counters plus engine/cache rollups.

``/v1/metrics`` renders four groups:

* ``service`` — the daemon's own counters (jobs admitted/rejected,
  points requested/scheduled/cached/coalesced, batches, drain state);
* ``resilience`` — the fold of every batch's
  :class:`~repro.core.exec.resilience.SweepReport` counters (retries,
  worker crashes, timeouts, ...), i.e. the chaos ledger of everything
  the engine absorbed on the service's behalf;
* ``cache`` — the live :class:`~repro.core.exec.diskcache.DiskCache`
  hit/miss/eviction counters;
* ``dist`` — the fleet counters of the daemon's coordinator (local
  sessions or a ``--dist-listen`` fleet alike).

All mutation happens on the event-loop thread.
"""

from __future__ import annotations

import time
from typing import Dict, Optional


class ServiceMetrics:
    """Monotonic counters + gauges for ``/v1/metrics`` and ``/v1/healthz``."""

    #: Counters that always render, even at zero, so dashboards and the
    #: smoke tests can rely on the keys existing.
    SERVICE_KEYS = (
        "jobs_submitted",
        "jobs_completed",
        "jobs_failed",
        "jobs_recovered",
        "jobs_evicted",
        "jobs_rejected_queue_full",
        "jobs_rejected_rate_limited",
        "jobs_rejected_draining",
        "points_requested",
        "points_scheduled",
        "points_cached",
        "points_coalesced",
        "points_ok",
        "points_failed",
        "points_fast_failed",
        "points_deadline_rejected",
        "orphaned_flights",
        "batches",
        "events_streamed",
        "cache_evicted",
        "cache_evicted_bytes",
    )

    def __init__(self) -> None:
        self.started = time.time()
        self.service: Dict[str, int] = {key: 0 for key in self.SERVICE_KEYS}
        self.resilience: Dict[str, int] = {}

    def bump(self, name: str, by: int = 1) -> None:
        self.service[name] = self.service.get(name, 0) + int(by)

    def fold_resilience(self, counters: Dict[str, int]) -> None:
        """Accumulate one batch's SweepReport counters."""
        for key, value in counters.items():
            self.resilience[key] = self.resilience.get(key, 0) + int(value)

    def snapshot(
        self,
        cache_counters: Optional[Dict[str, int]] = None,
        dist_counters: Optional[Dict[str, int]] = None,
        **gauges,
    ) -> dict:
        """Metrics document. *dist_counters* (the coordinator's fleet
        snapshot: workers live/lost, steals, shard bytes, fetch cache
        hits, ...) adds a ``dist`` group; a serving daemon always has
        one."""
        doc = {
            "schema": 1,
            "uptime_s": round(time.time() - self.started, 3),
            "service": {**self.service, **gauges},
            "resilience": dict(self.resilience),
            "cache": dict(cache_counters or {}),
        }
        if dist_counters is not None:
            doc["dist"] = dict(dist_counters)
        return doc
