"""Poison-point circuit breakers for the service daemon.

The engine already quarantines a poison point *within* one sweep: the
crashed worker is detected, the point is blamed, retried with backoff,
and finally classified. But a durable front end sees the same poison
point again on the *next* job — and the one after — each time re-burning
``max_retries + 1`` worker executions (plus worker respawns for kills)
before failing. At fleet scale that converts one bad config into a
standing tax on every batch.

A :class:`PoisonBreaker` remembers crash/timeout outcomes per
``point_key`` **across jobs** and fails repeat offenders fast:

* **closed** (default) — outcomes stream through, consecutive
  crash/timeout failures are counted;
* **open** — after ``threshold`` such failures, subsequent submissions
  of the key are resolved immediately with the cached classified error
  (message prefixed ``circuit-open:``), no worker dispatched;
* **half-open** — after ``cooldown`` seconds, exactly one trial
  submission is admitted; its success closes the breaker (state
  forgotten), another crash/timeout re-opens it for a fresh cool-down.
  Concurrent submissions during the trial still fail fast.

Only ``worker-crash`` and ``timeout`` outcomes count: a deterministic
Python exception is cheap to reproduce and carries a real traceback the
client wants, and deadline expiries (message prefix
``deadline-exceeded``) blame the job's budget, not the point. Success
clears all state for the key, so the table only ever holds actively
poisonous points.

Time is injected (``clock``) so tests trip and half-open the breaker
deterministically. All methods run on the event-loop thread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.exec import DEADLINE_MESSAGE, PointError

#: Outcome kinds that count as poison evidence.
TRIP_KINDS = ("worker-crash", "timeout")

#: Message prefix of every fast-failed outcome, so clients and tests can
#: distinguish "the breaker is open" from a fresh execution failure.
CIRCUIT_MESSAGE = "circuit-open"


@dataclass
class _Entry:
    """Per-key breaker state (exists only for failing keys)."""

    failures: int = 0
    state: str = "closed"  # closed | open | half-open
    opened_at: float = 0.0
    #: The last real classified error, replayed on fast-fails.
    error: Optional[PointError] = None


class PoisonBreaker:
    """Cross-job circuit breakers keyed by point cache key."""

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 60.0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.threshold = max(1, int(threshold))
        self.cooldown = float(cooldown)
        self._clock = clock or time.monotonic
        self._entries: Dict[str, _Entry] = {}
        # Monotonic counters (the manager folds them into /v1/metrics).
        self.trips = 0
        self.fast_fails = 0
        self.half_opens = 0
        self.closes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def state(self, key: str) -> str:
        entry = self._entries.get(key)
        return entry.state if entry is not None else "closed"

    def check(self, key: str) -> Optional[PointError]:
        """Admission check for one submission of *key*.

        ``None`` admits the point to the execution queue. A
        :class:`PointError` means fail fast with it (the cached error,
        re-labelled with the ``circuit-open`` prefix), executing nothing.
        """
        entry = self._entries.get(key)
        if entry is None or entry.state == "closed":
            return None
        if entry.state == "open" and (
            self._clock() - entry.opened_at >= self.cooldown
        ):
            # Cool-down elapsed: this caller becomes the half-open trial.
            entry.state = "half-open"
            self.half_opens += 1
            return None
        # Open (cooling down) or half-open with a trial already in
        # flight: replay the cached error without burning a worker.
        self.fast_fails += 1
        cached = entry.error
        return PointError(
            kind=cached.kind if cached is not None else "worker-crash",
            point_key=key,
            attempts=0,
            message=(
                f"{CIRCUIT_MESSAGE}: {entry.failures} consecutive "
                f"{'/'.join(TRIP_KINDS)} outcomes for this point; "
                f"last: {cached.message if cached is not None else 'unknown'}"
            ),
        )

    def record(self, key: str, outcome) -> None:
        """Fold one *executed* outcome (never a fast-fail) for *key*."""
        entry = self._entries.get(key)
        if outcome.ok:
            if entry is not None:
                del self._entries[key]
                self.closes += 1
            return
        error = outcome.error
        if (
            error is None
            or error.kind not in TRIP_KINDS
            or error.message.startswith(DEADLINE_MESSAGE)
        ):
            # Deterministic exceptions and deadline expiries are not
            # poison evidence; a half-open trial ending this way closes
            # the breaker (the point no longer crash-loops).
            if entry is not None:
                del self._entries[key]
                self.closes += 1
            return
        if entry is None:
            entry = self._entries[key] = _Entry()
        entry.failures += 1
        entry.error = error
        if entry.state == "half-open" or entry.failures >= self.threshold:
            if entry.state != "open":
                self.trips += 1
            entry.state = "open"
            entry.opened_at = self._clock()

    def counters(self) -> Dict[str, int]:
        """Snapshot for the metrics document."""
        return {
            "breaker_trips": self.trips,
            "breaker_fast_fails": self.fast_fails,
            "breaker_half_opens": self.half_opens,
            "breaker_closes": self.closes,
            "breaker_open_points": sum(
                1 for e in self._entries.values() if e.state != "closed"
            ),
        }
