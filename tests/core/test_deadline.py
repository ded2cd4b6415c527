"""Engine-level sweep deadlines: ``run_points(deadline=...)``.

The deadline is the bottom of the service daemon's per-request deadline
plumbing (``X-Deadline-Ms`` / spec ``timeout_s``): an absolute
``time.monotonic`` instant past which queued points fail fast with a
classified ``timeout`` error (message-prefixed ``deadline-exceeded``,
taxonomy unchanged) and running workers are killed. These tests prove
the contract at both ends:

* an already-expired deadline executes *nothing* — serial and parallel;
* a deadline that lands mid-sweep (forced by a hang fault) classifies
  the straggler as deadline-exceeded while finished points keep their
  real results, and the call returns instead of hanging.
"""

import time

import pytest

from repro.core.config import ibtb, rbtb
from repro.core.exec import (
    DEADLINE_MESSAGE,
    RetryPolicy,
    SweepPoint,
    configure_disk_cache,
    run_points,
)
from repro.core.exec.faults import ENV_FAULT_DIR, ENV_FAULT_HANG, ENV_FAULT_SPEC
from repro.core.runner import clear_cache

L, W = 2_500, 500
FAST = RetryPolicy(max_retries=1, backoff=0.01)


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    monkeypatch.delenv(ENV_FAULT_SPEC, raising=False)
    monkeypatch.setenv(ENV_FAULT_DIR, str(tmp_path / "fault-state"))
    clear_cache()
    configure_disk_cache(False)
    yield
    clear_cache()
    configure_disk_cache(False)


def _points(n_workloads=2):
    names = ["web_frontend", "db_oltp", "kv_store"][:n_workloads]
    return [
        SweepPoint(config, name, L, W, 7)
        for config in [ibtb(16), rbtb(3)]
        for name in names
    ]


def _assert_all_deadline(report, n):
    assert len(report.outcomes) == n
    for outcome in report.outcomes:
        assert not outcome.ok
        assert outcome.error.kind == "timeout"
        assert outcome.error.message.startswith(DEADLINE_MESSAGE)
    assert report.counters["deadline_exceeded"] == n
    assert report.counters["failed"] == n


@pytest.mark.parametrize("jobs", [1, 2])
def test_expired_deadline_dispatches_nothing(jobs):
    """A deadline already in the past fails every point without running
    any — the dequeue-side guarantee the service deadline tests rely on."""
    pts = _points()
    t0 = time.monotonic()
    report = run_points(
        pts,
        jobs=jobs,
        strict=False,
        policy=FAST,
        deadline=time.monotonic() - 1.0,
    )
    _assert_all_deadline(report, len(pts))
    # Nothing executed: no successes, no retries, and the sweep returned
    # in far less time than a single real point would need.
    assert report.counters["executed"] == 0
    assert report.counters["retries"] == 0
    assert time.monotonic() - t0 < 5.0


def test_streaming_hook_sees_deadline_outcomes():
    pts = _points(1)
    seen = []
    run_points(
        pts,
        jobs=1,
        strict=False,
        policy=FAST,
        on_outcome=seen.append,
        deadline=time.monotonic() - 1.0,
    )
    assert sorted(o.index for o in seen) == list(range(len(pts)))
    assert all(o.error.message.startswith(DEADLINE_MESSAGE) for o in seen)


def test_mid_sweep_deadline_classifies_stragglers_not_finished_points(
    monkeypatch,
):
    """A hang fault pins one point past the deadline: that point (and
    anything still queued) classifies as deadline-exceeded, the rest
    keep real results, and the call returns promptly instead of waiting
    out the hang."""
    monkeypatch.setenv(ENV_FAULT_SPEC, "hang:db_oltp:9")
    monkeypatch.setenv(ENV_FAULT_HANG, "120")
    pts = _points()  # ibtb/rbtb x web_frontend/db_oltp
    t0 = time.monotonic()
    report = run_points(
        pts,
        jobs=2,
        strict=False,
        # No per-point timeout: only the sweep deadline can end the hang.
        policy=RetryPolicy(max_retries=0, backoff=0.01, timeout=None),
        deadline=time.monotonic() + 6.0,
    )
    assert time.monotonic() - t0 < 60.0
    by_workload = {
        (o.point.config.label, o.point.workload): o for o in report.outcomes
    }
    hung = [o for o in report.outcomes if o.point.workload == "db_oltp"]
    done = [o for o in report.outcomes if o.point.workload != "db_oltp"]
    assert len(hung) == 2 and len(done) == 2
    for outcome in hung:
        assert not outcome.ok
        assert outcome.error.kind == "timeout"
        assert outcome.error.message.startswith(DEADLINE_MESSAGE)
    # Points that finished before the deadline keep their results.
    assert all(o.ok and o.result.ipc > 0 for o in done)
    assert report.counters["deadline_exceeded"] == 2
    assert by_workload  # structure sanity


def test_parallel_deadline_lands_on_time(monkeypatch):
    """Points still running when the deadline passes fail at the
    deadline itself, not a scheduler tick later."""
    monkeypatch.setenv(ENV_FAULT_SPEC, "hang:*:9")
    monkeypatch.setenv(ENV_FAULT_HANG, "120")
    pts = _points()
    t0 = time.monotonic()
    deadline = t0 + 2.5
    report = run_points(
        pts,
        jobs=2,
        strict=False,
        policy=RetryPolicy(max_retries=0, backoff=0.01, timeout=None),
        deadline=deadline,
    )
    _assert_all_deadline(report, len(pts))
    failed_at = [
        e["ts"] for e in report.events if e["kind"] == "deadline_exceeded"
    ]
    # Event times count from the sweep's start, which is just after t0.
    assert max(failed_at) < deadline - t0 + 0.3


def test_generous_deadline_changes_nothing(tmp_path):
    """With room to spare, deadline=None and a far deadline are
    bit-identical — the plumbing is free when unused."""
    pts = _points(1)
    free = run_points(pts, jobs=1, strict=False, policy=FAST)
    bounded = run_points(
        pts,
        jobs=1,
        strict=False,
        policy=FAST,
        deadline=time.monotonic() + 600.0,
    )
    assert [o.result.ipc for o in free.outcomes] == [
        o.result.ipc for o in bounded.outcomes
    ]
    assert bounded.counters["deadline_exceeded"] == 0
