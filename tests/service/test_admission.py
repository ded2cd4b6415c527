"""Cache hits answered at admission, and one journal append per job step.

A point whose result the persistent cache holds is answered inside
``JobManager.submit``, right after the job's ``submitted`` event, and
its records join the submit record in one fsynced append. The tests
below check that over real sockets (a warm ``/v1/run``, a sweep that
mixes hits and misses, a torn multi-record append recovered on restart)
and on a manager without a loop (breaker order, the running-job count
and history trimming against the full scans they replace).
"""

import json

import pytest

from repro.cli import parse_config
from repro.core.exec import (
    PointError,
    PointOutcome,
    SweepPoint,
    configure_disk_cache,
    point_key,
)
from repro.core.runner import clear_cache
from repro.core.simulator import SimResult
from repro.service import JobManager, JobStore, PoisonBreaker, ServiceConfig
from repro.service.breaker import CIRCUIT_MESSAGE

from tests.service.test_service_e2e import LENGTH, SPEC, Daemon

RUN = {"config": "ibtb:16", "workload": "web_frontend", "length": LENGTH}


@pytest.fixture(autouse=True)
def _isolated_caches():
    clear_cache()
    configure_disk_cache(False)
    yield
    clear_cache()
    configure_disk_cache(False)


def _durable(tmp_path):
    return ServiceConfig(
        jobs=1, drain_timeout=60, state_dir=str(tmp_path / "state")
    )


def _appends(daemon):
    return daemon.request("GET", "/v1/metrics")[1]["service"]["store_appends"]


def _journal(tmp_path, job_id):
    path = tmp_path / "state" / "jobs" / f"{job_id}.jsonl"
    return path, [json.loads(line) for line in path.read_text().splitlines()]


def _warm_run(tmp_path):
    """A cold ``/v1/run`` then the same point warm on a durable daemon;
    returns the warm job's document and the appends it made."""
    configure_disk_cache(True, tmp_path / "cache", shard=True)
    daemon = Daemon(_durable(tmp_path))
    try:
        _, cold, _ = daemon.request("POST", "/v1/run", RUN)
        assert daemon.wait_job(cold["job"])["status"] == "done"
        daemon.wait_batches(1)
        before = _appends(daemon)
        status, sub, _ = daemon.request("POST", "/v1/run", RUN)
        assert status == 202
        # Answered before the 202: nothing is left to wait for.
        status, doc, _ = daemon.request("GET", f"/v1/jobs/{sub['job']}")
        assert doc["status"] == "done"
        appended = _appends(daemon) - before
        service = daemon.request("GET", "/v1/metrics")[1]["service"]
        assert service["points_cached"] == 1
        assert service["points_scheduled"] == 1
        assert service["batches"] == 1  # the cold run's only
    finally:
        assert daemon.drain() == 0
    return doc, appended


def test_warm_run_is_one_append_and_survives_restart(tmp_path):
    doc, appended = _warm_run(tmp_path)
    assert appended == 1
    _, records = _journal(tmp_path, doc["id"])
    assert [r["rec"] for r in records] == ["submit", "point", "done"]
    assert records[1]["status"] == "ok" and records[1]["attempts"] == 1

    daemon = Daemon(_durable(tmp_path))
    try:
        status, again, _ = daemon.request("GET", f"/v1/jobs/{doc['id']}")
        assert status == 200
        assert again["recovered"] is True and again["status"] == "done"
        assert again["result"] == doc["result"]
    finally:
        assert daemon.drain() == 0


def test_torn_multi_record_append_recovers_from_the_cache(tmp_path):
    doc, _ = _warm_run(tmp_path)
    path, _ = _journal(tmp_path, doc["id"])
    text = path.read_text()
    submit_end = text.index("\n") + 1
    # SIGKILL mid-write: the submit line is whole, the point line torn.
    path.write_text(text[: submit_end + 20])
    stored = JobStore(tmp_path / "state").load(doc["id"])
    assert stored is not None and not stored.terminal

    daemon = Daemon(_durable(tmp_path))
    try:
        status, again, _ = daemon.request("GET", f"/v1/jobs/{doc['id']}")
        assert status == 200
        assert again["recovered"] is True and again["status"] == "done"
        assert again["result"] == doc["result"]
        _, metrics, _ = daemon.request("GET", "/v1/metrics")
        assert metrics["service"]["points_cached"] == 1
        assert metrics["service"]["batches"] == 0
    finally:
        assert daemon.drain() == 0


def test_torn_journal_keeps_its_outcome_across_a_second_restart(tmp_path):
    """The first restart re-answers the torn job and appends point and
    done to its journal; the second must still read that point."""
    doc, _ = _warm_run(tmp_path)
    path, _ = _journal(tmp_path, doc["id"])
    text = path.read_text()
    path.write_text(text[: text.index("\n") + 1 + 20])
    for restart in range(2):
        daemon = Daemon(_durable(tmp_path))
        try:
            status, again, _ = daemon.request("GET", f"/v1/jobs/{doc['id']}")
        finally:
            assert daemon.drain() == 0
        assert status == 200, restart
        assert again["status"] == "done", restart
        assert again["result"] == doc["result"], restart
        [outcome] = again["outcomes"]
        assert outcome is not None, restart
        assert outcome["status"] == "ok", restart
    # The fragment kept a line of its own; the records after it parse.
    lines = path.read_text().splitlines()
    assert [json.loads(line)["rec"] for line in lines[2:]] == ["point", "done"]


def test_sweep_answers_cached_points_first_and_journals_per_miss(tmp_path):
    configure_disk_cache(True, tmp_path / "cache", shard=True)
    daemon = Daemon(_durable(tmp_path))
    cached = [("rbtb:3", "web_frontend"), ("ibtb:16", "db_oltp")]
    try:
        hit_keys = set()
        for config, workload in cached:
            run = {"config": config, "workload": workload, "length": LENGTH}
            _, sub, _ = daemon.request("POST", "/v1/run", run)
            assert daemon.wait_job(sub["job"])["status"] == "done"
            hit_keys.add(daemon.service.manager.get(sub["job"]).keys[0][:16])
        before = _appends(daemon)
        status, sub, _ = daemon.request("POST", "/v1/sweep", SPEC)
        assert status == 202 and sub["coalesced"] == 0
        doc = daemon.wait_job(sub["job"])
        assert doc["status"] == "done"
        status, raw = daemon.request_raw(
            "GET", f"/v1/jobs/{sub['job']}/events"
        )
        events = [json.loads(line) for line in raw.decode().splitlines()]
        _, metrics, _ = daemon.request("GET", "/v1/metrics")
        appended = _appends(daemon) - before
    finally:
        assert daemon.drain() == 0

    kinds = [e["event"] for e in events]
    assert kinds[0] == "submitted" and kinds[-1] == "done"
    points = [e for e in events if e["event"] == "point"]
    is_hit = [e["key"] in hit_keys for e in points]
    misses = len(points) - len(cached)
    assert is_hit == [True] * len(cached) + [False] * misses

    service = metrics["service"]
    assert service["points_cached"] == len(cached)
    assert (
        service["points_cached"]
        + service["points_scheduled"]
        + service["points_coalesced"]
        == service["points_requested"]
    )
    # One append at admission (submit + the hits), one per miss; the
    # done record rides on the last miss's.
    assert appended == 1 + misses
    _, records = _journal(tmp_path, sub["job"])
    assert [r["rec"] for r in records] == (
        ["submit"] + ["point"] * len(points) + ["done"]
    )


# -- a manager without a loop ------------------------------------------------


def _point(spec="ibtb:16", workload="web_frontend"):
    return SweepPoint(parse_config(spec), workload, 4_000, 1_000, 7)


def _cache_result(tmp_path, *points):
    disk = configure_disk_cache(True, tmp_path / "cache")
    for point in points:
        disk.store_result(
            point_key(point),
            SimResult(name=point.workload, instructions=10, cycles=20),
        )


def _crash(key):
    return PointOutcome(
        index=0,
        point=None,
        error=PointError(
            kind="worker-crash", point_key=key, attempts=1, message="boom"
        ),
    )


def test_open_breaker_fast_fails_before_the_cache_probe(tmp_path):
    now = [0.0]
    breaker = PoisonBreaker(threshold=1, cooldown=5.0, clock=lambda: now[0])
    cached, uncached = _point(), _point(workload="db_oltp")
    _cache_result(tmp_path, cached)
    manager = JobManager(queue_limit=10, breaker=breaker)
    for point in (cached, uncached):
        breaker.record(point_key(point), _crash(point_key(point)))
        job = manager.submit("run", [point], "c", {})
        assert job.status == "failed"
        assert job.outcomes[0]["message"].startswith(CIRCUIT_MESSAGE)
    service = manager.metrics.service
    assert service["points_fast_failed"] == 2
    assert service["points_cached"] == service["points_scheduled"] == 0

    # Cooled down: the one half-open trial is the admission probe, and
    # its hit closes the breaker.
    now[0] = 5.0
    job = manager.submit("run", [cached], "c", {})
    assert job.status == "done"
    assert breaker.state(point_key(cached)) == "closed"
    assert breaker.half_opens == 1 and breaker.closes == 1
    assert service["points_cached"] == 1


def test_expired_deadline_skips_the_probe(tmp_path):
    point = _point()
    _cache_result(tmp_path, point)
    manager = JobManager(queue_limit=10)
    job = manager.submit("run", [point], "c", {}, deadline_s=0)
    assert job.status == "running"
    assert manager.metrics.service["points_scheduled"] == 1
    _, expired = manager._collect_groups()
    for flight in expired:
        manager._expire_flight(flight)
    assert job.status == "failed" and job.outcomes[0]["kind"] == "timeout"


def _parent_trim(jobs, limit):
    """The ids the full-scan trim evicts when one more job is added."""
    excess = len(jobs) + 1 - limit
    finished = [jid for jid, job in jobs.items() if job.status != "running"]
    return finished[: max(0, excess)]


def test_running_count_and_trim_match_full_scans(tmp_path):
    hits = [_point(spec) for spec in ("ibtb:16", "rbtb:3", "bbtb:1:split")]
    _cache_result(tmp_path, *hits)
    manager = JobManager(
        queue_limit=100, history_limit=5, breaker=PoisonBreaker(threshold=1)
    )
    poison = _point(workload="db_oltp")
    manager.breaker.record(point_key(poison), _crash(point_key(poison)))
    misses = [_point(spec, "kv_store") for spec in ("ibtb:16", "rbtb:3")]

    def check():
        running = sum(j.status == "running" for j in manager.jobs.values())
        assert manager.active_jobs == running

    def submit(points, **kw):
        before = dict(manager.jobs)
        evicted = _parent_trim(before, manager.history_limit)
        job = manager.submit("sweep", points, "c", {}, **kw)
        survivors = [jid for jid in before if jid not in evicted]
        assert list(manager.jobs) == survivors + [job.id]
        check()
        return job

    submit([hits[0]])  # all hits: done at admission
    miss = submit([misses[0], hits[1]])  # a hit and a miss: running
    submit([poison])  # fast-failed
    late = submit([misses[1]], deadline_s=0)
    submit([hits[2]], job_id="jrecovered", recovered=True)
    submit([misses[0]])  # coalesces onto the running miss
    manager._resolve_flight(point_key(misses[0]), PointOutcome(
        index=0, point=misses[0], attempts=1,
        result=SimResult(name="kv_store", instructions=10, cycles=20),
    ))
    check()
    assert miss.status == "done"
    _, expired = manager._collect_groups()
    for flight in expired:
        manager._expire_flight(flight)
    check()
    assert late.status == "failed"
    failing = submit([_point("mbbtb:2:allbr", "kv_store")])
    manager._resolve_flight(failing.keys[0], _crash(failing.keys[0]))
    check()
    assert failing.status == "failed"
    recovered = submit([misses[1]], job_id="jrecovered2", recovered=True)
    queued = submit([_point("rbtb:3", "template_render")])
    assert manager.active_jobs == 2
    manager.abort_remaining()
    check()
    assert recovered.status == queued.status == "failed"
    assert manager.active_jobs == 0
    assert manager.metrics.service["jobs_evicted"] > 0
