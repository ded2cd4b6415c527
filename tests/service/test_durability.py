"""Durability and reliability plumbing of the service daemon.

Covers the write-ahead job store (journal round-trip, torn lines,
degraded mode), poison-point circuit breakers (deterministic trip /
half-open with an injected clock), daemon crash recovery over real
sockets (finished and unfinished pre-crash jobs), per-request deadline
propagation (expired-at-dequeue dispatches nothing; mid-batch expiry
classifies per-point instead of killing the daemon), the orphaned-flight
regression (a dying batch resolves every subscriber with a classified
error and the executor keeps running), the paginated job list with TTL
garbage collection, and the liveness/readiness probe split.
"""

import json
import time

import pytest

from repro.core.config import IDEAL_IBTB16
from repro.core.exec import DEADLINE_MESSAGE, configure_disk_cache
from repro.core.exec.faults import ENV_FAULT_DIR, ENV_FAULT_HANG, ENV_FAULT_SPEC
from repro.core.runner import clear_cache
from repro.service import JobStore, PoisonBreaker, ServiceConfig
from repro.service.breaker import CIRCUIT_MESSAGE
from repro.service.store import done_record, point_record, submit_record
from repro.core.exec import PointError, PointOutcome, SweepPoint

from tests.service.test_service_e2e import LENGTH, SPEC, Daemon

RUN = {"config": "ibtb:16", "workload": "web_frontend", "length": LENGTH}


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    monkeypatch.delenv(ENV_FAULT_SPEC, raising=False)
    monkeypatch.delenv("REPRO_FAULT_DAEMON_AFTER", raising=False)
    monkeypatch.setenv(ENV_FAULT_DIR, str(tmp_path / "fault-state"))
    clear_cache()
    configure_disk_cache(False)
    yield
    clear_cache()
    configure_disk_cache(False)


# -- job store unit ----------------------------------------------------------


class _FakeJob:
    def __init__(self, job_id="j1", points=2):
        self.id = job_id
        self.kind = "run"
        self.client = "c"
        self.spec = {"config": "ibtb:16", "workload": "web_frontend"}
        self.created = 123.5
        self.points = [None] * points
        self.keys = [f"k{i}" for i in range(points)]
        self.status = "done"
        self.finished = 130.25
        self.failed_points = 0
        self.result = {"ipc": 1.0}


def test_store_round_trips_full_job_lifecycle(tmp_path):
    store = JobStore(tmp_path / "state")
    job = _FakeJob()
    assert store.append(job.id, submit_record(job))
    assert store.append(
        job.id, point_record(job.id, 0, {"status": "ok", "attempts": 1})
    )
    assert store.append(
        job.id, point_record(job.id, 1, {"status": "ok", "attempts": 2})
    )
    assert store.append(job.id, done_record(job))
    assert store.appends == 4

    stored = store.load(job.id)
    assert stored is not None and stored.valid
    assert stored.kind == "run" and stored.client == "c"
    assert stored.spec == job.spec
    assert stored.created == job.created
    assert stored.terminal and stored.status == "done"
    assert stored.finished == job.finished
    assert stored.result == {"ipc": 1.0}
    assert stored.outcomes == {
        0: {"status": "ok", "attempts": 1},
        1: {"status": "ok", "attempts": 2},
    }


def test_store_tolerates_torn_trailing_line(tmp_path):
    store = JobStore(tmp_path / "state")
    job = _FakeJob()
    store.append(job.id, submit_record(job))
    store.append(job.id, point_record(job.id, 0, {"status": "ok", "attempts": 1}))
    path = store.jobs_dir / f"{job.id}.jsonl"
    with open(path, "a") as fh:
        fh.write('{"rec": "point", "job": "j1", "ind')  # SIGKILL mid-write
    stored = store.load(job.id)
    assert stored is not None and not stored.terminal
    assert stored.outcomes == {0: {"status": "ok", "attempts": 1}}


def test_append_after_a_torn_tail_keeps_its_first_record(tmp_path):
    """Recovery loads a journal whose last line was cut mid-write, then
    appends what the re-run wrote: the first appended record must start
    a line of its own, not be glued onto the fragment."""
    store = JobStore(tmp_path / "state")
    job = _FakeJob(points=1)
    store.append(job.id, submit_record(job))
    path = store.jobs_dir / f"{job.id}.jsonl"
    whole = json.dumps(point_record(job.id, 0, {"status": "ok"}))
    with open(path, "a") as fh:
        fh.write(whole[: len(whole) // 2])  # SIGKILL mid-write
    recovered = JobStore(tmp_path / "state")
    stored = recovered.load(job.id)
    assert stored is not None and stored.outcomes == {}
    assert path.read_text().endswith("\n")
    appends = recovered.appends
    view = {"status": "ok", "attempts": 1}
    assert recovered.append(
        job.id, point_record(job.id, 0, view), done_record(job)
    )
    assert recovered.appends == appends + 1  # the repair is not an append
    stored = JobStore(tmp_path / "state").load(job.id)
    assert stored.terminal and stored.outcomes == {0: view}
    # A whole journal is left byte for byte as it was.
    text = path.read_text()
    JobStore(tmp_path / "state").load(job.id)
    assert path.read_text() == text


def test_store_load_all_sorted_and_evict(tmp_path):
    store = JobStore(tmp_path / "state")
    newer, older = _FakeJob("jb"), _FakeJob("ja")
    newer.created, older.created = 200.0, 100.0
    store.append(newer.id, submit_record(newer))
    store.append(older.id, submit_record(older))
    assert [s.job_id for s in store.load_all()] == ["ja", "jb"]
    store.evict("ja")
    assert [s.job_id for s in store.load_all()] == ["jb"]
    store.evict("ja")  # idempotent
    assert store.load("ja") is None


def test_store_degrades_on_unwritable_root_instead_of_raising(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the store root must be")
    store = JobStore(blocker / "state")  # parent is a file: mkdir fails
    job = _FakeJob()
    assert store.append(job.id, submit_record(job)) is False
    assert store.degraded and "append failed" in store.degraded_reason
    # Every later append is a silent no-op, never an exception.
    assert store.append(job.id, done_record(job)) is False
    assert store.appends == 0
    assert store.probe() is False


def test_store_probe_flips_degraded(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    store = JobStore(blocker / "state")
    assert store.probe() is False
    assert store.degraded and "probe failed" in store.degraded_reason
    healthy = JobStore(tmp_path / "ok")
    assert healthy.probe() is True
    assert not healthy.degraded


# -- circuit breaker unit ----------------------------------------------------


def _crash(key, kind="worker-crash", message="boom"):
    return PointOutcome(
        index=0,
        point=None,
        error=PointError(kind=kind, point_key=key, attempts=3, message=message),
    )


def _ok(key):
    class _R:
        ipc = 1.0

    return PointOutcome(index=0, point=None, result=_R(), attempts=1)


def test_breaker_trips_after_threshold_and_fails_fast():
    now = [0.0]
    breaker = PoisonBreaker(threshold=2, cooldown=10.0, clock=lambda: now[0])
    assert breaker.check("k") is None
    breaker.record("k", _crash("k"))
    assert breaker.check("k") is None  # 1 failure: still closed
    breaker.record("k", _crash("k", kind="timeout", message="hung"))
    assert breaker.state("k") == "open"
    blocked = breaker.check("k")
    assert blocked is not None
    assert blocked.kind == "timeout"  # the cached last real error kind
    assert blocked.attempts == 0
    assert blocked.message.startswith(CIRCUIT_MESSAGE)
    assert "hung" in blocked.message
    assert breaker.counters()["breaker_trips"] == 1
    assert breaker.counters()["breaker_fast_fails"] == 1
    assert breaker.counters()["breaker_open_points"] == 1


def test_breaker_half_open_trial_closes_on_success():
    now = [0.0]
    breaker = PoisonBreaker(threshold=1, cooldown=5.0, clock=lambda: now[0])
    breaker.record("k", _crash("k"))
    assert breaker.check("k") is not None  # open, cooling down
    now[0] = 5.0
    assert breaker.check("k") is None  # the half-open trial
    assert breaker.state("k") == "half-open"
    assert breaker.check("k") is not None  # concurrent callers still blocked
    breaker.record("k", _ok("k"))
    assert breaker.state("k") == "closed"
    assert len(breaker) == 0
    assert breaker.counters()["breaker_closes"] == 1


def test_breaker_half_open_failure_reopens_for_fresh_cooldown():
    now = [0.0]
    breaker = PoisonBreaker(threshold=1, cooldown=5.0, clock=lambda: now[0])
    breaker.record("k", _crash("k"))
    now[0] = 5.0
    assert breaker.check("k") is None
    breaker.record("k", _crash("k"))  # trial crashed again
    assert breaker.state("k") == "open"
    now[0] = 9.0
    assert breaker.check("k") is not None  # cooldown restarted at t=5
    now[0] = 10.0
    assert breaker.check("k") is None


def test_breaker_ignores_exceptions_and_deadline_expiries():
    breaker = PoisonBreaker(threshold=1)
    breaker.record("k", _crash("k", kind="exception"))
    assert breaker.state("k") == "closed" and len(breaker) == 0
    breaker.record(
        "k", _crash("k", kind="timeout", message=f"{DEADLINE_MESSAGE}: late")
    )
    assert breaker.state("k") == "closed" and len(breaker) == 0


# -- crash recovery over real sockets ----------------------------------------


def _durable_config(tmp_path, **kw):
    return ServiceConfig(
        jobs=1,
        drain_timeout=60,
        state_dir=str(tmp_path / "state"),
        **kw,
    )


def test_restarted_daemon_recovers_finished_and_unfinished_jobs(tmp_path):
    configure_disk_cache(True, tmp_path / "cache", shard=True)
    daemon = Daemon(_durable_config(tmp_path))
    _, sub, _ = daemon.request("POST", "/v1/run", RUN)
    finished = daemon.wait_job(sub["job"])
    assert finished["status"] == "done"
    assert daemon.drain() == 0

    # Fake an unfinished job by truncating its journal to the submit
    # record — as if the daemon was SIGKILLed before any point landed.
    store = JobStore(tmp_path / "state")
    unfinished_id = "jdeadbeef0000"
    store.append(
        unfinished_id,
        {
            "rec": "submit",
            "schema": 1,
            "job": unfinished_id,
            "kind": "run",
            "client": "recovery-test",
            "spec": dict(RUN),
            "created": time.time(),
            "points": 1,
            "sweep": "s",
        },
    )

    daemon = Daemon(_durable_config(tmp_path))
    try:
        # The finished pre-crash job answers from the journal, marked
        # recovered, result document intact.
        status, doc, _ = daemon.request("GET", f"/v1/jobs/{sub['job']}")
        assert status == 200
        assert doc["recovered"] is True
        assert doc["status"] == "done"
        assert doc["result"] == finished["result"]
        # The unfinished job was re-admitted and converges through the
        # disk cache (its point already executed pre-"crash").
        doc = daemon.wait_job(unfinished_id)
        assert doc["recovered"] is True
        assert doc["status"] == "done"
        assert doc["result"] == finished["result"]
        _, metrics, _ = daemon.request("GET", "/v1/metrics")
        assert metrics["service"]["jobs_recovered"] == 2
        assert metrics["cache"]["result_hits"] >= 1
    finally:
        assert daemon.drain() == 0


def test_unrecoverable_journal_is_evicted_not_fatal(tmp_path):
    configure_disk_cache(True, tmp_path / "cache", shard=True)
    store = JobStore(tmp_path / "state")
    bad_id = "jbadbadbad000"
    store.append(
        bad_id,
        {
            "rec": "submit",
            "schema": 1,
            "job": bad_id,
            "kind": "run",
            "client": "c",
            "spec": {"config": "ibtb:16", "workload": "no_such_workload"},
            "created": time.time(),
            "points": 1,
            "sweep": "s",
        },
    )
    daemon = Daemon(_durable_config(tmp_path))
    try:
        status, _, _ = daemon.request("GET", f"/v1/jobs/{bad_id}")
        assert status == 404
        status, health, _ = daemon.request("GET", "/v1/healthz")
        assert status == 200 and health["status"] == "ok"
    finally:
        assert daemon.drain() == 0
    assert JobStore(tmp_path / "state").load(bad_id) is None


# -- deadline propagation over real sockets ----------------------------------


def test_expired_deadline_rejects_at_dequeue_without_dispatch(tmp_path):
    configure_disk_cache(True, tmp_path / "cache", shard=True)
    daemon = Daemon(ServiceConfig(jobs=1, drain_timeout=60))
    try:
        status, sub, _ = daemon.request(
            "POST", "/v1/run", RUN, headers={"X-Deadline-Ms": "0"}
        )
        assert status == 202
        doc = daemon.wait_job(sub["job"])
        assert doc["status"] == "failed"
        outcome = doc["outcomes"][0]
        assert outcome["kind"] == "timeout"
        assert outcome["message"].startswith(DEADLINE_MESSAGE)
        assert outcome["attempts"] == 0
        _, metrics, _ = daemon.request("GET", "/v1/metrics")
        assert metrics["service"]["points_deadline_rejected"] == 1
        # No worker ever dispatched: no batch ran, no engine counters.
        assert metrics["service"]["batches"] == 0
        assert metrics["resilience"] == {}
    finally:
        assert daemon.drain() == 0


def test_spec_timeout_s_zero_equivalent_to_header(tmp_path):
    configure_disk_cache(True, tmp_path / "cache", shard=True)
    daemon = Daemon(ServiceConfig(jobs=1, drain_timeout=60))
    try:
        status, sub, _ = daemon.request(
            "POST", "/v1/run", dict(RUN, timeout_s=0)
        )
        assert status == 202
        doc = daemon.wait_job(sub["job"])
        assert doc["status"] == "failed"
        assert doc["outcomes"][0]["message"].startswith(DEADLINE_MESSAGE)
        # Garbage deadlines are 400s, not daemon damage.
        status, doc, _ = daemon.request(
            "POST", "/v1/run", RUN, headers={"X-Deadline-Ms": "soon"}
        )
        assert status == 400 and "X-Deadline-Ms" in doc["error"]
        status, doc, _ = daemon.request(
            "POST", "/v1/run", dict(RUN, timeout_s="a while")
        )
        assert status == 400 and "timeout_s" in doc["error"]
    finally:
        assert daemon.drain() == 0


def test_mid_batch_deadline_classifies_points_daemon_survives(
    tmp_path, monkeypatch
):
    """A hang fault pins the batch past the job deadline: the hung point
    classifies as a deadline timeout, the daemon stays alive and serves
    the next job normally."""
    monkeypatch.setenv(ENV_FAULT_SPEC, "hang:db_oltp:9")
    monkeypatch.setenv(ENV_FAULT_HANG, "120")
    configure_disk_cache(True, tmp_path / "cache", shard=True)
    daemon = Daemon(ServiceConfig(jobs=2, drain_timeout=120, timeout=None))
    try:
        status, sub, _ = daemon.request(
            "POST",
            "/v1/run",
            {"config": "ibtb:16", "workload": "db_oltp", "length": LENGTH},
            headers={"X-Deadline-Ms": "4000"},
        )
        assert status == 202
        doc = daemon.wait_job(sub["job"], timeout=60)
        assert doc["status"] == "failed"
        outcome = doc["outcomes"][0]
        assert outcome["kind"] == "timeout"
        assert outcome["message"].startswith(DEADLINE_MESSAGE)
        # Alive and well: an unbounded clean point still executes.
        monkeypatch.delenv(ENV_FAULT_SPEC)
        status, sub, _ = daemon.request("POST", "/v1/run", RUN)
        assert status == 202
        assert daemon.wait_job(sub["job"])["status"] == "done"
        status, ready, _ = daemon.request("GET", "/v1/healthz/ready")
        assert status == 200 and ready["ready"] is True
    finally:
        assert daemon.drain() == 0


# -- breaker end to end ------------------------------------------------------


def test_poison_point_trips_breaker_then_half_open_heals(
    tmp_path, monkeypatch
):
    # Exactly two attempts die: with no retries, jobs 1 and 2 crash, job
    # 3 fails fast without claiming an attempt, and job 4's attempt is
    # the third, which the fault spares. (The sessions were forked when
    # the daemon started, so the fault is lifted through the on-disk
    # attempt count, not the environment.)
    monkeypatch.setenv(ENV_FAULT_SPEC, "kill:db_oltp:2")
    configure_disk_cache(True, tmp_path / "cache", shard=True)
    daemon = Daemon(
        ServiceConfig(
            jobs=2,
            drain_timeout=120,
            max_retries=0,
            breaker_threshold=2,
            breaker_cooldown=2.0,
        )
    )
    poison = {"config": "ibtb:16", "workload": "db_oltp", "length": LENGTH}
    try:
        # Two jobs crash for real: evidence accumulates across jobs.
        for _ in range(2):
            _, sub, _ = daemon.request("POST", "/v1/run", poison)
            doc = daemon.wait_job(sub["job"], timeout=120)
            assert doc["status"] == "failed"
            assert doc["outcomes"][0]["kind"] == "worker-crash"
            assert not doc["outcomes"][0]["message"].startswith(
                CIRCUIT_MESSAGE
            )
        # Third job fails fast: breaker open, no worker burned.
        _, sub, _ = daemon.request("POST", "/v1/run", poison)
        doc = daemon.wait_job(sub["job"], timeout=30)
        assert doc["status"] == "failed"
        outcome = doc["outcomes"][0]
        assert outcome["kind"] == "worker-crash"
        assert outcome["message"].startswith(CIRCUIT_MESSAGE)
        assert outcome["attempts"] == 0
        _, metrics, _ = daemon.request("GET", "/v1/metrics")
        assert metrics["service"]["breaker_trips"] == 1
        assert metrics["service"]["breaker_fast_fails"] >= 1
        assert metrics["service"]["points_fast_failed"] == 1

        # Cool down; the fault is spent: the half-open trial executes
        # for real, succeeds, and closes the breaker.
        time.sleep(2.1)
        _, sub, _ = daemon.request("POST", "/v1/run", poison)
        doc = daemon.wait_job(sub["job"], timeout=120)
        assert doc["status"] == "done"
        assert doc["result"]["ipc"] > 0
        _, metrics, _ = daemon.request("GET", "/v1/metrics")
        assert metrics["service"]["breaker_half_opens"] == 1
        assert metrics["service"]["breaker_closes"] == 1
        assert metrics["service"]["breaker_open_points"] == 0
    finally:
        assert daemon.drain() == 0


# -- orphaned flights (leader death) -----------------------------------------


def test_dying_batch_orphans_resolve_with_classified_errors(
    tmp_path, monkeypatch
):
    """If ``run_points`` raises instead of returning a report, every
    flight of that batch — leader and coalesced twins alike — must
    resolve with a classified error and the executor must keep serving
    (the leader-death regression)."""
    import repro.service.jobs as jobs_mod

    configure_disk_cache(True, tmp_path / "cache", shard=True)
    original = jobs_mod.JobManager._run_batch
    state = {"explode": True}

    def exploding(self, flights, deadline=None):
        if state["explode"]:
            # Die slowly: the twin below must land while the leader's
            # flight is still unresolved, so it coalesces onto it.
            time.sleep(2.0)
            raise RuntimeError("executor pool lost")
        return original(self, flights, deadline)

    monkeypatch.setattr(jobs_mod.JobManager, "_run_batch", exploding)
    daemon = Daemon(ServiceConfig(jobs=1, drain_timeout=60))
    try:
        # Two identical jobs: one leader flight + one coalesced twin.
        _, sub1, _ = daemon.request("POST", "/v1/run", RUN)
        _, sub2, _ = daemon.request("POST", "/v1/run", RUN)
        assert sub2["coalesced"] == 1
        docs = [daemon.wait_job(s["job"], timeout=30) for s in (sub1, sub2)]
        for doc in docs:
            assert doc["status"] == "failed"
            outcome = doc["outcomes"][0]
            assert outcome["kind"] == "exception"
            assert "flight leader died" in outcome["message"]
        _, metrics, _ = daemon.request("GET", "/v1/metrics")
        assert metrics["service"]["orphaned_flights"] == 1
        assert metrics["service"]["flights_inflight"] == 0

        # The executor loop survived: the next batch runs normally.
        state["explode"] = False
        _, sub, _ = daemon.request("POST", "/v1/run", RUN)
        assert daemon.wait_job(sub["job"])["status"] == "done"
    finally:
        assert daemon.drain() == 0


# -- job list, TTL GC, health probes -----------------------------------------


def test_job_list_paginates_and_filters(tmp_path):
    configure_disk_cache(True, tmp_path / "cache", shard=True)
    daemon = Daemon(ServiceConfig(jobs=1, drain_timeout=60))
    try:
        ids = []
        for seed in range(3):
            _, sub, _ = daemon.request(
                "POST", "/v1/run", dict(RUN, seed=seed)
            )
            ids.append(sub["job"])
        for job_id in ids:
            daemon.wait_job(job_id)
        status, page, _ = daemon.request("GET", "/v1/jobs?limit=2")
        assert status == 200
        assert [j["id"] for j in page["jobs"]] == ids[:2]
        assert page["next_after"] == ids[1]
        assert page["total"] == 3
        status, page, _ = daemon.request(
            "GET", f"/v1/jobs?limit=2&after={ids[1]}"
        )
        assert [j["id"] for j in page["jobs"]] == ids[2:]
        assert page["next_after"] is None
        status, page, _ = daemon.request("GET", "/v1/jobs?state=done")
        assert len(page["jobs"]) == 3
        status, page, _ = daemon.request("GET", "/v1/jobs?state=running")
        assert page["jobs"] == []
        assert daemon.request("GET", "/v1/jobs?state=bogus")[0] == 400
        assert daemon.request("GET", "/v1/jobs?limit=soon")[0] == 400
    finally:
        assert daemon.drain() == 0


def test_job_ttl_gc_evicts_memory_and_journal(tmp_path):
    configure_disk_cache(True, tmp_path / "cache", shard=True)
    daemon = Daemon(_durable_config(tmp_path, job_ttl=3600.0))
    try:
        _, sub, _ = daemon.request("POST", "/v1/run", RUN)
        daemon.wait_job(sub["job"])
        manager = daemon.service.manager
        assert manager.gc_jobs() == 0  # too young
        assert manager.gc_jobs(now=time.time() + 3601.0) == 1
        assert daemon.request("GET", f"/v1/jobs/{sub['job']}")[0] == 404
        _, metrics, _ = daemon.request("GET", "/v1/metrics")
        assert metrics["service"]["jobs_evicted"] == 1
    finally:
        assert daemon.drain() == 0
    assert JobStore(tmp_path / "state").load(sub["job"]) is None


def test_liveness_and_readiness_split(tmp_path):
    configure_disk_cache(True, tmp_path / "cache", shard=True)
    daemon = Daemon(_durable_config(tmp_path))
    try:
        status, live, _ = daemon.request("GET", "/v1/healthz/live")
        assert status == 200 and live["status"] == "alive"
        status, ready, _ = daemon.request("GET", "/v1/healthz/ready")
        assert status == 200
        assert ready["ready"] is True
        assert ready["journal_writable"] is True
        assert ready["executor_alive"] is True
        assert ready["heartbeat_age_s"] >= 0.0

        # Degrade the store: readiness fails, liveness does not, and
        # the combined document reports it.
        daemon.service.manager.store._degrade("test-injected")
        status, ready, _ = daemon.request("GET", "/v1/healthz/ready")
        assert status == 503
        assert ready["degraded"] is True
        assert ready["degraded_reason"] == "test-injected"
        assert daemon.request("GET", "/v1/healthz/live")[0] == 200
        status, health, _ = daemon.request("GET", "/v1/healthz")
        assert status == 200 and health["status"] == "degraded"
        _, metrics, _ = daemon.request("GET", "/v1/metrics")
        assert metrics["service"]["store_degraded"] == 1

        # Degraded is advisory, not fatal: jobs still execute (results
        # only lose durability, not correctness).
        _, sub, _ = daemon.request("POST", "/v1/run", RUN)
        assert daemon.wait_job(sub["job"])["status"] == "done"
    finally:
        assert daemon.drain() == 0


def test_draining_daemon_fails_readiness_passes_liveness(tmp_path):
    configure_disk_cache(True, tmp_path / "cache", shard=True)
    daemon = Daemon(ServiceConfig(jobs=1, drain_timeout=60))
    loop = daemon.service._loop
    loop.call_soon_threadsafe(daemon.service.manager.begin_drain)
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        status, ready, _ = daemon.request("GET", "/v1/healthz/ready")
        if status == 503:
            break
        time.sleep(0.05)
    assert status == 503 and ready["draining"] is True
    assert daemon.request("GET", "/v1/healthz/live")[0] == 200
    daemon.service.request_drain_threadsafe()
    daemon.thread.join(timeout=60)
    assert not daemon.thread.is_alive()
