"""End-to-end tests of the ``repro-sim serve`` daemon over real sockets.

Each test starts a daemon on an ephemeral port in a background thread
with its own event loop, drives it with plain ``http.client`` requests,
then drains it. The acceptance invariants from the service design:

* two identical concurrent sweeps execute every unique point exactly
  once (coalescing observable via ``/v1/metrics``), and the finished
  job's result document is byte-identical to what the one-shot CLI
  sweep (``sweep_results_payload`` over a clean serial run) produces;
* injected worker crashes surface as retries/per-point errors in the
  job report — never a dead daemon — and the converged results are
  byte-identical to a clean run;
* SIGTERM-style drain finishes in-flight work and keeps it cached.
"""

import http.client
import json
import threading
import time

import pytest

from repro.core.config import IDEAL_IBTB16
from repro.core.exec import configure_disk_cache
from repro.core.runner import clear_cache, sweep_compare, sweep_results_payload
from repro.service import Service, ServiceConfig

LENGTH = 8_000
SPEC = {
    "configs": ["ibtb:16", "rbtb:3"],
    "workloads": ["web_frontend", "db_oltp"],
    "length": LENGTH,
}


@pytest.fixture(autouse=True)
def _isolated_caches():
    clear_cache()
    configure_disk_cache(False)
    yield
    clear_cache()
    configure_disk_cache(False)


class Daemon:
    """A live service on an ephemeral port, running in its own thread."""

    def __init__(self, config: ServiceConfig):
        self.service = Service(config, quiet=True)
        self.rc = None
        self._started = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert self._started.wait(10), "daemon failed to start"

    def _run(self):
        import asyncio

        async def main():
            ready = asyncio.Event()
            task = asyncio.ensure_future(self.service.run(ready=ready))
            await ready.wait()
            self._started.set()
            self.rc = await task

        asyncio.run(main())

    def request(self, method, path, body=None, headers=None, timeout=120):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.service.port, timeout=timeout
        )
        conn.request(
            method,
            path,
            body=json.dumps(body) if body is not None else None,
            headers=headers or {},
        )
        resp = conn.getresponse()
        data = resp.read()
        hdrs = {k.lower(): v for k, v in resp.getheaders()}
        conn.close()
        return resp.status, (json.loads(data) if data else None), hdrs

    def request_raw(self, method, path, timeout=120):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.service.port, timeout=timeout
        )
        conn.request(method, path)
        resp = conn.getresponse()
        data = resp.read()
        conn.close()
        return resp.status, data

    def wait_job(self, job_id, timeout=120):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, doc, _ = self.request("GET", f"/v1/jobs/{job_id}")
            assert status == 200
            if doc["status"] != "running":
                return doc
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} still running after {timeout}s")

    def wait_batches(self, n, timeout=60):
        """Metrics doc once >= *n* batches completed (session cache
        counters reach the daemon with their outcome frames, before the
        batch's run_points returns and so strictly before the
        ``batches`` bump)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, doc, _ = self.request("GET", "/v1/metrics")
            assert status == 200
            if doc["service"]["batches"] >= n:
                return doc
            time.sleep(0.05)
        raise AssertionError(f"never saw {n} completed batches")

    def drain(self, timeout=60):
        self.service.request_drain_threadsafe()
        self.thread.join(timeout=timeout)
        assert not self.thread.is_alive(), "daemon did not drain"
        return self.rc


def _expected_sweep_payload():
    """The document `repro-sim sweep --out` writes for SPEC, computed
    serially with no disk cache — fully independent of the daemon."""
    clear_cache()
    configure_disk_cache(False)
    from repro.cli import parse_config

    configs = [parse_config(s) for s in SPEC["configs"]]
    compared, _, _ = sweep_compare(
        configs,
        IDEAL_IBTB16,
        SPEC["workloads"],
        length=LENGTH,
        warmup=LENGTH // 4,
        jobs=1,
    )
    return sweep_results_payload(compared, IDEAL_IBTB16.label)


def _dump(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -- the headline acceptance test --------------------------------------------


def test_concurrent_identical_sweeps_coalesce_and_match_cli(tmp_path):
    configure_disk_cache(True, tmp_path / "cache", shard=True)
    daemon = Daemon(ServiceConfig(jobs=2, drain_timeout=60))
    try:
        status1, sub1, _ = daemon.request("POST", "/v1/sweep", SPEC)
        status2, sub2, _ = daemon.request("POST", "/v1/sweep", SPEC)
        assert status1 == status2 == 202
        docs = [daemon.wait_job(sub["job"]) for sub in (sub1, sub2)]
        assert [d["status"] for d in docs] == ["done", "done"]

        metrics = daemon.wait_batches(1)
        service = metrics["service"]
        unique_points = len([IDEAL_IBTB16, *SPEC["configs"]]) * len(
            SPEC["workloads"]
        )
        # ≥1 duplicate coalesced; here the whole second grid coalesces
        # or hits the executed flights' disk entries — either way the
        # cold cache shows exactly one miss (= one execution) per
        # unique point, i.e. 0 duplicate executions.
        assert service["points_requested"] == 2 * unique_points
        assert service["points_coalesced"] >= 1
        assert service["points_cached"] == 0
        assert (
            service["points_scheduled"] + service["points_coalesced"]
            == service["points_requested"]
        )
        assert metrics["cache"]["result_misses"] == unique_points
    finally:
        assert daemon.drain() == 0

    expected = _expected_sweep_payload()
    for doc in docs:
        assert _dump(doc["result"]) == _dump(expected)


def test_worker_faults_surface_as_retries_not_daemon_death(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_FAULT_SPEC", "raise:db_oltp:1;kill:web_frontend:1")
    monkeypatch.setenv("REPRO_FAULT_DIR", str(tmp_path / "faults"))
    configure_disk_cache(True, tmp_path / "cache", shard=True)
    daemon = Daemon(ServiceConfig(jobs=2, drain_timeout=60))
    try:
        status, sub, _ = daemon.request("POST", "/v1/sweep", SPEC)
        assert status == 202
        doc = daemon.wait_job(sub["job"])
        assert doc["status"] == "done"  # retries converged
        assert doc["failed"] == 0
        # wait_batches, not a bare metrics GET: the job finishes via the
        # streaming hook strictly before the batch returns and folds its
        # resilience counters.
        metrics = daemon.wait_batches(1)
        assert metrics["resilience"].get("retries", 0) >= 1
        # The daemon is alive and well after worker kills.
        status, health, _ = daemon.request("GET", "/v1/healthz")
        assert status == 200 and health["status"] == "ok"
    finally:
        assert daemon.drain() == 0

    monkeypatch.delenv("REPRO_FAULT_SPEC")
    assert _dump(doc["result"]) == _dump(_expected_sweep_payload())


def test_unretryable_fault_fails_the_point_not_the_daemon(
    tmp_path, monkeypatch
):
    # Faults outlast the retry budget: the point fails with a
    # classified error, the job reports it, the daemon keeps serving.
    monkeypatch.setenv("REPRO_FAULT_SPEC", "raise:db_oltp:9")
    monkeypatch.setenv("REPRO_FAULT_DIR", str(tmp_path / "faults"))
    configure_disk_cache(True, tmp_path / "cache", shard=True)
    daemon = Daemon(ServiceConfig(jobs=2, drain_timeout=60))
    try:
        status, sub, _ = daemon.request(
            "POST",
            "/v1/run",
            {"config": "ibtb:16", "workload": "db_oltp", "length": LENGTH},
        )
        assert status == 202
        doc = daemon.wait_job(sub["job"])
        assert doc["status"] == "failed"
        assert doc["outcomes"][0]["status"] == "error"
        assert doc["outcomes"][0]["kind"] == "exception"
        assert doc["result"] is None
        # Still serving: a clean point on the same daemon succeeds.
        status, sub, _ = daemon.request(
            "POST",
            "/v1/run",
            {"config": "ibtb:16", "workload": "kv_store", "length": LENGTH},
        )
        assert status == 202
        doc = daemon.wait_job(sub["job"])
        assert doc["status"] == "done"
        assert doc["result"]["ipc"] > 0
    finally:
        assert daemon.drain() == 0


# -- protocol details --------------------------------------------------------


def test_events_stream_replays_full_ndjson_feed(tmp_path):
    configure_disk_cache(True, tmp_path / "cache", shard=True)
    daemon = Daemon(ServiceConfig(jobs=1, drain_timeout=60))
    try:
        _, sub, _ = daemon.request(
            "POST",
            "/v1/run",
            {"config": "rbtb:3", "workload": "web_frontend", "length": LENGTH},
        )
        # Stream while running: blocks until the job finishes, then EOF.
        status, raw = daemon.request_raw(
            "GET", f"/v1/jobs/{sub['job']}/events"
        )
        assert status == 200
        events = [json.loads(line) for line in raw.decode().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "submitted"
        assert kinds[-1] == "done"
        assert kinds.count("point") == 1
        point = events[kinds.index("point")]
        assert point["status"] == "ok"
        assert point["workload"] == "web_frontend"
        # The finished job's replay, sent in one write, is the same bytes.
        assert daemon.request_raw(
            "GET", f"/v1/jobs/{sub['job']}/events"
        ) == (200, raw)
        _, metrics, _ = daemon.request("GET", "/v1/metrics")
        assert metrics["service"]["events_streamed"] == 2 * len(events)
    finally:
        assert daemon.drain() == 0


def test_http_error_paths(tmp_path):
    configure_disk_cache(True, tmp_path / "cache", shard=True)
    daemon = Daemon(ServiceConfig(jobs=1, drain_timeout=60))
    try:
        assert daemon.request("GET", "/v1/jobs/nope")[0] == 404
        assert daemon.request("GET", "/v1/nothing")[0] == 404
        assert daemon.request("GET", "/v1/sweep")[0] == 405
        status, doc, _ = daemon.request(
            "POST", "/v1/sweep", {"configs": ["bogus:9"]}
        )
        assert status == 400 and "bogus" in doc["error"]
        status, doc, _ = daemon.request(
            "POST", "/v1/run", {"config": "ibtb:16", "workload": "no_such"}
        )
        assert status == 400 and "no_such" in doc["error"]
        status, doc, _ = daemon.request("POST", "/v1/run", {})
        assert status == 400
        status, health, _ = daemon.request("GET", "/v1/healthz")
        assert status == 200 and health["status"] == "ok"
    finally:
        assert daemon.drain() == 0


def test_rate_limited_client_gets_429_with_retry_after(tmp_path):
    configure_disk_cache(True, tmp_path / "cache", shard=True)
    daemon = Daemon(
        ServiceConfig(jobs=1, rate=0.001, burst=1.0, drain_timeout=60)
    )
    try:
        run = {"config": "ibtb:16", "workload": "web_frontend", "length": LENGTH}
        hdr = {"X-Client-Id": "greedy"}
        status, _, _ = daemon.request("POST", "/v1/run", run, headers=hdr)
        assert status == 202
        status, doc, hdrs = daemon.request("POST", "/v1/run", run, headers=hdr)
        assert status == 429
        assert "rate limit" in doc["error"]
        assert int(hdrs["retry-after"]) >= 1
        # Another client is unaffected (and coalesces onto the same point).
        status, _, _ = daemon.request(
            "POST", "/v1/run", run, headers={"X-Client-Id": "patient"}
        )
        assert status == 202
    finally:
        assert daemon.drain() == 0


def test_drain_rejects_new_work_but_finishes_inflight(tmp_path):
    cache_root = tmp_path / "cache"
    configure_disk_cache(True, cache_root, shard=True)
    daemon = Daemon(ServiceConfig(jobs=2, drain_timeout=120))
    _, sub, _ = daemon.request("POST", "/v1/sweep", SPEC)
    # Drain immediately: the sweep is still queued or mid-batch.
    daemon.service.request_drain_threadsafe()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            status, doc, _ = daemon.request("POST", "/v1/sweep", SPEC, timeout=5)
        except (ConnectionError, OSError):
            break  # listener already closed: equally a rejection
        assert status == 503
        break
    assert daemon.drain() == 0
    # Nothing submitted before the drain was lost: every unique point
    # of the sweep landed in the disk cache for the next process.
    from repro.core.exec import DiskCache, point_key, SweepPoint
    from repro.cli import parse_config

    store = DiskCache(cache_root, shard=True)
    for config in [IDEAL_IBTB16] + [parse_config(s) for s in SPEC["configs"]]:
        for workload in SPEC["workloads"]:
            point = SweepPoint(config, workload, LENGTH, LENGTH // 4, 7)
            assert store.load_result(point_key(point)) is not None
