"""Crash isolation of ``repro-sim serve``: a point's fault never reaches
the daemon, single-point ``/v1/run`` jobs included.

Every test drives a real ``serve --jobs 2`` subprocess over HTTP. Run
in-process, a fault that took the daemon down would take pytest with
it. The invariants:

* a session SIGKILLed mid-point costs one retry; the job converges to
  the clean serial result and the daemon stays ready;
* a point that always kills its session becomes a classified
  ``worker-crash``, also after the daemon itself is SIGKILLed mid-job
  and restarted on the same state directory, and it trips the poison
  breaker for the next submission;
* ``--timeout`` cuts a hung single point.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import parse_config
from repro.core.exec import SweepPoint, configure_disk_cache, execute_point
from repro.core.runner import clear_cache
from repro.service.breaker import CIRCUIT_MESSAGE
from repro.service.jobs import result_json

REPO_ROOT = Path(__file__).resolve().parents[2]
LENGTH = 8_000
RUN = {"config": "ibtb:16", "workload": "web_frontend", "length": LENGTH}


@pytest.fixture(autouse=True)
def _isolated_caches():
    clear_cache()
    configure_disk_cache(False)
    yield
    clear_cache()
    configure_disk_cache(False)


class Serve:
    """A ``repro-sim serve --jobs 2`` subprocess under a fault spec."""

    def __init__(self, tmp_path, fault_spec, *args, env=None):
        environ = dict(
            os.environ,
            PYTHONPATH=str(REPO_ROOT / "src"),
            REPRO_FAULT_SPEC=fault_spec,
            REPRO_FAULT_DIR=str(tmp_path / "faults"),
        )
        environ.update(env or {})
        self.log = tmp_path / f"serve-{time.monotonic_ns()}.log"
        with open(self.log, "w") as out:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--port", "0",
                    "--jobs", "2",
                    "--cache-dir", str(tmp_path / "cache"),
                    "--state-dir", str(tmp_path / "state"),
                    *args,
                ],
                env=environ,
                cwd=str(REPO_ROOT),
                stdout=out,
                stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + 60
        while "listening on http://" not in self.log.read_text():
            assert self.proc.poll() is None, self._died()
            assert time.monotonic() < deadline, "daemon never listened"
            time.sleep(0.05)
        banner = self.log.read_text().split("listening on http://", 1)[1]
        self.port = int(banner.split()[0].rsplit(":", 1)[1])

    def _died(self):
        return f"daemon exited {self.proc.returncode}:\n{self.log.read_text()}"

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(
                method, path,
                body=json.dumps(body) if body is not None else None,
            )
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def wait_job(self, job_id, timeout):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            assert self.proc.poll() is None, self._died()
            status, doc = self.request("GET", f"/v1/jobs/{job_id}")
            assert status == 200
            if doc["status"] != "running":
                return doc
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} still running after {timeout}s")

    def wait_batches(self, n, timeout=30):
        """The metrics document once *n* batches have folded their
        resilience counters (a job finishes strictly before that)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _, doc = self.request("GET", "/v1/metrics")
            if doc["service"]["batches"] >= n:
                return doc
            time.sleep(0.05)
        raise AssertionError(f"never saw {n} completed batches")

    def stop(self):
        """SIGTERM-drain the daemon; returns its exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise AssertionError("daemon did not drain on SIGTERM")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _clean(spec):
    """The run job's result document from a clean serial execution."""
    point = SweepPoint(
        parse_config(spec["config"]), spec["workload"], LENGTH, LENGTH // 4, 7
    )
    return json.loads(json.dumps(result_json(execute_point(point))))


def test_killed_session_leaves_single_point_run_done(tmp_path):
    daemon = Serve(tmp_path, "kill:web_frontend:1")
    try:
        status, sub = daemon.request("POST", "/v1/run", RUN)
        assert status == 202
        doc = daemon.wait_job(sub["job"], timeout=60)
        assert doc["status"] == "done"
        metrics = daemon.wait_batches(1)
        assert metrics["resilience"]["retries"] >= 1
        assert metrics["resilience"]["worker_crashes"] >= 1
        status, ready = daemon.request("GET", "/v1/healthz/ready")
        assert status == 200 and ready["ready"] is True
    finally:
        rc = daemon.stop()
    assert rc == 0
    assert doc["result"] == _clean(RUN)


def test_poison_point_is_classified_across_a_daemon_restart(tmp_path):
    # Enough retries that the job is still running when the daemon dies.
    daemon = Serve(tmp_path, "kill:web_frontend:99", "--max-retries", "50")
    try:
        status, sub = daemon.request("POST", "/v1/run", RUN)
        assert status == 202
        # Two sessions die on the point; the daemon lives on, retrying.
        faults = tmp_path / "faults"
        deadline = time.monotonic() + 60
        while not (faults.is_dir() and len(list(faults.iterdir())) >= 2):
            assert daemon.proc.poll() is None, daemon._died()
            assert time.monotonic() < deadline, "the fault never fired twice"
            time.sleep(0.05)
        status, doc = daemon.request("GET", f"/v1/jobs/{sub['job']}")
        assert status == 200 and doc["status"] == "running"
    finally:
        daemon.kill()
    assert daemon.proc.returncode == -signal.SIGKILL

    daemon = Serve(
        tmp_path, "kill:web_frontend:99",
        "--max-retries", "0", "--breaker-threshold", "1",
    )
    try:
        status, ready = daemon.request("GET", "/v1/healthz/ready")
        assert status == 200 and ready["ready"] is True
        doc = daemon.wait_job(sub["job"], timeout=60)
        assert doc["recovered"] is True
        assert doc["status"] == "failed"
        assert doc["outcomes"][0]["kind"] == "worker-crash"
        # The crash tripped the breaker: the next submission fails fast.
        status, again = daemon.request("POST", "/v1/run", RUN)
        assert status == 202
        doc = daemon.wait_job(again["job"], timeout=30)
        assert doc["status"] == "failed"
        outcome = doc["outcomes"][0]
        assert outcome["kind"] == "worker-crash"
        assert outcome["attempts"] == 0
        assert outcome["message"].startswith(CIRCUIT_MESSAGE)
    finally:
        rc = daemon.stop()
    assert rc == 0


def test_timeout_cuts_a_single_point_hang(tmp_path):
    daemon = Serve(
        tmp_path, "hang:web_frontend:1", "--timeout", "2",
        env={"REPRO_FAULT_HANG_S": "60"},
    )
    try:
        t0 = time.monotonic()
        status, sub = daemon.request("POST", "/v1/run", RUN)
        assert status == 202
        doc = daemon.wait_job(sub["job"], timeout=30)
        assert time.monotonic() - t0 < 30
        assert doc["status"] == "done"
        metrics = daemon.wait_batches(1)
        assert metrics["resilience"]["timeouts"] >= 1
    finally:
        rc = daemon.stop()
    assert rc == 0
    assert doc["result"] == _clean(RUN)
