"""End-to-end distributed sweeps: real coordinator, real worker processes.

The acceptance bar throughout: every dist-mode result — including under
injected worker SIGKILLs, dropped outcome frames, and abrupt
disconnects — is **bit-identical** to the serial local run of the same
points.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.config import ibtb, rbtb
from repro.core.exec import (
    DEFAULT_POLICY,
    RetryPolicy,
    SweepPoint,
    configure_disk_cache,
    point_key,
    run_points,
)
from repro.core.exec.engine import _SweepState
from repro.core.runner import clear_cache
from repro.corpus import configure_corpus
from repro.obs import ObsSpec
from repro.trace.external import save_trace_csv
from repro.trace.workloads import get_trace

from repro.dist.worker import Supervisor

from .conftest import REPO_ROOT, wait_workers

LENGTH = 4_000
WARMUP = 1_000


def _points():
    return [
        SweepPoint(config, workload, LENGTH, WARMUP, 7)
        for config in (ibtb(16), rbtb(2))
        for workload in ("web_frontend", "kv_store", "db_oltp")
    ]


def _serial(points):
    return run_points(points)


def test_dist_results_bit_identical_to_serial(coordinator, spawn_worker):
    spawn_worker(coordinator, jobs=2)
    wait_workers(coordinator, 2)
    points = _points()

    got = run_points(points, dispatch=f"dist://127.0.0.1:{coordinator.port}")

    assert got == _serial(points)
    counters = coordinator.counters()
    assert counters["workers_total"] == 2
    assert counters["outcomes_ok"] == len(points)
    assert counters["points_leased"] >= len(points)
    assert counters["workers_lost"] == 0


def test_dist_report_mode_and_reuse(coordinator, spawn_worker):
    """strict=False returns a SweepReport; a second sweep reuses the
    same fleet and stays correct."""
    spawn_worker(coordinator, jobs=1)
    wait_workers(coordinator, 1)
    url = f"dist://127.0.0.1:{coordinator.port}"
    points = _points()[:3]

    report = run_points(points, strict=False, dispatch=url)
    assert not report.failures
    assert report.results == _serial(points)

    more = _points()[3:]
    assert run_points(more, dispatch=url) == _serial(more)


def test_worker_sigkill_is_blamed_and_retried(
    coordinator, spawn_worker, tmp_path
):
    """An injected SIGKILL takes down a session process mid-point; the
    supervisor respawns it, the coordinator blames exactly the in-flight
    point, and the retry converges to bit-identical results."""
    spawn_worker(
        coordinator,
        jobs=2,
        env={
            "REPRO_FAULT_SPEC": "kill:web_frontend:1",
            "REPRO_FAULT_DIR": str(tmp_path / "faults"),
        },
    )
    wait_workers(coordinator, 2)
    points = _points()

    report = run_points(
        points,
        strict=False,
        policy=RetryPolicy(max_retries=3, backoff=0.1),
        dispatch=f"dist://127.0.0.1:{coordinator.port}",
    )

    assert not report.failures
    assert report.results == _serial(points)
    assert report.counters.get("worker_crashes", 0) >= 1
    assert report.counters.get("retries", 0) >= 1
    assert coordinator.counters()["workers_lost"] >= 1


def test_drop_and_disconnect_faults_converge(
    coordinator, spawn_worker, tmp_path
):
    """Network chaos: one point's outcome frame is silently dropped
    (requeued blame-free at lease end) and another point's connection is
    cut before execution (blamed like a crash, worker reconnects). The
    sweep still converges bit-identically."""
    spawn_worker(
        coordinator,
        jobs=1,
        env={
            "REPRO_FAULT_SPEC": "drop:kv_store:1;disconnect:db_oltp:1",
            "REPRO_FAULT_DIR": str(tmp_path / "faults"),
        },
    )
    wait_workers(coordinator, 1)
    points = _points()

    report = run_points(
        points,
        strict=False,
        policy=RetryPolicy(max_retries=3, backoff=0.1),
        dispatch=f"dist://127.0.0.1:{coordinator.port}",
    )

    assert not report.failures
    assert report.results == _serial(points)
    counters = coordinator.counters()
    assert counters["outcomes_dropped"] >= 1
    assert counters["reconnects"] >= 1


def test_cold_worker_fetches_corpus_and_matches(
    coordinator, spawn_worker, tmp_path, monkeypatch
):
    """A worker with an empty corpus store fetches the trace shards it
    needs by content hash and produces results bit-identical to the
    local run against the populated store."""
    root = tmp_path / "coord-corpus"
    monkeypatch.setenv("REPRO_CORPUS_DIR", str(root))
    store = configure_corpus(root)
    trace = get_trace("web_frontend", 9000)
    csv = tmp_path / "web_frontend.csv"
    save_trace_csv(trace, str(csv))
    store.ingest(str(csv), shard_insts=2000)

    worker_corpus = tmp_path / "worker-corpus"
    spawn_worker(
        coordinator,
        jobs=1,
        extra_args=("--corpus-dir", str(worker_corpus)),
    )
    wait_workers(coordinator, 1)
    points = [
        SweepPoint(config, "corpus:web_frontend", LENGTH, WARMUP, 7)
        for config in (ibtb(16), rbtb(2))
    ]

    got = run_points(points, dispatch=f"dist://127.0.0.1:{coordinator.port}")

    assert got == _serial(points)
    counters = coordinator.counters()
    assert counters["fetch_manifests"] >= 1
    assert counters["fetch_shards"] >= 1
    assert counters["shard_bytes_tx"] > 0
    assert counters["shard_bytes_rx"] > 0
    # The worker's store now holds the verified entry on disk.
    from repro.corpus import CorpusStore

    fetched = CorpusStore(worker_corpus)
    assert fetched.get("web_frontend").content_hash == store.get(
        "web_frontend"
    ).content_hash
    assert fetched.verify(["web_frontend"]) == []


def test_observed_point_leaves_the_serial_artifact(
    coordinator, spawn_worker, tmp_path
):
    """Observability capture works under dist dispatch: a worker with its
    own cache ships the observation dump back, and the coordinator's
    cache ends up holding the very artifact a serial run stores."""
    point = SweepPoint(
        ibtb(16), "web_frontend", LENGTH, WARMUP, 7, obs=ObsSpec(interval=500)
    )
    serial_cache = configure_disk_cache(True, tmp_path / "serial-cache")
    want = run_points([point])
    artifact = serial_cache.obs_path(point_key(point)).read_bytes()
    clear_cache()

    spawn_worker(coordinator, jobs=1)
    wait_workers(coordinator, 1)
    cache = configure_disk_cache(True, tmp_path / "coord-cache")
    got = run_points([point], dispatch=f"dist://127.0.0.1:{coordinator.port}")

    assert got == want
    assert cache.obs_path(point_key(point)).read_bytes() == artifact
    # The worker's cache counters crossed the wire too.
    assert cache.counters["result_misses"] == 1


def test_report_events_cover_chunk_lifecycle(coordinator, spawn_worker):
    """Leases are recorded like the local sweep's chunks: every
    ``chunk_start`` has its ``chunk_end``, each on a session slot, so
    ``sweep --chrome`` draws one track per session."""
    spawn_worker(coordinator, jobs=2)
    wait_workers(coordinator, 2)
    points = _points()

    report = run_points(
        points, strict=False, dispatch=f"dist://127.0.0.1:{coordinator.port}"
    )

    kinds = [e["kind"] for e in report.events]
    assert "chunk_start" in kinds and "chunk_end" in kinds
    assert kinds.count("point_ok") == len(points)
    starts = [e for e in report.events if e["kind"] == "chunk_start"]
    ends = [e for e in report.events if e["kind"] == "chunk_end"]
    assert {e["chunk"] for e in starts} == {e["chunk"] for e in ends}
    assert {e["slot"] for e in starts} <= {0, 1}
    assert all(e["ts"] >= 0 for e in report.events)


def test_hung_session_times_out_on_a_fleet(coordinator, spawn_worker, tmp_path):
    """``RetryPolicy.timeout`` holds under dist dispatch: a lease silent
    past the allowance has its point blamed ``timeout`` and requeued,
    and the sweep converges long before the hang would have ended."""
    spawn_worker(
        coordinator,
        jobs=2,
        env={
            "REPRO_FAULT_SPEC": "hang:db_oltp:1",
            "REPRO_FAULT_HANG_S": "30",
            "REPRO_FAULT_DIR": str(tmp_path / "faults"),
        },
    )
    wait_workers(coordinator, 2)
    points = _points()[:2] + [SweepPoint(ibtb(16), "db_oltp", LENGTH, WARMUP, 7)]

    t0 = time.monotonic()
    report = run_points(
        points,
        strict=False,
        policy=RetryPolicy(max_retries=2, timeout=1.0, backoff=0.01),
        dispatch=f"dist://127.0.0.1:{coordinator.port}",
    )

    assert time.monotonic() - t0 < 15
    assert not report.failures
    assert report.results == _serial(points)
    assert report.counters["timeouts"] == 1
    assert report.counters["exceptions"] == 0
    assert "timeout_kill" in {e["kind"] for e in report.events}


def test_recycle_retires_fleet_sessions(coordinator, spawn_worker):
    """``recycle`` holds under dist dispatch: sessions are retired at
    lease time and their supervisor respawns them."""
    spawn_worker(coordinator, jobs=1)
    wait_workers(coordinator, 1)
    points = _points()

    report = run_points(
        points, strict=False, recycle=2, batch=2,
        dispatch=f"dist://127.0.0.1:{coordinator.port}",
    )

    assert report.results == _serial(points)
    assert len([e for e in report.events if e["kind"] == "worker_retire"]) >= 2
    assert coordinator.counters()["workers_lost"] == 0


def _children(pid):
    """Live processes whose parent is *pid* (from ``/proc``)."""
    return [
        int(entry)
        for entry in os.listdir("/proc")
        if entry.isdigit() and _running(int(entry), parent=pid)
    ]


def _running(pid, parent=None):
    """Whether *pid* is running (not a zombie), optionally as a child of
    *parent*."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return False
    if parent is not None and int(fields[1]) != parent:
        return False
    return fields[0] not in ("Z", "X")


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_sessions_exit_when_their_parent_dies(tmp_path):
    """A sweep process SIGKILLed mid-sweep leaves no session behind, even
    one stuck in a hang: each session watches its parent's pid."""
    faults = tmp_path / "faults"
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO_ROOT / "src"),
        REPRO_FAULT_SPEC="hang:*:9",
        REPRO_FAULT_HANG_S="120",
        REPRO_FAULT_DIR=str(faults),
    )
    script = (
        "from repro.core.config import ibtb\n"
        "from repro.core.exec import SweepPoint, run_points\n"
        "run_points([SweepPoint(ibtb(16), w, 4000, 1000, 7)"
        " for w in ('web_frontend', 'db_oltp')], jobs=2)\n"
    )
    sweep = subprocess.Popen([sys.executable, "-c", script], env=env)
    sessions = []
    try:
        deadline = time.monotonic() + 60
        while not (faults.is_dir() and len(list(faults.iterdir())) >= 2):
            assert time.monotonic() < deadline, "sessions never started hanging"
            time.sleep(0.05)
        sessions = _children(sweep.pid)
        assert len(sessions) == 2
        sweep.kill()
        sweep.wait()
        deadline = time.monotonic() + 5
        while any(_running(pid) for pid in sessions):
            assert time.monotonic() < deadline, "a session outlived its parent"
            time.sleep(0.05)
    finally:
        if sweep.poll() is None:
            sweep.kill()
            sweep.wait()
        for pid in sessions:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass


@pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="needs the forkserver start method",
)
def test_local_sweep_runs_under_a_forkserver_default():
    """Local sessions are forked whatever the default start method is.
    Under ``forkserver`` (the POSIX default from Python 3.14) a session's
    parent would be the fork server, so its parent watchdog would exit
    it at once and the sweep could never drain."""
    script = (
        "import multiprocessing\n"
        "multiprocessing.set_start_method('forkserver')\n"
        "from repro.core.config import ibtb, rbtb\n"
        "from repro.core.exec import SweepPoint, run_points\n"
        "points = [SweepPoint(c, w, 4000, 1000, 7)"
        " for c in (ibtb(16), rbtb(2)) for w in ('web_frontend', 'kv_store')]\n"
        "assert run_points(points, jobs=2) == run_points(points)\n"
    )
    env = dict(
        os.environ, PYTHONPATH=str(REPO_ROOT / "src"), REPRO_DISK_CACHE="0"
    )
    subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, timeout=120
    )


def test_run_ends_when_every_local_session_is_gone(coordinator):
    """A fleet whose sessions all exited for good (here: they never reach
    the coordinator, and their retry window runs out) cannot drain the
    run, so its open points fail instead of the call waiting forever."""
    points = _points()[:2]
    fleet = Supervisor("127.0.0.1:1", 2, "lost", retry_window=0.2).start()
    coordinator.fleet = fleet
    try:
        t0 = time.monotonic()
        report = coordinator.execute(
            _SweepState(points, DEFAULT_POLICY, None, False)
        )
    finally:
        fleet.stop()
    assert time.monotonic() - t0 < 30
    assert len(report.failures) == len(points)
    assert all(
        "every local session exited" in o.error.message for o in report.failures
    )
