"""The fleet a daemon owns for its lifetime: one coordinator, started
before the listener and stopped by the drain.

* A lease request that arrives while no run is open is parked and
  answered the moment the next run begins, so a fleet that outlives its
  runs starts each one without waiting out a session's poll interval.
* The drain stops the daemon's own coordinator and reaps its sessions,
  and nothing else: another coordinator in the process keeps serving.
"""

import os
import random
import socket
import time

import pytest

from repro.core.config import ibtb
from repro.core.exec import SweepPoint, configure_disk_cache, run_points
from repro.core.runner import clear_cache
from repro.dist import get_coordinator, shutdown_coordinators
from repro.dist.worker import Supervisor
from repro.service import ServiceConfig

from tests.dist.conftest import WorkerProc, wait_workers
from tests.dist.test_e2e import _children, _running
from tests.service.test_service_e2e import Daemon

POINT = SweepPoint(ibtb(16), "web_frontend", 4_000, 1_000, 7)


@pytest.fixture(autouse=True)
def _isolated():
    clear_cache()
    configure_disk_cache(False)
    yield
    clear_cache()
    configure_disk_cache(False)
    shutdown_coordinators()


def test_idle_fleet_answers_a_one_point_run_at_once(tmp_path):
    cache = tmp_path / "cache"
    configure_disk_cache(True, cache)
    # Cached first, so each leased run is a hit and what is timed is the
    # hand-off, not the simulation.
    expected = run_points([POINT])
    coordinator = get_coordinator("dist://127.0.0.1:0")
    fleet = Supervisor(
        coordinator.address, 2, "idle", cache_root=str(cache)
    ).start()
    try:
        wait_workers(coordinator, 2)
        time.sleep(1.2)
        rng = random.Random(16)
        for _ in range(5):
            time.sleep(rng.uniform(0.0, 0.5))
            t0 = time.monotonic()
            report = run_points(
                [POINT], strict=False,
                dispatch=f"dist://127.0.0.1:{coordinator.port}",
            )
            took = time.monotonic() - t0
            assert report.results == expected
            assert took < 0.1, f"a one-point run took {took * 1e3:.0f} ms"
    finally:
        fleet.stop()


def test_drain_leaves_other_coordinators_serving(tmp_path):
    configure_disk_cache(True, tmp_path / "cache", shard=True)
    registry = get_coordinator("dist://127.0.0.1:0")
    workers = []
    daemon = Daemon(
        ServiceConfig(jobs=1, drain_timeout=60, dist_listen="127.0.0.1:0")
    )
    try:
        own = daemon.service.coordinator
        assert own is not registry
        workers.append(WorkerProc(f"127.0.0.1:{own.port}", tmp_path / "w0"))
        wait_workers(own, 1)
        assert daemon.drain() == 0
        # No session reaches the drained daemon any more.
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", own.port), timeout=2).close()

        workers.append(
            WorkerProc(f"127.0.0.1:{registry.port}", tmp_path / "w1")
        )
        wait_workers(registry, 1)
        report = run_points(
            [POINT], strict=False,
            dispatch=f"dist://127.0.0.1:{registry.port}",
        )
        assert not report.failures
        assert report.results == run_points([POINT])
    finally:
        if daemon.thread.is_alive():
            daemon.drain()
        for worker in workers:
            worker.stop()


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_drain_reaps_the_daemons_sessions(tmp_path):
    configure_disk_cache(True, tmp_path / "cache", shard=True)
    before = set(_children(os.getpid()))
    daemon = Daemon(ServiceConfig(jobs=2, drain_timeout=60))
    try:
        wait_workers(daemon.service.coordinator, 2)
        sessions = set(_children(os.getpid())) - before
    finally:
        rc = daemon.drain()
    assert rc == 0
    assert len(sessions) == 2
    deadline = time.monotonic() + 5
    while any(_running(pid) for pid in sessions):
        assert time.monotonic() < deadline, "a session outlived the drain"
        time.sleep(0.05)
