"""The cyclic garbage collector is paused inside a point.

``execute_point`` runs with the collector off and hands the caller back
the state it had (docs/performance.md). That is only free if a point
leaves no reference cycle behind: these tests pin that every engine
path — the kernel, the interpreter, an observed point and a hand-built
simulator — leaves ``gc.collect()`` nothing to find, that the caller's
state comes back (also when the point raises), and that threads running
points at once keep the collector off inside every point and on again
after the last one.
"""

import gc
import os
import sys
import threading
import time

import pytest

import repro.core.exec.engine as engine
from repro.core.config import bbtb, ibtb, mbbtb, rbtb
from repro.core.exec import SweepPoint, configure_disk_cache, execute_point
from repro.core.passes.kernel import KERNEL_ENV
from repro.core.runner import clear_cache
from repro.memory.hierarchy import MemoryConfig
from repro.obs import ObsSpec
from repro.trace.workloads import get_trace

from tests.kernel.test_fuzz import hand_built

L, W = 3_000, 750
CONFIGS = [ibtb(16, ideal_btb=True), ibtb(16), rbtb(3), bbtb(1, splitting=True),
           mbbtb(2, "allbr")]


@pytest.fixture(autouse=True)
def _isolated_caches():
    clear_cache()
    configure_disk_cache(False)
    yield
    clear_cache()
    configure_disk_cache(False)


@pytest.fixture
def collector_off():
    """The collector off, with no garbage left from earlier tests."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()


def _points(workload, obs=None):
    return [SweepPoint(c, workload, L, W, 5, obs=obs) for c in CONFIGS]


@pytest.mark.parametrize("mode", ["batched", "interp"])
def test_points_leave_no_cycles(mode, collector_off, tmp_path, monkeypatch):
    """Cold points — trace synthesis, plan build, kernel compile, the
    run and the disk cache's stores — make no garbage only the cyclic
    collector could free."""
    monkeypatch.setenv(KERNEL_ENV, mode)
    configure_disk_cache(True, tmp_path)
    for workload in ("web_frontend", "db_oltp"):
        for point in _points(workload):
            execute_point(point)
    assert gc.collect() == 0


def test_observed_points_leave_no_cycles(collector_off, tmp_path):
    configure_disk_cache(True, tmp_path)
    for point in _points("kv_store", obs=ObsSpec(interval=500)):
        execute_point(point)
    assert gc.collect() == 0


@pytest.mark.parametrize("mode", ["batched", "interp"])
def test_hand_built_simulators_leave_no_cycles(mode, collector_off, monkeypatch):
    monkeypatch.setenv(KERNEL_ENV, mode)
    trace = get_trace("template_render", L, 5)
    for config in CONFIGS:
        memory = MemoryConfig(scale=config.scale, l1d_sets=16, l1d_mshrs=2)
        sim = hand_built(config, trace, memory)
        assert sim.kernel_engine() == mode
        sim.run(warmup=W)
        del sim
    assert gc.collect() == 0


def _spy_inside_points(monkeypatch):
    """Record the collector's state at two places inside every point."""
    seen = []
    build, fetch = engine.build_simulator, engine.fetch_trace

    def build_simulator(*args, **kwargs):
        seen.append(gc.isenabled())
        return build(*args, **kwargs)

    def fetch_trace(*args, **kwargs):
        seen.append(gc.isenabled())
        return fetch(*args, **kwargs)

    monkeypatch.setattr(engine, "build_simulator", build_simulator)
    monkeypatch.setattr(engine, "fetch_trace", fetch_trace)
    return seen


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_point_restores_the_callers_collector_state(enabled, raises, monkeypatch):
    seen = _spy_inside_points(monkeypatch)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        # A warm-up as long as the trace raises inside the simulation.
        point = SweepPoint(ibtb(16), "web_frontend", L, L if raises else W, 5)
        if raises:
            with pytest.raises(ValueError, match="warmup"):
                execute_point(point)
        else:
            execute_point(point)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]


def test_threads_running_points_keep_the_pause_balanced(monkeypatch):
    """More threads than cores run points at once, switching often: the
    collector is off inside every point, every result equals a serial
    run's, and the collector is on again after the last point."""
    seen = _spy_inside_points(monkeypatch)
    points = [SweepPoint(c, w, 1_000, 250, 5)
              for c in CONFIGS[1:3] for w in ("web_frontend", "kv_store")]
    reference = [execute_point(p) for p in points]
    seen.clear()
    threads_n = 2 * (len(os.sched_getaffinity(0)) + 1)
    deadline = time.monotonic() + 2.0
    mismatches, errors, runs = [], [], [0] * threads_n

    def work(k):
        try:
            i = k
            while time.monotonic() < deadline:
                result = execute_point(points[i % len(points)])
                if result != reference[i % len(points)]:
                    mismatches.append(i)
                runs[k] += 1
                i += 1
        except Exception as exc:  # reported by the assertions below
            errors.append(exc)

    assert gc.isenabled()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and not mismatches
    assert all(runs)
    assert seen and not any(seen)
    assert gc.isenabled()
