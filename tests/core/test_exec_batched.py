"""Engine integration of the kernel's plans, worker recycling and jobs=0.

Covers the sweep-engine side of docs/kernels.md: batched
``run_points`` output is bit-identical to the serial interpreter, batch
plans round-trip through the disk cache's plans tier (with hit/miss
counters), worker recycling (``recycle=N``) respawns processes without
losing results or resilience counters, and ``jobs=0`` auto-detects the
CPU count.
"""

import os

import pytest

from repro.core.config import bbtb, ibtb, mbbtb, rbtb
from repro.core.exec import (
    RetryPolicy,
    SweepPoint,
    clear_plan_memo,
    configure_disk_cache,
    fetch_batch_plan,
    fetch_trace,
    plan_key,
    resolve_jobs,
    run_points,
)
from repro.core.exec.faults import ENV_FAULT_DIR, ENV_FAULT_SPEC
from repro.core.passes.kernel import KERNEL_ENV, batch_geometry
from repro.core.runner import clear_cache

L, W = 2_500, 500


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    monkeypatch.delenv(ENV_FAULT_SPEC, raising=False)
    monkeypatch.delenv(KERNEL_ENV, raising=False)
    monkeypatch.setenv(ENV_FAULT_DIR, str(tmp_path / "fault-state"))
    clear_cache()
    configure_disk_cache(False)
    yield
    clear_cache()
    configure_disk_cache(False)


def _points():
    return [
        SweepPoint(config, name, L, W, 7)
        for config in [ibtb(16), ibtb(4), rbtb(3), bbtb(2), mbbtb(2, "allbr")]
        for name in ("web_frontend", "db_oltp")
    ]


# -- batched engine through run_points ---------------------------------------


def test_batched_run_points_bit_identical_to_interp_serial(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV, "interp")
    ref = run_points(_points(), jobs=1)
    clear_cache()
    monkeypatch.setenv(KERNEL_ENV, "batched")
    for jobs in (1, 2):
        clear_cache()
        got = run_points(_points(), jobs=jobs)
        for a, b in zip(ref, got):
            assert a.stats == b.stats
            assert a.cycles == b.cycles
            assert a.structure == b.structure


def test_plan_disk_cache_round_trip(monkeypatch, tmp_path):
    """A cold batched run stores one plan per (workload, geometry); a
    fresh process (simulated by clearing the memo) hits the disk."""
    monkeypatch.setenv(KERNEL_ENV, "batched")
    cache = configure_disk_cache(True, tmp_path)
    pts = _points()
    cold = run_points(pts, jobs=1)
    assert cache.counters["plan_misses"] == 2  # one per workload
    assert cache.counters["plan_hits"] == 0

    clear_cache()
    clear_plan_memo()
    import shutil

    shutil.rmtree(cache.results_dir)  # force re-simulation, keep plans
    cache2 = configure_disk_cache(True, tmp_path)
    warm = run_points(pts, jobs=1)
    assert cache2.counters["plan_hits"] == 2
    assert cache2.counters["plan_misses"] == 0
    assert [r.stats for r in cold] == [r.stats for r in warm]


def test_corrupt_plan_entry_is_dropped_and_rebuilt(monkeypatch, tmp_path):
    monkeypatch.setenv(KERNEL_ENV, "batched")
    cache = configure_disk_cache(True, tmp_path)
    point = _points()[0]
    trace = fetch_trace(point.workload, point.length, point.seed)
    fetch_batch_plan(point, trace)
    key = plan_key(point, batch_geometry(point.config))
    path = cache.plan_path(key)
    assert path.exists()
    path.write_bytes(b"not an npz")
    clear_plan_memo()
    plan = fetch_batch_plan(point, trace)  # corrupt entry: rebuilt
    assert len(plan.line_ix) == len(trace)
    assert cache.counters["plan_misses"] == 2
    assert path.exists()  # re-stored


def test_stored_plan_entry_is_the_plans_payload(monkeypatch, tmp_path):
    """The entry a build stores, narrowed from the arrays the build
    derived, equals what the plan's lists narrow to: name, dtype and
    values."""
    import numpy as np

    monkeypatch.setenv(KERNEL_ENV, "batched")
    cache = configure_disk_cache(True, tmp_path)
    point = _points()[3]
    plan = fetch_batch_plan(point, fetch_trace(point.workload, point.length, point.seed))
    arrays, meta = cache.load_plan(plan_key(point, batch_geometry(point.config)))
    assert meta["workload"] == point.workload and meta["source"] == "synth"
    expected = plan.payload()
    assert sorted(arrays) == sorted(expected)
    for name, array in expected.items():
        assert arrays[name].dtype == array.dtype, name
        assert np.array_equal(arrays[name], array), name


def test_plan_key_distinguishes_geometry_and_trace():
    a, b = _points()[0], _points()[2]  # same workload, different config
    geom = batch_geometry(a.config)
    assert plan_key(a, geom) == plan_key(b, geom)  # family-shared
    other = SweepPoint(a.config, "db_oltp", L, W, 7)
    assert plan_key(a, geom) != plan_key(other, geom)
    small = batch_geometry(ibtb(16, bp_size_kb=2))
    assert plan_key(a, small) != plan_key(a, geom)


# -- worker recycling ---------------------------------------------------------


def test_recycling_respawns_workers_and_keeps_results(monkeypatch):
    pts = _points()
    ref = run_points(pts, jobs=1)
    clear_cache()
    report = run_points(pts, jobs=2, recycle=2, batch=2, strict=False)
    assert all(o.ok for o in report.outcomes)
    retires = [e for e in report.events if e["kind"] == "worker_retire"]
    assert len(retires) >= 2  # 10 points / recycle=2 across 2 workers
    assert [r.stats for r in ref] == [r.stats for r in report.results]


def test_recycling_preserves_resilience_counters(monkeypatch):
    """recycle=1 retires the worker after every dispatch, yet transient
    faults are still retried and counted exactly as without recycling."""
    monkeypatch.setenv(ENV_FAULT_SPEC, "raise:db_oltp:1")
    pts = _points()[:4]  # ibtb(16)/ibtb(4) x web_frontend/db_oltp
    report = run_points(
        pts,
        jobs=2,
        recycle=1,
        strict=False,
        policy=RetryPolicy(max_retries=2, backoff=0.01),
    )
    assert all(o.ok for o in report.outcomes)
    assert report.counters["exceptions"] == 2  # one per db_oltp point
    assert report.counters["retries"] == 2
    assert any(e["kind"] == "worker_retire" for e in report.events)


# -- jobs auto-detection ------------------------------------------------------


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(4) == 4
    assert resolve_jobs(-3) == 1
    probe = getattr(os, "process_cpu_count", None) or os.cpu_count
    assert resolve_jobs(0) == max(1, probe() or 1)


def test_resolve_jobs_env_default(monkeypatch):
    """jobs=None consults $REPRO_JOBS; an explicit value always wins."""
    from repro.core.exec import ENV_JOBS

    monkeypatch.delenv(ENV_JOBS, raising=False)
    assert resolve_jobs(None) == 1
    monkeypatch.setenv(ENV_JOBS, "6")
    assert resolve_jobs(None) == 6
    # Explicit values ignore the env var entirely...
    assert resolve_jobs(2) == 2
    # ...including explicit 0, which still means auto-detect the CPUs.
    probe = getattr(os, "process_cpu_count", None) or os.cpu_count
    assert resolve_jobs(0) == max(1, probe() or 1)
    # Env auto-detect and clamping mirror the explicit forms.
    monkeypatch.setenv(ENV_JOBS, "0")
    assert resolve_jobs(None) == max(1, probe() or 1)
    monkeypatch.setenv(ENV_JOBS, "-4")
    assert resolve_jobs(None) == 1
    # Unparsable env values fall back to serial rather than crashing.
    monkeypatch.setenv(ENV_JOBS, "many")
    assert resolve_jobs(None) == 1


def test_jobs_zero_runs_the_sweep(monkeypatch):
    pts = _points()[:2]
    ref = run_points(pts, jobs=1)
    clear_cache()
    got = run_points(pts, jobs=0)
    assert [r.stats for r in ref] == [r.stats for r in got]
