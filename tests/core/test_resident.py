"""One trace group resident at a time.

A *trace group* is the set of points that share one trace (workload,
length, seed). The serial paths of ``run_points`` run points group by
group, and with the disk cache on the engine keeps only the group in use
(its trace, its batch plans, its workload's program): acquiring another
group releases it, since a dropped group loads back from disk. With the
disk cache off nothing is released. These tests pin what is retained,
that no trace is synthesized twice where nothing is released, and that
the grouped order is invisible: results, outcomes, journals, deadlines,
exceptions, and threads running several groups at once.
"""

import gc
import shutil
import sys
import threading
import time
import tracemalloc
import weakref

import pytest

import repro.core.exec.engine as engine
from repro.cli import parse_config
from repro.core.config import IDEAL_IBTB16, ibtb, rbtb
from repro.core.exec import (
    DEADLINE_MESSAGE,
    SweepJournal,
    SweepPoint,
    clear_plan_memo,
    clear_trace_memo,
    configure_disk_cache,
    execute_point,
    fetch_trace,
    run_points,
)
from repro.core.runner import clear_cache, compare_to_baseline, run_suite
from repro.trace.workloads import SMOKE_SUITE, get_trace

L, W = 2_000, 500
G20_CONFIGS = [IDEAL_IBTB16] + [
    parse_config(spec)
    for spec in ("ibtb:16", "rbtb:3", "bbtb:1:split", "mbbtb:2:allbr")
]


@pytest.fixture(autouse=True)
def _isolated_caches():
    clear_cache()
    configure_disk_cache(False)
    yield
    clear_cache()
    configure_disk_cache(False)


@pytest.fixture
def synth_calls(monkeypatch):
    """Every ``(workload, length, seed)`` the engine synthesizes."""
    calls = []
    real = engine.synthesize_trace

    def counting(program, length, seed=7, name="synth"):
        calls.append((name, length, seed))
        return real(program, length, seed=seed, name=name)

    monkeypatch.setattr(engine, "synthesize_trace", counting)
    return calls


def g20(length=L, seed=3):
    """The benchmark's grid: every config on every trace, config-major."""
    return [
        SweepPoint(config, name, length, length // 4, seed)
        for config in G20_CONFIGS
        for name in SMOKE_SUITE
    ]


@pytest.fixture(scope="module")
def reference():
    """G20 point by point, in input order, with nothing cached."""
    clear_cache()
    configure_disk_cache(False)
    rows = _rows([execute_point(point) for point in g20()])
    clear_cache()
    return rows


def _rows(results):
    return [(r.instructions, r.cycles, r.stats, r.structure) for r in results]


def _resident_groups():
    res = engine._resident
    return (
        set(res.traces),
        {group for group, _geometry in res.plans},
        set(res.programs),
    )


# -- what stays resident -----------------------------------------------------


def _retained(points, cache_dir):
    """Bytes ``tracemalloc`` still sees after a cold serial sweep."""
    configure_disk_cache(True, cache_dir)
    gc.collect()
    tracemalloc.start()
    try:
        results = run_points(points)
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == len(points)
    return retained


def test_serial_sweep_keeps_only_the_last_group(tmp_path):
    """A serial sweep over four groups retains about what a sweep over
    its last group alone does (at the parent, which kept every group,
    3.6× at 10 k instructions)."""
    configs = [IDEAL_IBTB16, rbtb(3)]
    last = SMOKE_SUITE[-1]
    # Compile the kernels first, so neither sweep pays for them.
    run_points([SweepPoint(c, last, 500, 100, 1) for c in configs])
    one = _retained(
        [SweepPoint(c, last, L, W, 7) for c in configs], tmp_path / "one"
    )
    four = _retained(
        [SweepPoint(c, w, L, W, 7) for c in configs for w in SMOKE_SUITE],
        tmp_path / "four",
    )
    group = (last, L, 7)
    assert _resident_groups() == ({group}, {group}, {last})
    assert four <= 1.5 * one, (four, one)


def test_points_of_many_groups_retain_one(tmp_path):
    """24 distinct groups through ``execute_point`` (the way a session
    runs its leases): of every trace and program they made, only the
    last group's are still alive."""
    configure_disk_cache(True, tmp_path)
    groups = [(w, 1_000, seed) for seed in range(6) for w in SMOKE_SUITE]
    res = engine._resident
    traces, programs = [], []
    for group in groups:
        workload, length, seed = group
        execute_point(SweepPoint(IDEAL_IBTB16, workload, length, 250, seed))
        traces.append(weakref.ref(res.traces[group]))
        programs.append(weakref.ref(res.programs[workload]))
    gc.collect()
    alive = [ref() for ref in traces + programs if ref() is not None]
    last = groups[-1]
    assert alive == [res.traces[last], res.programs[last[0]]]
    assert _resident_groups() == ({last}, {last}, {last[0]})


def test_same_workload_groups_keep_the_program(
    tmp_path, monkeypatch, synth_calls
):
    """A multi-seed sweep builds each program once while consecutive
    groups share the workload, and a new workload releases it."""
    configure_disk_cache(True, tmp_path)
    built = []
    real = engine.build_program
    monkeypatch.setattr(
        engine, "build_program", lambda spec: built.append(spec) or real(spec)
    )
    run_points(
        [SweepPoint(IDEAL_IBTB16, "kv_store", L, W, s) for s in (1, 2, 3)]
    )
    assert len(built) == 1 and set(engine._resident.programs) == {"kv_store"}
    run_points([SweepPoint(IDEAL_IBTB16, "db_oltp", L, W, 1)])
    assert len(built) == 2 and set(engine._resident.programs) == {"db_oltp"}
    assert len(synth_calls) == 4


def test_a_rerun_on_the_last_group_is_a_memo_hit(tmp_path, synth_calls):
    cache = configure_disk_cache(True, tmp_path)
    points = [SweepPoint(c, "db_oltp", L, W, 7) for c in (IDEAL_IBTB16, rbtb(3))]
    first = run_points(points)
    trace = engine._resident.traces[("db_oltp", L, 7)]
    shutil.rmtree(cache.results_dir)  # the re-run simulates again
    assert _rows(run_points(points)) == _rows(first)
    assert engine._resident.traces[("db_oltp", L, 7)] is trace
    assert synth_calls == [("db_oltp", L, 7)]
    assert cache.counters["trace_hits"] == cache.counters["plan_hits"] == 0


def test_clear_plan_memo_keeps_the_trace(tmp_path):
    configure_disk_cache(True, tmp_path)
    run_points([SweepPoint(rbtb(3), "kv_store", L, W, 7)])
    group = ("kv_store", L, 7)
    clear_plan_memo()
    assert _resident_groups() == ({group}, set(), {"kv_store"})
    clear_trace_memo()
    assert _resident_groups() == (set(), set(), set())


def test_fetch_trace_leaves_the_library_caches_alone(tmp_path):
    get_trace.cache_clear()
    configure_disk_cache(True, tmp_path)
    trace = fetch_trace("template_render", 1_500, 11)
    assert get_trace.cache_info().currsize == 0
    reference = get_trace("template_render", 1_500, 11)
    assert trace is not reference
    for column in trace._COLUMNS:
        assert trace.array(column).tolist() == reference.array(column).tolist()
    assert trace.name == reference.name


# -- the disk cache off: nothing is released --------------------------------


def test_without_the_disk_cache_every_group_stays(synth_calls):
    points = g20()
    run_points(points)
    groups = {(w, L, 3) for w in SMOKE_SUITE}
    traces, plans, programs = _resident_groups()
    assert traces == groups and plans == groups
    assert programs == set(SMOKE_SUITE)
    run_points(points)  # no result cache: simulated again
    assert sorted(synth_calls) == sorted(groups)


def test_without_the_disk_cache_a_suite_loop_synthesizes_once(synth_calls):
    for config in G20_CONFIGS:
        run_suite(config, SMOKE_SUITE, length=L, warmup=W, seed=5)
    assert sorted(synth_calls) == sorted((w, L, 5) for w in SMOKE_SUITE)


def test_with_the_disk_cache_a_group_is_synthesized_once(tmp_path, synth_calls):
    """Grouped order: a config-major serial sweep meets each group once,
    and a suite-per-config loop reloads released groups from disk."""
    cache = configure_disk_cache(True, tmp_path)
    run_points(g20())
    assert sorted(synth_calls) == sorted((w, L, 3) for w in SMOKE_SUITE)
    assert cache.counters["trace_hits"] == 0
    del synth_calls[:]
    clear_cache()
    shutil.rmtree(cache.results_dir)  # simulate again, from stored traces
    for config in G20_CONFIGS:
        run_suite(config, SMOKE_SUITE, length=L, warmup=W, seed=3)
    assert synth_calls == []
    assert cache.counters["trace_hits"] == len(g20())


def test_serial_compare_meets_each_group_once(
    reference, tmp_path, synth_calls
):
    """``compare_to_baseline`` runs its missing points through
    ``run_points``, so a serial comparison loads no released group
    back."""
    cache = configure_disk_cache(True, tmp_path)
    compared = compare_to_baseline(
        G20_CONFIGS[1:], IDEAL_IBTB16, SMOKE_SUITE, L, W, seed=3
    )
    assert sorted(synth_calls) == sorted((w, L, 3) for w in SMOKE_SUITE)
    assert cache.counters["trace_hits"] == cache.counters["plan_hits"] == 0
    rows = [row for cc in compared for row in _rows(cc.results)]
    assert rows == reference[len(SMOKE_SUITE):]  # g20() is config-major


# -- the grouped order is invisible -------------------------------------------


@pytest.mark.parametrize("disk", [False, True])
def test_strict_sweep_equals_point_by_point(reference, tmp_path, disk):
    configure_disk_cache(disk, tmp_path)
    assert _rows(run_points(g20())) == reference


def test_report_is_positional_with_one_outcome_per_index(reference, tmp_path):
    configure_disk_cache(True, tmp_path)
    seen = []
    report = run_points(g20(), strict=False, on_outcome=seen.append)
    assert sorted(o.index for o in seen) == list(range(20))
    # Outcomes arrive group by group: the first five share a trace.
    assert {seen[i].point.workload for i in range(5)} == {SMOKE_SUITE[0]}
    assert [o.index for o in report.outcomes] == list(range(20))
    assert [o.point for o in report.outcomes] == g20()
    assert _rows(report.results) == reference


def test_journal_and_resume_with_grouped_order(reference, tmp_path):
    configure_disk_cache(True, tmp_path / "cache")
    points = g20()
    journal = SweepJournal(tmp_path / "journal.jsonl")
    done = []

    def stop_after_a_group(outcome):
        done.append(outcome.index)
        if len(done) == 5:
            raise KeyboardInterrupt  # not swallowed: ends the sweep

    try:
        report = run_points(
            points, strict=False, journal=journal, on_outcome=stop_after_a_group
        )
        assert report.interrupted
        assert done == [
            i for i, p in enumerate(points) if p.workload == SMOKE_SUITE[0]
        ]
        clear_cache()
        clear_trace_memo()
        resumed = run_points(points, strict=False, journal=journal, resume=True)
    finally:
        journal.close()
    assert [o.index for o in resumed.outcomes if o.resumed] == done
    assert _rows(resumed.results) == reference


def test_a_mid_sweep_deadline_classifies_the_stragglers(tmp_path):
    configure_disk_cache(True, tmp_path)
    points = g20()
    execute_point(points[0])  # cached: the sweep's first point is quick
    deadline = time.monotonic() + 1.0
    seen = []

    def outlive_the_deadline(outcome):
        seen.append(outcome)
        if len(seen) == 1:
            time.sleep(max(0.0, deadline - time.monotonic()) + 0.01)

    report = run_points(
        points, strict=False, deadline=deadline, on_outcome=outlive_the_deadline
    )
    assert sorted(o.index for o in seen) == list(range(20))
    assert [o.index for o in report.outcomes if o.ok] == [0]
    stragglers = [o for o in report.outcomes if not o.ok]
    assert len(stragglers) == 19
    assert all(o.error.kind == "timeout" for o in stragglers)
    assert all(DEADLINE_MESSAGE in o.error.message for o in stragglers)
    assert report.counters["deadline_exceeded"] == 19


class _Boom(Exception):
    pass


def test_a_strict_serial_sweep_raises_the_points_own_exception(monkeypatch):
    points = g20()
    bad = points[4]  # the second config on the first trace
    ran = []
    real = engine.execute_point

    def flaky(point):
        ran.append(point)
        if point is bad:
            raise _Boom("the point's own error")
        return real(point)

    monkeypatch.setattr(engine, "execute_point", flaky)
    with pytest.raises(_Boom, match="the point's own error"):
        run_points(points)
    assert ran == [points[0], bad]  # grouped: the same trace's points first


# -- threads running several groups at once ----------------------------------


def test_threads_running_different_groups_get_correct_results(tmp_path):
    """One thread per group, all at once, with the disk cache on: each
    acquisition releases the others' groups under them. A second round
    reloads every trace and plan from disk, again all at once."""
    configs = [IDEAL_IBTB16, ibtb(16), rbtb(3)]
    groups = [
        [SweepPoint(c, w, L, W, seed) for c in configs]
        for w in SMOKE_SUITE[:3]
        for seed in (1, 2)
    ]
    points = [point for group in groups for point in group]
    expected = dict(zip(points, _rows([execute_point(p) for p in points])))
    clear_cache()
    clear_trace_memo()
    cache = configure_disk_cache(True, tmp_path)
    got, errors = {}, []

    def run(group):
        try:
            for point in group:
                got[point] = _rows([execute_point(point)])[0]
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _round in range(2):
            got.clear()
            threads = [threading.Thread(target=run, args=(g,)) for g in groups]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert got == expected
            clear_cache()
            shutil.rmtree(cache.results_dir)  # keep traces and plans
    finally:
        sys.setswitchinterval(interval)
    assert cache.counters["trace_hits"] >= 1
    assert len(engine._resident.traces) <= len(groups)
