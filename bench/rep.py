"""The benchmark's measuring process, run by ``harness.py`` in a fresh
interpreter.

The process prints ``ready`` as soon as its imports are done (the parent
times spawn -> ready as set-up), then one JSON document as the last line
of its standard output. Each time it reports comes twice: ``wall``, as
the clock read it, and ``scaled``, divided by the host's slowdown over
that time (``hostspeed.py``): the time on the reference host.

Modes (all take ``--seed``, ``--length`` and ``--cache``):

``ready``   exit at once: a set-up sample;
``sweep``   one cold G20 sweep through ``run_points``, serial or through
            the local pool (``--jobs 2``), from an empty cache directory
            (the process is fresh, so every in-process memo is empty);
``warm``    re-run G20 serially ``--sweeps`` times against the warm
            cache ``prep`` left, checking every re-run's results against
            ``--digest``;
``prep``    compute G20 into the cache: the reference results;
``replay``  the traced pass: G20 cold, one point at a time, through the
            public layer calls, each timed from outside.

A serial mode pins itself to one CPU and probes it after every point (or
block of warm re-runs); a pool sweep probes every CPU before and after,
and one CPU in turn each time a point's outcome arrives.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import socket
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

from repro.cli import parse_config
from repro.core.config import IDEAL_IBTB16, build_simulator
from repro.core.exec import (
    SweepPoint,
    configure_disk_cache,
    fetch_batch_plan,
    point_key,
    run_points,
    trace_key,
)
from repro.core.passes.kernel import (
    batch_geometry,
    get_batch_kernel,
    get_kernel,
    kernel_cache_info,
)
from repro.dist import recv_frame, result_from_wire, result_to_wire, send_frame
from repro.service.jobs import result_json
from repro.trace.workloads import WORKLOAD_SPECS, get_trace

from harness import CONFIG_SPECS, TRACES
from hostspeed import Meter, busy_slowdown, cpus, pin

#: Warm re-runs timed between two probes (a re-run takes about 5 ms, a
#: probe of one CPU about 3 ms).
WARM_BLOCK = 4


def g20(seed: int, length: int):
    """The sweep grid: the ideal I-BTB 16 baseline and CONFIG_SPECS, each
    on every trace."""
    configs = [IDEAL_IBTB16] + [parse_config(spec) for spec in CONFIG_SPECS]
    return [
        SweepPoint(config, name, length, length // 4, seed)
        for config in configs
        for name in TRACES
    ]


def digest(results) -> str:
    """Content hash of a result list."""
    rows = [
        [r.instructions, r.cycles, r.stats, r.structure] for r in results
    ]
    text = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def serial_sweep(points, meter: Meter):
    """One serial ``run_points``, probed each time a point's outcome
    arrives; returns ``(report, wall, scaled)``, both times without the
    probes."""
    wall = scaled = 0.0
    t0 = perf_counter()

    def arrived(_outcome) -> None:
        nonlocal wall, scaled, t0
        dt = perf_counter() - t0
        wall += dt
        scaled += dt / meter.close()
        t0 = perf_counter()

    report = run_points(points, jobs=1, strict=False, on_outcome=arrived)
    dt = perf_counter() - t0  # assembling the report after the last point
    return report, wall + dt, scaled + dt / meter.last


def pool_sweep(points, meter: Meter, jobs: int):
    """One ``run_points`` on the pool, probed each time a point's outcome
    arrives — one CPU per arrival, in turn, in CPU time, since the workers
    keep every CPU busy; the sweep's slowdown is the mean of those probes
    and the meter's at its two ends. Returns ``(report, wall, scaled)``."""
    slowdowns = [meter.last]
    turn = itertools.cycle(cpus())

    def arrived(_outcome) -> None:
        slowdowns.append(busy_slowdown(next(turn)))

    t0 = perf_counter()
    report = run_points(points, jobs=jobs, strict=False, on_outcome=arrived)
    wall = perf_counter() - t0
    meter.close()
    slowdowns.append(meter.last)
    return report, wall, wall / statistics.mean(slowdowns)


def cmd_sweep(args) -> dict:
    points = g20(args.seed, args.length)
    disk = configure_disk_cache(True, args.cache)
    if args.jobs == 1:
        pin()
    meter = Meter()
    if args.jobs == 1:
        report, wall, scaled = serial_sweep(points, meter)
    else:
        report, wall, scaled = pool_sweep(points, meter, args.jobs)
    ok = [outcome for outcome in report.outcomes if outcome.ok]
    return {
        "wall": wall,
        "scaled": scaled,
        "points": len(report.outcomes),
        "failed": len(report.outcomes) - len(ok),
        "busy_s": sum(outcome.duration for outcome in ok),
        "counters": dict(report.counters),
        "cache": disk.snapshot(),
        "digest": digest(report.results)
        if len(ok) == len(report.outcomes) else None,
    }


def cmd_prep(args) -> dict:
    configure_disk_cache(True, args.cache)
    report = run_points(
        g20(args.seed, args.length), jobs=args.jobs, strict=False
    )
    if report.failures:
        raise RuntimeError(f"{len(report.failures)} reference points failed")
    return {
        "digest": digest(report.results),
        "results": [result_json(result) for result in report.results],
    }


def cmd_warm(args) -> dict:
    disk = configure_disk_cache(True, args.cache)
    points = g20(args.seed, args.length)
    pin()
    meter = Meter()
    walls, scaled, reference = [], [], None
    failed = mismatched = 0
    busy = 0.0
    for start in range(0, args.sweeps, WARM_BLOCK):
        block = []
        for _ in range(min(WARM_BLOCK, args.sweeps - start)):
            t0 = perf_counter()
            report = run_points(points, jobs=1, strict=False)
            block.append(perf_counter() - t0)
            busy += sum(outcome.duration for outcome in report.outcomes)
            if report.failures:
                failed += 1
                continue
            results = report.results
            if reference is None:
                # One full hash on the first re-run; cheap equality after.
                if digest(results) == args.digest:
                    reference = results
                else:
                    mismatched += 1
            elif results != reference:
                mismatched += 1
        slowdown = meter.close()
        walls += block
        scaled += [wall / slowdown for wall in block]
    return {
        "walls": walls,
        "scaled": scaled,
        "failed": failed,
        "mismatched": mismatched,
        "busy_s": busy,
        "cache": disk.snapshot(),
    }


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


@contextmanager
def kernel_env(mode: str):
    """Select the simulation engine for the calls inside the block."""
    old = os.environ.get("REPRO_KERNEL")
    os.environ["REPRO_KERNEL"] = mode
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("REPRO_KERNEL", None)
        else:
            os.environ["REPRO_KERNEL"] = old


def cmd_replay(args) -> dict:
    """The traced pass over G20 (cold, serial, default engine).

    Mirrors ``execute_point`` — result-cache probe, trace acquisition
    (memo -> disk -> synthesis), kernel, simulation, result store — with a
    timer around each public call. Their sum against the pass's wall time
    leaves an explicit unaccounted remainder. Side measurements that the
    default path does not take (trace and result reloads, batch plans,
    the batched and interpreted engines, the dist frame codec) run after
    the pass, outside its wall time.
    """
    disk = configure_disk_cache(True, args.cache)
    points = g20(args.seed, args.length)
    spent = {"trace": 0.0, "kernel": 0.0, "simulate": 0.0, "cache": 0.0}
    synth, stores, key_times, store_times = [], [], [], []
    compiles = []
    memo, trace_keys, keys, results = {}, {}, [], []

    t_pass = perf_counter()
    for point in points:
        t0 = perf_counter()
        key = point_key(point)
        t1 = perf_counter()
        disk.load_result(key)  # cold: always a miss
        spent["cache"] += perf_counter() - t0
        key_times.append(t1 - t0)

        t0 = perf_counter()
        trace = memo.get(point.workload)
        if trace is None:
            tkey = trace_key(
                point.workload, WORKLOAD_SPECS[point.workload],
                point.length, point.seed,
            )
            disk.load_trace(tkey)  # cold: always a miss
            t1 = perf_counter()
            trace = get_trace(point.workload, point.length, point.seed)
            t2 = perf_counter()
            disk.store_trace(tkey, trace)
            stores.append(perf_counter() - t2)
            synth.append(t2 - t1)
            memo[point.workload] = trace
            trace_keys[point.workload] = tkey
        spent["trace"] += perf_counter() - t0

        t0 = perf_counter()
        misses = kernel_cache_info()["misses"]
        get_kernel(point.config)
        dt = perf_counter() - t0
        spent["kernel"] += dt
        if kernel_cache_info()["misses"] > misses:
            compiles.append(dt)

        t0 = perf_counter()
        result = build_simulator(point.config, trace).run(warmup=point.warmup)
        spent["simulate"] += perf_counter() - t0

        t0 = perf_counter()
        disk.store_result(key, result)
        dt = perf_counter() - t0
        spent["cache"] += dt
        store_times.append(dt)
        keys.append(key)
        results.append(result)
    wall = perf_counter() - t_pass

    # -- side measurements (outside the pass's wall time) ---------------
    loads = []
    for tkey in trace_keys.values():
        t0 = perf_counter()
        disk.load_trace(tkey)
        loads.append(perf_counter() - t0)
    result_loads = []
    for key in keys:
        t0 = perf_counter()
        disk.load_result(key)
        result_loads.append(perf_counter() - t0)
    result_bytes = _mean([disk.result_path(key).stat().st_size for key in keys])

    mismatches = 0
    plan_builds, batch_compiles = [], []
    batched_seconds = 0.0
    plans = {}
    with kernel_env("batched"):
        for config in dict.fromkeys(point.config for point in points):
            t0 = perf_counter()
            get_batch_kernel(config)
            batch_compiles.append(perf_counter() - t0)
        for point, expected in zip(points, results):
            trace = memo[point.workload]
            plan_id = (point.workload, batch_geometry(point.config))
            if plan_id not in plans:
                t0 = perf_counter()
                plans[plan_id] = fetch_batch_plan(point, trace)
                plan_builds.append(perf_counter() - t0)
            t0 = perf_counter()
            sim = build_simulator(point.config, trace)
            got = sim.run(warmup=point.warmup, batch_plan=plans[plan_id])
            batched_seconds += perf_counter() - t0
            mismatches += got != expected

    # The interpreter is the executable specification: one point per
    # BTB kind must match the fast path bit for bit.
    interp_seconds, interp_insts, seen = 0.0, 0, set()
    with kernel_env("interp"):
        for point, expected in zip(points, results):
            kind = point.config.btb_kind
            if kind in seen:
                continue
            seen.add(kind)
            t0 = perf_counter()
            got = build_simulator(point.config, memo[point.workload]).run(
                warmup=point.warmup
            )
            interp_seconds += perf_counter() - t0
            interp_insts += point.length
            mismatches += got != expected

    codec_rounds = 5
    a, b = socket.socketpair()
    try:
        t0 = perf_counter()
        for _ in range(codec_rounds):
            for result in results:
                send_frame(a, {"t": "outcome", "result": result_to_wire(result)})
                msg, _blob = recv_frame(b)
                mismatches += result_from_wire(msg["result"]) != result
        codec = (perf_counter() - t0) / (codec_rounds * len(results))
    finally:
        a.close()
        b.close()

    insts = sum(point.length for point in points)
    shares = {name: seconds / wall for name, seconds in spent.items()}
    layers = {
        "trace.synth_ms": _mean(synth) * 1e3,
        "trace.disk_store_ms": _mean(stores) * 1e3,
        "trace.disk_load_ms": _mean(loads) * 1e3,
        "trace.synthesized": len(synth),
        "trace.share": shares["trace"],
        "plan.build_ms": _mean(plan_builds) * 1e3,
        "plan.configs_per_plan": len(points) / len(plans),
        "kernel.compile_ms": _mean(compiles) * 1e3,
        "kernel.batch_compile_ms": _mean(batch_compiles) * 1e3,
        "kernel.compiles": len(compiles),
        "kernel.share": shares["kernel"],
        "simulate.compiled_kips": insts / spent["simulate"] / 1e3,
        "simulate.batched_kips": insts / batched_seconds / 1e3,
        "simulate.interp_kips": interp_insts / interp_seconds / 1e3,
        "simulate.share": shares["simulate"],
        "cache.key_us": _mean(key_times) * 1e6,
        "cache.load_result_us": _mean(result_loads) * 1e6,
        "cache.store_result_us": _mean(store_times) * 1e6,
        "cache.result_bytes": result_bytes,
        "cache.share": shares["cache"],
        "dist.codec_us": codec * 1e6,
        "replay.unaccounted_frac": 1.0 - sum(shares.values()),
    }
    return {
        "wall_s": wall,
        "layers": layers,
        "mismatches": mismatches,
        "digest": digest(results),
    }


def main(argv=None) -> int:
    print("ready", flush=True)  # imports done: the parent's set-up clock stops
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode",
                        choices=("ready", "sweep", "prep", "warm", "replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--length", type=int, required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--sweeps", type=int, default=1)
    parser.add_argument("--digest", default=None,
                        help="warm: the digest of the reference results")
    args = parser.parse_args(argv)
    handler = {
        "ready": lambda args: {},
        "sweep": cmd_sweep,
        "prep": cmd_prep,
        "warm": cmd_warm,
        "replay": cmd_replay,
    }[args.mode]
    print(json.dumps(handler(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
