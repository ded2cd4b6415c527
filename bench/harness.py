"""Workloads: set-up spawns, measuring processes, a daemon and its
clients, folded into metrics.

Stdlib only. Everything that imports ``repro`` runs in a child process —
the measuring process (``rep.py``) or a ``repro-sim serve`` daemon — so
every run starts cold, and the peak resident set of a measured child
(reaped with ``wait4``, which reports a process together with the
descendants it waited for) is the system's. The untimed reference runs
and the set-up spawns are left out of it.

Every time is measured together with the host's speed and reported
scaled to the reference host (``hostspeed.py``); the wall-clock figures
are printed beside them.

``--seconds`` sizes the work: the ``*_PER_S`` rates below are what the
reference host does per second. The work is fixed by ``--seconds`` and
``--seed`` alone, so sample counts and memory never depend on how fast
the host happens to be.

An *operation* and its time: a whole cold G20 sweep (``sweep_cold_*``),
a whole G20 re-run against the warm cache (``sweep_warm``), and one
``/v1/run`` request, POST to the end of its event stream
(``service_warm``).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from hostspeed import Meter
from stats import MIN_BEYOND, percentile, samples_beyond

ROOT = Path(__file__).resolve().parent.parent
REP = ROOT / "bench" / "rep.py"

#: Instructions per simulated point (warm-up = a quarter of it).
LENGTH = 10_000
#: ``--smoke`` scale, for the benchmark's own tests.
SMOKE_LENGTH = 3_000

#: The sweep grid G20: the ideal I-BTB 16 baseline plus these configs —
#: the CLI's default, one per BTB organisation — on each of these traces.
#: Frozen here so that a change to the CLI default cannot move the
#: benchmark.
CONFIG_SPECS = ("ibtb:16", "rbtb:3", "bbtb:1:split", "mbbtb:2:allbr")
TRACES = ("web_frontend", "db_oltp", "kv_store", "template_render")
G20_POINTS = (1 + len(CONFIG_SPECS)) * len(TRACES)

#: Work per second of ``--seconds`` on the reference host. A cold G20
#: sweep takes about 1.6 s there, serial or on the pool.
COLD_SWEEPS_PER_S = 0.6
MIN_COLD_SWEEPS = 3
WARM_SWEEPS_PER_S = 120
WARM_REQUESTS_PER_S = 120
#: The warm workloads' least operation count: enough for a p90 with ten
#: samples beyond it.
MIN_OPS = 100
#: Fresh interpreters (daemons for the service) started per run for
#: ``setup_s``, their median (2 at ``--smoke`` scale).
SETUP_SPAWNS = 7
#: Closed-loop clients of the service, and the pool size of the local
#: sweep and the daemon (the host has 2 CPUs).
CLIENTS = 2
WORKERS = 2
#: Requests each client sends between two probes of the host.
SERVICE_BLOCK = 8
CHILD_TIMEOUT = 150.0

WORKLOADS = (
    "sweep_cold_serial",
    "sweep_cold_local",
    "sweep_warm",
    "service_warm",
)

#: Per-layer metrics a workload does not exercise read zero; all of them
#: are counts or fractions. Every per-layer *time* comes from the traced
#: replay, which each traced run performs.
WORKLOAD_LAYERS = (
    "cache.result_hits",
    "cache.result_misses",
    "engine.busy_s",
    "engine.overhead_frac",
    "engine.retries",
    "engine.failed",
    "service.admit_frac",
    "service.overhead_frac",
    "service.queue_frac",
    "service.appends_per_request",
    "service.refused",
)


class BenchError(Exception):
    """The benchmark could not run (as opposed to: it ran and found wrong
    results)."""


@dataclass
class Samples:
    """What one run measured, before it is folded into metrics. Times in
    ``setup`` and ``op_ms`` are scaled to the reference host; the
    ``*_wall`` lists hold the same samples as the clock read them."""

    setup: List[float] = field(default_factory=list)
    setup_wall: List[float] = field(default_factory=list)
    op_ms: List[float] = field(default_factory=list)
    op_wall_ms: List[float] = field(default_factory=list)
    #: One ``1 - busy / (jobs * wall)`` per sweep or service session.
    overheads: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    #: Peak resident set (KiB) of the measuring process or the daemon.
    peaks_kb: List[int] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    digests: set = field(default_factory=set)
    notes: List[str] = field(default_factory=list)

    def add_layer(self, name: str, value: float) -> None:
        self.layers[name] = self.layers.get(name, 0) + value


class Context:
    """One run's settings, scratch space and child-process plumbing."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool, smoke: bool, tamper: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.tamper = tamper
        self.length = SMOKE_LENGTH if smoke else LENGTH
        self.spawns = 2 if smoke else SETUP_SPAWNS
        self.work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
        self._dirs = 0
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        # Nothing may write outside the checkout: not the default cache
        # roots in $HOME, nor the system temporary directory.
        self.env["REPRO_CACHE_DIR"] = str(self.work / "default-cache")
        self.env["REPRO_CORPUS_DIR"] = str(self.work / "default-corpus")
        self.env["TMPDIR"] = str(self.work)

    def amount(self, per_second: float, minimum: int) -> int:
        return max(minimum, round(per_second * self.seconds))

    def fresh_dir(self, name: str) -> str:
        self._dirs += 1
        return str(self.work / f"{name}-{self._dirs}")

    def rep(self, mode: str, *args) -> tuple:
        """Run one ``rep.py`` child; returns ``(spawn_to_ready_s, doc,
        peak_kb)``."""
        argv = [sys.executable, str(REP), mode, "--seed", str(self.seed),
                "--length", str(self.length), *map(str, args)]
        if "--cache" not in args:
            argv += ["--cache", self.fresh_dir("cache")]
        # stderr goes to a file: the child is reaped by wait4, not by
        # communicate(), so only one pipe may be read.
        err_path = Path(self.fresh_dir(f"{mode}-stderr"))
        with open(err_path, "w") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    text=True, env=self.env,
                                    cwd=str(self.work))
        with _watchdog(proc), proc.stdout:
            ready = proc.stdout.readline()
            setup = perf_counter() - t0
            out = proc.stdout.read()
            peak_kb = _reap(proc)
        if ready.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"rep.py {mode} exited {proc.returncode}: "
                             f"{err_path.read_text().strip()[-2000:]}")
        return setup, json.loads(out.strip().splitlines()[-1]), peak_kb

    def prep(self, jobs: int) -> dict:
        """Compute G20 into a fresh cache (untimed, and left out of the
        peak resident set); returns the prep document plus the cache
        path."""
        cache = self.fresh_dir("cache")
        _, doc, _ = self.rep("prep", "--cache", cache, "--jobs", jobs)
        if self.tamper:
            # The benchmark's own test: a wrong reference must fail the run.
            doc["digest"] = "0" * 64
            doc["results"][-1]["cycles"] += 1
        doc["cache"] = cache
        return doc


class _watchdog:
    """Kill *proc* if it outlives *timeout* seconds."""

    def __init__(self, proc, timeout: float = CHILD_TIMEOUT) -> None:
        self.timer = threading.Timer(timeout, proc.kill)

    def __enter__(self):
        self.timer.start()

    def __exit__(self, *exc) -> None:
        self.timer.cancel()


def _reap(proc) -> int:
    """Wait for *proc*, whose output has been read to the end; returns its
    peak resident set in KiB — the largest of its own and that of every
    descendant it waited for, as ``wait4`` reports it (0 when it was
    already reaped, which happens only after the watchdog killed it)."""
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except ChildProcessError:
        proc.wait()
        return 0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


def _median(values, default: float = 0.0) -> float:
    return statistics.median(values) if values else default


def interpreter_setup(ctx: Context, s: Samples) -> None:
    """Set-up of the sweep workloads: spawn -> ``ready`` of a fresh
    interpreter that imports ``repro``, each bracketed by host probes."""
    meter = Meter()
    for _ in range(ctx.spawns):
        wall, _, _ = ctx.rep("ready")
        s.setup_wall.append(wall)
        s.setup.append(wall / meter.close())


# -- sweeps -------------------------------------------------------------------


def sweep_cold(ctx: Context, jobs: int) -> Samples:
    """Cold G20 sweeps, each in a measuring process of its own with a
    fresh cache. One process per sweep makes the peak resident set a
    per-sweep sample: which pool worker ends up holding how many traces
    changes from sweep to sweep, and a single process would report the
    largest of its sweeps' peaks."""
    s = Samples()
    interpreter_setup(ctx, s)
    if jobs > 1:
        reference = ctx.prep(jobs=1)["digest"]
    else:
        # Serial sweeps are each other's reference.
        reference = "0" * 64 if ctx.tamper else None
    for _ in range(ctx.amount(COLD_SWEEPS_PER_S, MIN_COLD_SWEEPS)):
        _, sweep, peak_kb = ctx.rep("sweep", "--jobs", jobs)
        s.peaks_kb.append(peak_kb)
        s.attempted += sweep["points"]
        s.failed += sweep["failed"]
        if sweep["digest"] is not None:
            s.digests.add(sweep["digest"])
            if reference is not None and sweep["digest"] != reference:
                s.mismatched += sweep["points"]
        s.op_ms.append(sweep["scaled"] * 1e3)
        s.op_wall_ms.append(sweep["wall"] * 1e3)
        s.overheads.append(1.0 - sweep["busy_s"] / (jobs * sweep["wall"]))
        s.add_layer("engine.busy_s", sweep["busy_s"])
        for name in ("retries", "failed"):
            s.add_layer(f"engine.{name}", sweep["counters"].get(name, 0))
        for name in ("result_hits", "result_misses"):
            s.add_layer(f"cache.{name}", sweep["cache"].get(name, 0))
    if reference is None and len(s.digests) > 1:
        s.mismatched += s.attempted
    return s


def sweep_warm(ctx: Context) -> Samples:
    """Serial re-runs of G20 against a warm cache, memos empty."""
    s = Samples()
    interpreter_setup(ctx, s)
    prep = ctx.prep(jobs=WORKERS)
    _, doc, peak_kb = ctx.rep(
        "warm", "--cache", prep["cache"], "--digest", prep["digest"],
        "--sweeps", ctx.amount(WARM_SWEEPS_PER_S, MIN_OPS))
    s.peaks_kb.append(peak_kb)
    s.attempted = len(doc["walls"])
    s.failed = doc["failed"]
    s.mismatched = doc["mismatched"]
    s.op_ms = [t * 1e3 for t in doc["scaled"]]
    s.op_wall_ms = [t * 1e3 for t in doc["walls"]]
    s.overheads.append(1.0 - doc["busy_s"] / sum(doc["walls"]))
    s.add_layer("engine.busy_s", doc["busy_s"])
    for name in ("result_hits", "result_misses"):
        s.add_layer(f"cache.{name}", doc["cache"].get(name, 0))
    s.digests.add(prep["digest"])
    return s


# -- service ------------------------------------------------------------------


def _http(port: int, method: str, path: str, body=None,
          headers=None) -> tuple:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path,
                     body=json.dumps(body) if body is not None else None,
                     headers=headers or {})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class Daemon:
    """A ``repro-sim serve --jobs 2`` child; ``startup_s`` is spawn to
    listening banner."""

    def __init__(self, ctx: Context, cache: str, state: str) -> None:
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", str(WORKERS), "--cache-dir", cache,
             "--state-dir", state],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=ctx.env, cwd=str(ctx.work),
        )
        with _watchdog(self.proc, 60):
            line = self.proc.stdout.readline()
            while line and "listening on http://" not in line:
                line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise BenchError("repro-sim serve did not start")
        self.startup_s = perf_counter() - t0
        address = line.split("listening on http://", 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])

    def metrics(self) -> dict:
        status, body = _http(self.port, "GET", "/v1/metrics")
        if status != 200:
            raise BenchError(f"/v1/metrics answered {status}")
        return json.loads(body)

    def stop(self) -> int:
        """SIGTERM the daemon and wait for it to drain; returns its peak
        resident set in KiB."""
        self.proc.send_signal(signal.SIGTERM)
        with _watchdog(self.proc, 60), self.proc.stdout:
            self.proc.stdout.read()
            return _reap(self.proc)


@dataclass
class Request:
    spec: dict
    latency_s: float = 0.0
    admit_s: float = 0.0
    busy_s: float = 0.0
    queue_s: float = 0.0
    #: The slowdown of the host over the block of requests this one was
    #: sent in.
    slowdown: float = 1.0
    ok: bool = False
    refused: bool = False
    result: Optional[dict] = None


def _send(port: int, req: Request, client: str, fetch: bool) -> None:
    """POST one ``/v1/run`` and read its event stream to the end (the
    latency); with *fetch*, then GET the finished job's result."""
    t0 = perf_counter()
    status, body = _http(port, "POST", "/v1/run", req.spec,
                         {"X-Client-Id": client})
    req.admit_s = perf_counter() - t0
    if status != 202:
        req.refused = status in (429, 503)
        return
    job = json.loads(body)["job"]
    status, body = _http(port, "GET", f"/v1/jobs/{job}/events")
    req.latency_s = perf_counter() - t0
    events = [json.loads(line) for line in body.splitlines() if line.strip()]
    submitted = next(e for e in events if e["event"] == "submitted")
    for event in events:
        if event["event"] == "point" and event.get("status") == "ok":
            req.busy_s = event["duration_s"]
            req.queue_s = max(0.0, event["ts"] - event["duration_s"]
                              - submitted["ts"])
        elif event["event"] == "done":
            req.ok = event["status"] == "done"
    if fetch and req.ok:
        status, body = _http(port, "GET", f"/v1/jobs/{job}")
        req.result = json.loads(body)["result"] if status == 200 else None
        req.ok = req.result is not None


def _plans(ctx: Context) -> List[List[Request]]:
    """Each client's seeded request sequence: cache hits on the 16
    non-baseline G20 points, a whole number of blocks."""
    length = ctx.length
    warm = [{"config": c, "workload": t, "length": length,
             "warmup": length // 4, "seed": ctx.seed}
            for c in CONFIG_SPECS for t in TRACES]
    per_client = -(-ctx.amount(WARM_REQUESTS_PER_S, MIN_OPS) // CLIENTS)
    per_client = -(-per_client // SERVICE_BLOCK) * SERVICE_BLOCK
    plans = []
    for client in range(CLIENTS):
        rng = random.Random(f"service-{ctx.seed}-{client}")
        plans.append([Request(rng.choice(warm)) for _ in range(per_client)])
    return plans


def _drive(port: int, plans: List[List[Request]]) -> float:
    """Run every client's plan closed-loop, one thread per client, in
    blocks of :data:`SERVICE_BLOCK` requests: at the end of each block
    the clients wait for each other and one of them probes the host.
    Returns the wall time of the session, probes excluded."""
    slowdowns: List[float] = []
    walls: List[float] = []
    t_block = [0.0]

    def close_block() -> None:  # run by the last client to arrive
        walls.append(perf_counter() - t_block[0])
        slowdowns.append(meter.close())
        t_block[0] = perf_counter()

    barrier = threading.Barrier(CLIENTS, action=close_block)
    errors: List[BaseException] = []

    def client(index: int) -> None:
        checked = set()  # points whose result this client verified
        plan = plans[index]
        try:
            for start in range(0, len(plan), SERVICE_BLOCK):
                block = plan[start:start + SERVICE_BLOCK]
                for req in block:
                    point = (req.spec["config"], req.spec["workload"])
                    _send(port, req, f"bench-{index}", point not in checked)
                    checked.add(point)
                barrier.wait(timeout=120)
                for req in block:
                    req.slowdown = slowdowns[start // SERVICE_BLOCK]
        except BaseException as exc:  # re-raised by the main thread
            errors.append(exc)
            barrier.abort()  # release a partner waiting at the barrier

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(CLIENTS)]
    meter = Meter()
    t_block[0] = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise BenchError(f"service client failed: {errors[0]!r}")
    return sum(walls)


def service_warm(ctx: Context) -> Samples:
    s = Samples()
    prep = ctx.prep(jobs=WORKERS)
    # Reference results of the warm set, keyed like the request specs.
    expected = {
        (config, trace): prep["results"][(ci + 1) * len(TRACES) + ti]
        for ci, config in enumerate(CONFIG_SPECS)
        for ti, trace in enumerate(TRACES)
    }
    state = ctx.fresh_dir("state")
    daemon = None
    # Daemon, pool and clients run on every CPU, and the probes average
    # them all. Pinned together on one CPU, the two clients' requests
    # queued behind each other in the executor for a third of the
    # requests, and that share, which set the mean, changed between runs.
    meter = Meter()
    for _ in range(ctx.spawns):
        if daemon is not None:
            daemon.stop()
            meter.close()  # the stop is not part of the next start-up
        daemon = Daemon(ctx, prep["cache"], state)
        s.setup_wall.append(daemon.startup_s)
        s.setup.append(daemon.startup_s / meter.close())
    plans = _plans(ctx)
    try:
        wall = _drive(daemon.port, plans)
        metrics = daemon.metrics()
    finally:
        s.peaks_kb.append(daemon.stop())

    reqs = [req for plan in plans for req in plan]
    ok = [req for req in reqs if req.ok]
    s.attempted = len(reqs)
    s.failed = len(reqs) - len(ok)
    for req in ok:
        if req.result is not None and req.result != (
                expected[(req.spec["config"], req.spec["workload"])]):
            s.mismatched += 1
    s.op_ms = [req.latency_s / req.slowdown * 1e3 for req in ok]
    s.op_wall_ms = [req.latency_s * 1e3 for req in ok]

    m_service, m_cache = metrics["service"], metrics["cache"]
    latency = sum(req.latency_s for req in ok)
    busy = sum(req.busy_s for req in ok)
    s.overheads = [1.0 - busy / (WORKERS * wall)]
    refused = sum(req.refused for req in reqs) + sum(
        v for k, v in m_service.items() if k.startswith("jobs_rejected_"))
    s.layers.update({
        "cache.result_hits": m_cache.get("result_hits", 0),
        "cache.result_misses": m_cache.get("result_misses", 0),
        "engine.busy_s": busy,
        "engine.retries": metrics["resilience"].get("retries", 0),
        "engine.failed": metrics["resilience"].get("failed", 0),
        "service.admit_frac": sum(r.admit_s for r in ok) / latency,
        "service.overhead_frac": 1.0 - busy / latency,
        "service.queue_frac": sum(r.queue_s for r in ok) / latency,
        "service.appends_per_request": (m_service.get("store_appends", 0)
                                        / len(reqs)),
        "service.refused": refused,
    })
    s.digests.add(prep["digest"])
    return s


# -- traced pass --------------------------------------------------------------


def traced_replay(ctx: Context, s: Samples) -> None:
    """The per-layer pass: the G20 replay through public layer calls,
    beside an untraced serial G20 sweep for the tracing overhead."""
    _, replay, _ = ctx.rep("replay")
    _, plain, _ = ctx.rep("sweep", "--jobs", 1)
    s.layers.update(replay["layers"])
    s.layers["replay.tracing_overhead_frac"] = (
        replay["wall_s"] / plain["wall"] - 1.0)
    s.attempted += G20_POINTS
    if replay["mismatches"] or replay["digest"] != plain["digest"]:
        s.mismatched += G20_POINTS
    s.digests.add(replay["digest"])
    s.notes.append(f"traced replay {replay['wall_s']:.3f} s vs untraced "
                   f"serial sweep {plain['wall']:.3f} s (wall)")


# -- entry --------------------------------------------------------------------

RUNNERS = {
    "sweep_cold_serial": lambda ctx: sweep_cold(ctx, jobs=1),
    "sweep_cold_local": lambda ctx: sweep_cold(ctx, jobs=WORKERS),
    "sweep_warm": sweep_warm,
    "service_warm": service_warm,
}


def run(ctx: Context) -> tuple:
    """Run one workload; returns ``(samples, end_to_end, per_layer)``."""
    ctx.work.mkdir(parents=True, exist_ok=True)
    try:
        s = RUNNERS[ctx.workload](ctx)
        if ctx.traced:
            traced_replay(ctx, s)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    ops = len(s.op_ms)
    s.notes.append(
        f"{ops} operations: median {_median(s.op_wall_ms):.4g} ms wall, "
        f"{_median(s.op_ms):.4g} ms scaled; set-up median "
        f"{_median(s.setup_wall):.4g} s wall, {_median(s.setup):.4g} s scaled")
    if samples_beyond(ops, 90) >= MIN_BEYOND:
        s.notes.append(f"operation p90 {percentile(s.op_ms, 90):.4g} ms "
                       "scaled (no bound: see README)")
    end_to_end = {
        "setup_s": _median(s.setup),
        "op_ms_p50": _median(s.op_ms),
        "op_ms_mean": statistics.mean(s.op_ms) if s.op_ms else 0.0,
        "peak_rss_mb": _median(s.peaks_kb) / 1024.0,
    }
    layers = {name: 0.0 for name in WORKLOAD_LAYERS}
    layers.update(s.layers)
    layers["engine.overhead_frac"] = _median(s.overheads)
    return s, end_to_end, layers
