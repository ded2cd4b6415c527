"""Sweep execution engine: cached point execution and sweep scheduling.

The unit of work is a :class:`SweepPoint` — one independent
(config, workload, length, warmup, seed) simulation, exactly the
parallelism grain of the paper's ChampSim campaigns. Three layers:

* :func:`execute_point` runs one point, consulting the persistent disk
  cache (results *and* synthesized traces) when one is configured;
* :func:`run_points` runs a list of points, serially in-process or —
  with ``jobs > 1`` or a ``dispatch`` coordinator — through the
  work-stealing coordinator of :mod:`repro.dist`, which leases
  trace-affine batches to session processes (local ones it forks, or a
  remote ``repro-sim worker`` fleet). Results are reassembled by
  original index, so parallel output is bit-identical to serial, in the
  same order. Sweeps degrade gracefully instead of aborting (see
  :mod:`repro.core.exec.resilience` and ``docs/robustness.md``):
  :class:`_SweepState` classifies every failure, retries it with
  exponential backoff up to ``RetryPolicy.max_retries``, and blames a
  crashed or hung session's executing point alone; ``strict=False``
  returns partial results plus classified failures instead of raising,
  and a :class:`~repro.core.exec.resilience.SweepJournal` checkpoint
  lets an interrupted sweep resume with only its unfinished points;
* :func:`configure_disk_cache` / :func:`get_disk_cache` manage the
  process-wide persistent cache (enabled explicitly, or via the
  ``REPRO_DISK_CACHE`` environment variable).
"""

from __future__ import annotations

import gc
import os
import threading
import time
import traceback as traceback_module
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import MachineConfig, build_simulator
from repro.core.exec.cachekey import CACHE_SCHEMA, digest, result_key, trace_key
from repro.core.exec.diskcache import DiskCache
from repro.core.exec.faults import InjectedCacheCorruption, maybe_fault
from repro.core.exec.resilience import (
    DEADLINE_MESSAGE,
    DEFAULT_POLICY,
    PointError,
    PointOutcome,
    RetryPolicy,
    SweepError,
    SweepJournal,
    SweepReport,
)
from repro.core.simulator import SimResult
from repro.obs.observer import ObsSpec, Observer
from repro.trace.workloads import WORKLOAD_SPECS, get_trace

#: Workload names with this prefix resolve to ingested corpus traces
#: (see :mod:`repro.corpus.resolve`; imported lazily — the corpus
#: package reuses this package's disk-cache write discipline, so a
#: top-level import here would be circular).
CORPUS_PREFIX = "corpus:"


def _corpus_resolve():
    from repro.corpus import resolve

    return resolve

#: Set to ``1``/``true``/``yes``/``on`` (enable, default root) or a
#: directory path to enable the persistent cache without touching code;
#: ``0``/``false``/``no``/``off`` (any case) or unset leave it off.
ENV_DISK_CACHE = "REPRO_DISK_CACHE"

_disk_cache: Optional[DiskCache] = None
_disk_cache_configured = False

#: In-process memo of traces loaded from the disk cache (or synthesized),
#: keyed by (workload, length, seed). ``workloads.get_trace`` memoizes
#: synthesis; this additionally memoizes disk loads.
_trace_memo: Dict[Tuple[str, int, int], object] = {}

#: In-process memo of batch plans (columnar derivations + predictor
#: replay consumed by the kernel), keyed by
#: (workload, length, seed, PredictorGeometry). Leases group points by
#: trace, so a warm session amortizes one plan across every config of
#: a geometry family, exactly like the trace memo.
_plan_memo: Dict[Tuple, object] = {}


def configure_disk_cache(
    enabled: bool = True, root=None, shard: Optional[bool] = None
) -> Optional[DiskCache]:
    """Install (or disable) the process-wide persistent cache.

    *shard* opts the store into the 256-way directory layout (``None``
    defers to ``REPRO_CACHE_SHARDS``; the service daemon shards by
    default). Returns the active :class:`DiskCache`, or ``None`` when
    disabled.
    """
    global _disk_cache, _disk_cache_configured
    _disk_cache = DiskCache(root, shard=shard) if enabled else None
    _disk_cache_configured = True
    _trace_memo.clear()
    _plan_memo.clear()
    return _disk_cache


def _env_disk_cache() -> Tuple[bool, Optional[str]]:
    """``REPRO_DISK_CACHE`` as ``(enabled, root)``: an off value or unset
    is ``(False, None)``, an on value ``(True, None)`` (the default
    root), anything else ``(True, <that directory>)``."""
    env = os.environ.get(ENV_DISK_CACHE, "").strip()
    if env.lower() in ("", "0", "false", "no", "off"):
        return False, None
    if env.lower() in ("1", "true", "yes", "on"):
        return True, None
    return True, env


def env_cache_root() -> Optional[str]:
    """The directory ``REPRO_DISK_CACHE`` names, if it names one (the
    variable also accepts plain on/off values like ``1``/``0``)."""
    return _env_disk_cache()[1]


def get_disk_cache() -> Optional[DiskCache]:
    """The active persistent cache, resolving ``REPRO_DISK_CACHE`` lazily."""
    global _disk_cache, _disk_cache_configured
    if not _disk_cache_configured:
        enabled, root = _env_disk_cache()
        _disk_cache = DiskCache(root) if enabled else None
        _disk_cache_configured = True
    return _disk_cache


def clear_trace_memo() -> None:
    """Drop the in-process trace memo (tests use this for isolation)."""
    _trace_memo.clear()


def clear_plan_memo() -> None:
    """Drop the in-process batch-plan memo (tests use this for isolation)."""
    _plan_memo.clear()


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation: the unit of sweep parallelism.

    ``obs`` optionally requests observability (event trace + interval
    metrics, see :mod:`repro.obs`) for this point. Observation never
    changes simulated behaviour, so it is deliberately **excluded from
    the cache key**: the artifact is stored next to the cached result
    (``DiskCache.store_obs``) under the same key, and a cached result
    satisfies an observed point only if its artifact is present too.
    """

    config: MachineConfig
    workload: str
    length: int
    warmup: int
    seed: int = 7
    obs: Optional[ObsSpec] = None


def point_key(point: SweepPoint) -> str:
    """Persistent-cache key of *point* (content hash, schema-versioned).

    For ``corpus:`` workloads the spec is the ingested trace's content
    hash plus the canonical slice spec
    (:func:`repro.corpus.resolve.corpus_point_spec`), so re-ingesting
    identical content keeps cached results valid while changed content
    invalidates them. ``point.obs`` is intentionally not hashed — see
    :class:`SweepPoint`.
    """
    spec = WORKLOAD_SPECS.get(point.workload)
    if spec is None and point.workload.startswith(CORPUS_PREFIX):
        spec = _corpus_resolve().corpus_point_spec(point.workload)
    return result_key(
        point.config,
        point.workload,
        spec,
        point.length,
        point.warmup,
        point.seed,
    )


def fetch_trace(workload: str, length: int, seed: int):
    """Trace for *workload*, via memo -> disk cache -> synthesis.

    ``corpus:`` workloads materialize from the corpus store instead
    (truncated to *length*; *seed* is irrelevant to a recorded trace) —
    they already live on disk in sharded form, so they bypass the disk
    cache's trace tier.
    """
    memo_key = (workload, length, seed)
    trace = _trace_memo.get(memo_key)
    if trace is not None:
        return trace
    if workload.startswith(CORPUS_PREFIX):
        trace = _corpus_resolve().load_corpus_trace(workload, length)
        _trace_memo[memo_key] = trace
        return trace
    disk = get_disk_cache()
    spec = WORKLOAD_SPECS.get(workload)
    if disk is not None and spec is not None:
        key = trace_key(workload, spec, length, seed)
        trace = disk.load_trace(key)
        if trace is None:
            trace = get_trace(workload, length, seed)
            disk.store_trace(key, trace)
    else:
        trace = get_trace(workload, length, seed)
    _trace_memo[memo_key] = trace
    return trace


def plan_key(point: SweepPoint, geometry) -> str:
    """Persistent-cache key of the batch plan *point* consumes.

    Content-addressed exactly like :func:`point_key` but per
    (trace identity, predictor geometry) instead of per config — every
    config of one geometry family shares the entry.
    """
    from repro.trace.columnar import COLUMNAR_SCHEMA

    spec = WORKLOAD_SPECS.get(point.workload)
    if spec is None and point.workload.startswith(CORPUS_PREFIX):
        spec = _corpus_resolve().corpus_point_spec(point.workload)
    return digest(
        {
            "kind": "plan",
            "schema": [CACHE_SCHEMA, COLUMNAR_SCHEMA],
            "workload": point.workload,
            "spec": spec,
            "length": point.length,
            "seed": point.seed,
            "geometry": geometry.key_fields(),
        }
    )


#: Optional hook for pulling batch plans from a remote store: a callable
#: ``key -> Optional[bytes]`` returning raw ``.npz`` bytes (or ``None``).
#: The dist worker installs one pointing at its coordinator, so a cold
#: worker reuses plans the fleet already built instead of re-deriving
#: them. Consulted only after a disk miss; a failed fetch falls back to
#: the local build, so it can never change results.
_remote_plan_fetcher: Optional[Callable[[str], Optional[bytes]]] = None


def set_remote_plan_fetcher(
    fetcher: Optional[Callable[[str], Optional[bytes]]]
) -> None:
    """Install (or clear, with ``None``) the remote batch-plan fetcher."""
    global _remote_plan_fetcher
    _remote_plan_fetcher = fetcher


def _load_plan(disk: DiskCache, key: str, geometry, n: int):
    """The disk tier's plan for *key*, or ``None`` when it is absent,
    unreadable, or was built from a slice of another length."""
    from repro.trace.columnar import BatchPlan

    hit = disk.load_plan(key)
    if hit is None:
        return None
    arrays, _meta = hit
    try:
        plan = BatchPlan.from_payload(geometry, arrays)
    except Exception:
        return None  # missing columns: rebuild
    return plan if len(plan.line_ix) == n else None


def fetch_batch_plan(point: SweepPoint, trace):
    """Batch plan for *point*, via memo -> disk cache -> remote -> build.

    The stored entry's ``__meta__`` carries a ``source`` marker —
    ``"synth"`` for synthetic workloads, the corpus content hash for
    ``corpus:`` ones — so ``repro-sim corpus gc`` can prune plans whose
    backing corpus entry is gone.
    """
    from repro.core.passes.kernel import batch_geometry
    from repro.trace.columnar import build_batch_plan, build_plan_entry

    geometry = batch_geometry(point.config)
    memo_key = (point.workload, point.length, point.seed, geometry)
    plan = _plan_memo.get(memo_key)
    if plan is not None:
        return plan
    disk = get_disk_cache()
    if disk is not None:
        key = plan_key(point, geometry)
        plan = _load_plan(disk, key, geometry, len(trace))
        if plan is None and _remote_plan_fetcher is not None:
            # Remote tier between the disk cache and a local build: adopt
            # the fetched bytes into the disk cache, then load through
            # the normal (corruption-tolerant) path.
            blob = _remote_plan_fetcher(key)
            if blob and disk.adopt_plan(key, blob):
                plan = _load_plan(disk, key, geometry, len(trace))
    if plan is None and disk is None:
        plan = build_batch_plan(trace, geometry)
    elif plan is None:
        plan, payload = build_plan_entry(trace, geometry)
        source = "synth"
        if point.workload.startswith(CORPUS_PREFIX):
            spec = _corpus_resolve().corpus_point_spec(point.workload)
            source = spec["content"]
        meta = {
            "workload": point.workload,
            "length": point.length,
            "seed": point.seed,
            "geometry": geometry.key_fields(),
            "source": source,
        }
        disk.store_plan(key, payload, meta)
    _plan_memo[memo_key] = plan
    return plan


class _CollectorPause:
    """Keeps the cyclic garbage collector off while a point runs.

    A point allocates millions of objects (trace and plan columns, cache
    tables, kernel state), none of them in a reference cycle, so every
    collection the allocations trigger rescans them for nothing: with
    the collector off for a whole sweep, ``gc.collect()`` afterwards
    finds no unreachable object. The collector's state is process-wide,
    so the pause is one per process: the first point to enter records
    the state its caller left (a caller that had the collector off keeps
    it off), and the last one to leave restores it, however many threads
    run points at once.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = False

    def __enter__(self) -> None:
        with self._lock:
            if not self._depth:
                self._restore = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if not self._depth and self._restore:
                gc.enable()


_collector_pause = _CollectorPause()


def execute_point(point: SweepPoint) -> SimResult:
    """Simulate one point, going through the persistent cache if enabled.

    When ``point.obs`` is set, the run is instrumented and the resulting
    observation dump is stored alongside the cached result; a prior
    cached result only short-circuits the run if its observation
    artifact already exists (otherwise the point is re-simulated to
    produce it — observation does not perturb results, so the refreshed
    result is identical).

    The point runs with the cyclic garbage collector paused (see
    :class:`_CollectorPause`); the caller's collector state is back when
    it returns or raises.
    """
    with _collector_pause:
        return _execute_point(point)


def _execute_point(point: SweepPoint) -> SimResult:
    disk = get_disk_cache()
    key = None
    if disk is not None:
        key = point_key(point)
        hit = disk.load_result(key)
        if hit is not None and (
            point.obs is None or disk.obs_path(key).exists()
        ):
            return hit
    trace = fetch_trace(point.workload, point.length, point.seed)
    probe = None
    if point.obs is not None:
        probe = Observer.from_spec(
            point.obs,
            meta={"config": point.config.label, "workload": point.workload},
        )
    sim = build_simulator(point.config, trace, probe=probe)
    bplan = None
    if sim.kernel_engine() == "batched":
        # Kernel points consume the shared per-(trace, geometry) plan;
        # the plan fetch is memoized, so a warm session builds it once
        # for every config of the family.
        bplan = fetch_batch_plan(point, trace)
    result = sim.run(warmup=point.warmup, batch_plan=bplan)
    if disk is not None:
        disk.store_result(key, result)
        if probe is not None:
            from repro.obs.export import observation_to_json

            disk.store_obs(key, observation_to_json(probe.observation()))
    return result


# -- resilient execution ------------------------------------------------------


def _attempt_once(point: SweepPoint) -> SimResult:
    """One execution attempt, with fault injection hooked in front.

    ``maybe_fault`` is a no-op single env lookup unless
    ``REPRO_FAULT_SPEC`` is set, so the hot path is unchanged.
    """
    maybe_fault(point)
    return execute_point(point)


def _classify_exception(exc: BaseException) -> str:
    """Map an attempt's exception onto the PointError taxonomy."""
    return (
        "cache-corrupt" if isinstance(exc, InjectedCacheCorruption) else "exception"
    )


#: Default worker count for CLI sweeps when ``--jobs`` is not given.
ENV_JOBS = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None, default_auto: bool = False) -> int:
    """Normalize a job count; ``0`` auto-detects the usable CPU count.

    ``None`` (the CLI's "flag not given") consults the ``REPRO_JOBS``
    environment variable, defaulting to ``1``; an unparsable value is
    ignored. An **explicit** ``0`` always auto-detects, overriding
    ``REPRO_JOBS``. Auto-detection uses :func:`os.process_cpu_count`
    (affinity-aware, Python >= 3.13) when available, falling back to
    :func:`os.cpu_count`.

    *default_auto* flips the ``None``-and-no-env default from ``1`` to
    auto-detect. The dist worker uses it so a remote worker sizes itself
    to **its own** host: precedence there is explicit ``--jobs``, then
    the worker host's ``REPRO_JOBS``, then the worker host's CPU count —
    the coordinator's job count is never consulted (it does not travel
    over the wire).
    """
    if jobs is None:
        env = os.environ.get(ENV_JOBS, "").strip()
        try:
            jobs = int(env) if env else (0 if default_auto else 1)
        except ValueError:
            jobs = 0 if default_auto else 1
    jobs = int(jobs)
    if jobs == 0:
        probe = getattr(os, "process_cpu_count", None) or os.cpu_count
        jobs = probe() or 1
    return max(1, jobs)


class _SweepState:
    """Shared bookkeeping of one resilient sweep (serial or parallel)."""

    def __init__(
        self,
        points: Sequence[SweepPoint],
        policy: RetryPolicy,
        journal: Optional[SweepJournal],
        resume: bool,
        on_outcome: Optional[Callable[[PointOutcome], None]] = None,
        deadline: Optional[float] = None,
    ) -> None:
        self.points = list(points)
        self.policy = policy
        self.journal = journal
        self.on_outcome = on_outcome
        #: Absolute ``time.monotonic()`` instant past which no further
        #: point may start (and running points are killed): the sweep's
        #: hard deadline, propagated by the service daemon from
        #: per-request deadlines. ``None`` disables it.
        self.deadline = deadline
        self.report = SweepReport()
        self.report.bump("points", len(self.points))
        self.attempts: Dict[int, int] = {}
        self.outcomes: Dict[int, PointOutcome] = {}
        self.t0 = time.monotonic()
        self.pairs = self._resume_filter(resume)

    def now(self) -> float:
        return time.monotonic() - self.t0

    def deadline_expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def _notify(self, index: int) -> None:
        """Stream one *final* outcome to the submission hook.

        The hook serves live progress consumers (the ``repro-sim serve``
        daemon streams these into job event feeds), so it must never be
        able to poison the sweep: exceptions are swallowed.
        """
        if self.on_outcome is None:
            return
        try:
            self.on_outcome(self.outcomes[index])
        except Exception:
            pass

    def _resume_filter(self, resume: bool) -> List[Tuple[int, SweepPoint]]:
        """Skip journaled points whose cached result still loads."""
        pairs = list(enumerate(self.points))
        if not resume or self.journal is None:
            return pairs
        done = self.journal.completed()
        if not done:
            return pairs
        disk = get_disk_cache()
        remaining: List[Tuple[int, SweepPoint]] = []
        for index, point in pairs:
            key = point_key(point)
            if key in done and disk is not None:
                result = disk.load_result(key)
                if result is not None:
                    self.outcomes[index] = PointOutcome(
                        index=index, point=point, result=result, resumed=True
                    )
                    self.report.bump("resumed")
                    self.report.record(self.now(), "resume_skip", index=index)
                    self._notify(index)
                    continue
                # Journal says done but the artifact is unreadable:
                # classified cache-corrupt, transparently re-run.
                self.report.bump("cache_corrupt")
                self.report.record(self.now(), "cache_corrupt", index=index)
            remaining.append((index, point))
        return remaining

    def point_succeeded(
        self, index: int, point: SweepPoint, result: SimResult, duration: float
    ) -> None:
        self.attempts[index] = self.attempts.get(index, 0) + 1
        self.outcomes[index] = PointOutcome(
            index=index,
            point=point,
            result=result,
            attempts=self.attempts[index],
            duration=duration,
        )
        self.report.bump("executed")
        self.report.bump("ok")
        if self.journal is not None:
            self.journal.record(point_key(point))
        self._notify(index)

    def point_failed(
        self,
        index: int,
        point: SweepPoint,
        kind: str,
        message: str,
        tb: str = "",
        event: str = "point_error",
        **fields,
    ) -> Optional[float]:
        """Record one failed attempt as an *event* (with *fields*); returns
        the backoff before its retry, or ``None`` when retries ran out."""
        self.attempts[index] = self.attempts.get(index, 0) + 1
        counter = {
            "exception": "exceptions",
            "timeout": "timeouts",
            "worker-crash": "worker_crashes",
            "cache-corrupt": "cache_corrupt",
        }[kind]
        self.report.bump(counter)
        retrying = self.attempts[index] <= self.policy.max_retries
        self.report.record(
            self.now(), event, index=index, **fields,
            attempt=self.attempts[index], final=not retrying,
        )
        if retrying:
            self.report.bump("retries")
            delay = self.policy.delay(self.attempts[index])
            self.report.record(self.now(), "retry", index=index, delay=round(delay, 3))
            return delay
        self.outcomes[index] = PointOutcome(
            index=index,
            point=point,
            error=PointError(
                kind=kind,
                point_key=point_key(point),
                attempts=self.attempts[index],
                message=message,
                traceback=tb,
            ),
            attempts=self.attempts[index],
        )
        self.report.bump("failed")
        self._notify(index)
        return None

    def point_deadline(self, index: int, point: SweepPoint) -> None:
        """Fail one point terminally because the sweep deadline passed.

        Never retried (more attempts cannot beat an expired deadline)
        and idempotent: a point that already has an outcome keeps it.
        """
        if index in self.outcomes:
            return
        attempts = self.attempts.get(index, 0)
        self.outcomes[index] = PointOutcome(
            index=index,
            point=point,
            error=PointError(
                kind="timeout",
                point_key=point_key(point),
                attempts=attempts,
                message=f"{DEADLINE_MESSAGE}: sweep deadline passed "
                "before this point completed",
            ),
            attempts=attempts,
        )
        self.report.bump("deadline_exceeded")
        self.report.bump("failed")
        self.report.record(self.now(), "deadline_exceeded", index=index)
        self._notify(index)

    def finish(self, cause: str = "sweep interrupted") -> SweepReport:
        """Assemble the positionally ordered outcome list; points still
        open fail with *cause* (why the sweep ended early)."""
        for index, point in enumerate(self.points):
            if index not in self.outcomes:
                self.outcomes[index] = PointOutcome(
                    index=index,
                    point=point,
                    error=PointError(
                        kind="exception",
                        point_key=point_key(point),
                        attempts=self.attempts.get(index, 0),
                        message=f"{cause} before this point completed",
                    ),
                    attempts=self.attempts.get(index, 0),
                )
        self.report.outcomes = [
            self.outcomes[index] for index in range(len(self.points))
        ]
        return self.report


def _run_serial_resilient(state: _SweepState) -> SweepReport:
    """In-process resilient execution (``jobs=1`` with a policy/journal)."""
    try:
        for index, point in state.pairs:
            while True:
                if state.deadline_expired():
                    # Past the deadline nothing more is dispatched —
                    # remaining points fail fast with a classified
                    # timeout instead of burning more wall-clock.
                    state.point_deadline(index, point)
                    break
                t0 = time.monotonic()
                try:
                    result = _attempt_once(point)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    kind = _classify_exception(exc)
                    delay = state.point_failed(
                        index,
                        point,
                        kind,
                        f"{type(exc).__name__}: {exc}",
                        traceback_module.format_exc(),
                        error=kind,
                    )
                    if delay is None:
                        break
                    time.sleep(delay)
                else:
                    state.point_succeeded(
                        index, point, result, time.monotonic() - t0
                    )
                    state.report.record(
                        state.now(),
                        "point_ok",
                        index=index,
                        attempt=state.attempts[index],
                    )
                    break
    except KeyboardInterrupt:
        state.report.interrupted = True
    return state.finish()


def run_points(
    points: Sequence[SweepPoint],
    jobs: int = 1,
    *,
    strict: bool = True,
    policy: Optional[RetryPolicy] = None,
    journal: Optional[SweepJournal] = None,
    resume: bool = False,
    batch: Optional[int] = None,
    recycle: int = 0,
    on_outcome: Optional[Callable[[PointOutcome], None]] = None,
    deadline: Optional[float] = None,
    dispatch=None,
):
    """Execute every point; results are positionally ordered like *points*.

    ``jobs=1`` runs serially in-process. ``jobs=0`` auto-detects the
    CPU count (:func:`resolve_jobs`). ``jobs>1`` starts a private
    work-stealing coordinator on a loopback port and forks up to *jobs*
    session processes that lease trace-affine batches from it, even for
    a single point (:func:`repro.dist.coordinator.run_local`); they are
    stopped and reaped before this returns. Because each point is an
    independent deterministic simulation and results are reassembled by
    index, the output is bit-identical to the serial run. *batch* caps
    the lease size explicitly (points per dispatch); *recycle* > 0
    retires each session after that many leased points, and a fresh one
    replaces it.

    Resilience (``docs/robustness.md``): failures are retried with
    exponential backoff up to ``policy.max_retries`` (crashed/hung
    sessions included — the poison point is pinpointed and quarantined
    so its lease-mates survive; a lease silent past
    ``policy.allowance()`` is a ``timeout``). With ``strict=True``
    (default) the return value is a plain ``List[SimResult]`` and a
    :class:`SweepError` is raised if any point still fails after
    retries — completed work is preserved in the report, the disk cache
    and the journal. With ``strict=False`` the full :class:`SweepReport`
    is returned: partial results plus classified failures, never an
    exception. *journal* (with ``resume=True``) skips points whose
    completion was checkpointed by a previous run and whose cached
    result still loads.

    *on_outcome* is the async-submission hook used by the service
    daemon (``repro-sim serve``): it is called once per point with the
    **final** :class:`~repro.core.exec.resilience.PointOutcome` — after
    a success, after retries are exhausted, or on a resume skip — from
    the dispatching thread, as outcomes stream in. Exceptions it raises
    are swallowed; it must never block for long.

    *deadline* is an absolute :func:`time.monotonic` instant: once it
    passes, queued points fail fast (classified ``timeout`` with a
    ``deadline-exceeded`` message, **nothing dispatched**) and points
    still running fail the same way, their local sessions killed. It is
    the bottom of the service daemon's per-request deadline plumbing
    (``X-Deadline-Ms`` / job ``timeout_s``), layered on the per-point
    ``RetryPolicy.timeout`` machinery, not replacing it.

    *dispatch* drains the points through a coordinator the caller keeps
    instead: a :class:`repro.dist.Coordinator` object (the service
    daemon's, which owns its sessions for life), or ``"dist://host:port"``
    for the registry-held one listening there (started in-process on
    demand; ``repro-sim worker`` processes connect and execute).
    Everything above applies unchanged, observability capture included;
    *jobs* is ignored (the fleet is sized by whoever started it; remote
    workers size themselves, see :func:`resolve_jobs`).
    """
    points = list(points)
    jobs = resolve_jobs(jobs)
    serial = dispatch is None and jobs == 1
    if (
        serial
        and strict
        and policy is None
        and journal is None
        and not resume
        and on_outcome is None
        and deadline is None
    ):
        # Legacy fast path: zero resilience overhead.
        return [execute_point(point) for point in points]
    state = _SweepState(
        points, policy or DEFAULT_POLICY, journal, resume, on_outcome, deadline
    )
    if not state.pairs:
        report = state.finish()
    elif serial:
        report = _run_serial_resilient(state)
    elif dispatch is not None:
        from repro.dist.coordinator import run_dist

        report = run_dist(state, dispatch, batch, recycle)
    else:
        from repro.dist.coordinator import run_local

        report = run_local(state, jobs, batch, recycle)
    if strict:
        if report.interrupted:
            raise KeyboardInterrupt
        if report.failures:
            raise SweepError(report)
        return report.results
    return report
