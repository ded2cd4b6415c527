"""Sweep execution engine: cached point execution and a resilient pool.

The unit of work is a :class:`SweepPoint` — one independent
(config, workload, length, warmup, seed) simulation, exactly the
parallelism grain of the paper's ChampSim campaigns. Three layers:

* :func:`execute_point` runs one point, consulting the persistent disk
  cache (results *and* synthesized traces) when one is configured;
* :func:`run_points` fans a list of points across a pool of persistent
  ``multiprocessing`` workers (one process serves many chunks, so warm
  state — trace memo, compiled kernels — is paid for once per worker).
  Points are chunked so that points sharing a trace land in the same
  chunk, chunks are dispatched with trace affinity (a worker keeps
  getting groups it has already loaded; concurrent workers warm
  *different* traces), and results are reassembled by original index,
  so parallel output is bit-identical to serial, in the same order. Sweeps degrade gracefully instead of
  aborting (see :mod:`repro.core.exec.resilience` and
  ``docs/robustness.md``): workers stream per-point outcomes back over a
  pipe and catch per-point exceptions, the parent detects crashed or
  hung workers, pinpoints the poison point (the first unreported one in
  the chunk), and re-dispatches it alone with exponential backoff up to
  ``RetryPolicy.max_retries``; ``strict=False`` returns partial results
  plus classified failures instead of raising, and a
  :class:`~repro.core.exec.resilience.SweepJournal` checkpoint lets an
  interrupted sweep resume with only its unfinished points;
* :func:`configure_disk_cache` / :func:`get_disk_cache` manage the
  process-wide persistent cache (enabled explicitly, or via the
  ``REPRO_DISK_CACHE`` environment variable).
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from math import ceil
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

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

#: Set to ``1``/``true`` (enable, default root) or a directory path to
#: enable the persistent cache without touching code.
ENV_DISK_CACHE = "REPRO_DISK_CACHE"

_disk_cache: Optional[DiskCache] = None
_disk_cache_configured = False

#: In-process memo of traces loaded from the disk cache (or synthesized),
#: keyed by (workload, length, seed). ``workloads.get_trace`` memoizes
#: synthesis; this additionally memoizes disk loads.
_trace_memo: Dict[Tuple[str, int, int], object] = {}

#: In-process memo of batch plans (columnar derivations + predictor
#: replay consumed by the kernel), keyed by
#: (workload, length, seed, PredictorGeometry). Chunk dispatch groups
#: points by trace, so a warm worker amortizes one plan across every
#: config of a geometry family, exactly like the trace memo.
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


def env_cache_root() -> Optional[str]:
    """The directory ``REPRO_DISK_CACHE`` names, if it names one (the
    variable also accepts plain on/off values like ``1``/``0``)."""
    env = os.environ.get(ENV_DISK_CACHE, "").strip()
    if env and env != "0" and env.lower() not in ("1", "true", "false", "yes"):
        return env
    return None


def get_disk_cache() -> Optional[DiskCache]:
    """The active persistent cache, resolving ``REPRO_DISK_CACHE`` lazily."""
    global _disk_cache, _disk_cache_configured
    if not _disk_cache_configured:
        env = os.environ.get(ENV_DISK_CACHE, "").strip()
        if env and env != "0" and env.lower() != "false":
            _disk_cache = DiskCache(env_cache_root())
        else:
            _disk_cache = None
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
    from repro.trace.columnar import build_batch_plan

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
    if plan is None:
        plan = build_batch_plan(trace, geometry)
        if disk is not None:
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
            disk.store_plan(key, plan.payload(), meta)
    _plan_memo[memo_key] = plan
    return plan


def execute_point(point: SweepPoint) -> SimResult:
    """Simulate one point, going through the persistent cache if enabled.

    When ``point.obs`` is set, the run is instrumented and the resulting
    observation dump is stored alongside the cached result; a prior
    cached result only short-circuits the run if its observation
    artifact already exists (otherwise the point is re-simulated to
    produce it — observation does not perturb results, so the refreshed
    result is identical).
    """
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
        # the plan fetch is memoized, so a warm worker builds it once
        # for every config of the family.
        bplan = fetch_batch_plan(point, trace)
    result = sim.run(warmup=point.warmup, batch_plan=bplan)
    if disk is not None:
        disk.store_result(key, result)
        if probe is not None:
            from repro.obs.export import observation_to_json

            disk.store_obs(key, observation_to_json(probe.observation()))
    return result


# -- resilient process fan-out ----------------------------------------------


def _attempt_once(point: SweepPoint) -> SimResult:
    """One execution attempt, with fault injection hooked in front.

    ``maybe_fault`` is a no-op single env lookup unless
    ``REPRO_FAULT_SPEC`` is set, so the hot path is unchanged.
    """
    maybe_fault(point)
    return execute_point(point)


def _classify_exception(exc: BaseException) -> str:
    """Map a worker-side exception onto the PointError taxonomy."""
    return (
        "cache-corrupt" if isinstance(exc, InjectedCacheCorruption) else "exception"
    )


def _worker_main(conn, cache_root, cache_shard: bool = False) -> None:
    """Persistent worker loop: run chunks until told to shut down.

    The worker reconfigures its own disk cache from the shipped root so
    behaviour is identical under fork and spawn start methods, then
    blocks on the pipe for chunk jobs ``(pairs, timeout)``. A ``None``
    job (or pipe EOF) is a clean shutdown. Keeping the process alive
    across chunks is what makes parallel cold sweeps win: the in-process
    trace memo and the compiled-kernel cache are warmed once per
    *worker*, not once per *chunk*.

    For each chunk the worker streams one message per point back:

    * ``("ok", index, result, seconds, counters)`` — point succeeded;
    * ``("err", index, kind, message, traceback, counters)`` — the point
      raised; the worker keeps going through the rest of its chunk, so
      one poison point never takes down its chunk-mates;
    * ``("defer", index, counters)`` — the chunk's soft wall-clock
      budget ran out before this point started; the parent re-dispatches
      it in a fresh chunk (no blame, no attempt consumed);
    * ``("done", counters)`` — chunk finished; the worker is idle again
      and can be handed its next chunk.

    Every message carries a cumulative counter snapshot: if the process
    is killed mid-chunk the parent still folds in the last one seen.
    """
    disk = configure_disk_cache(
        enabled=cache_root is not None, root=cache_root, shard=cache_shard
    )
    snap = (lambda: disk.snapshot()) if disk is not None else (lambda: {})
    try:
        while True:
            try:
                job = conn.recv()
            except (EOFError, OSError):
                return
            if job is None:
                return
            pairs, timeout, deadline_remaining = job
            budget = timeout * len(pairs) if timeout is not None else None
            start = time.monotonic()
            deadline_at = (
                start + deadline_remaining
                if deadline_remaining is not None
                else None
            )
            for position, (index, point) in enumerate(pairs):
                # Hard deadline check: every point past it (first
                # included — an expired deadline guarantees nothing) is
                # handed back undone; the parent classifies it.
                if deadline_at is not None and time.monotonic() >= deadline_at:
                    conn.send(("defer", index, snap()))
                    continue
                # Soft budget check between points: the first point
                # always runs (guaranteeing progress), later ones are
                # handed back if earlier ones consumed the chunk's
                # whole budget.
                if (
                    budget is not None
                    and position
                    and time.monotonic() - start > budget
                ):
                    conn.send(("defer", index, snap()))
                    continue
                t0 = time.monotonic()
                try:
                    result = _attempt_once(point)
                except Exception as exc:
                    conn.send(
                        (
                            "err",
                            index,
                            _classify_exception(exc),
                            f"{type(exc).__name__}: {exc}",
                            traceback_module.format_exc(),
                            snap(),
                        )
                    )
                else:
                    conn.send(("ok", index, result, time.monotonic() - t0, snap()))
            conn.send(("done", snap()))
    finally:
        try:
            conn.close()
        except Exception:
            pass


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


def _chunk_pairs(
    pairs: Sequence[Tuple[int, SweepPoint]],
    jobs: int,
    batch: Optional[int] = None,
) -> List[List[Tuple[int, SweepPoint]]]:
    """Chunk (index, point) pairs, grouping shared-trace points together.

    Points are bucketed by (workload, length, seed) so a worker reuses
    one synthesized trace across its whole chunk; within a bucket they
    are ordered by predictor size so configs sharing a batch-plan
    geometry land adjacent (one plan build serves the run of them);
    chunks are bounded so the pool stays load-balanced even when one
    workload dominates. *batch* overrides the load-balancing bound with
    an explicit chunk size.
    """
    order = sorted(
        range(len(pairs)),
        key=lambda i: (
            pairs[i][1].workload,
            pairs[i][1].length,
            pairs[i][1].seed,
            pairs[i][1].config.bp_size_kb,
            pairs[i][0],
        ),
    )
    if batch is not None:
        bound = max(1, int(batch))
    else:
        bound = max(1, ceil(len(pairs) / (jobs * 4)))
    chunks: List[List[Tuple[int, SweepPoint]]] = []
    current: List[Tuple[int, SweepPoint]] = []
    current_group = None
    for i in order:
        index, point = pairs[i]
        group = (point.workload, point.length, point.seed)
        if current and (group != current_group or len(current) >= bound):
            chunks.append(current)
            current = []
        current_group = group
        current.append((index, point))
    if current:
        chunks.append(current)
    return chunks


def _chunk_points(
    points: Sequence[SweepPoint], jobs: int
) -> List[List[Tuple[int, SweepPoint]]]:
    """Chunk points for the pool (see :func:`_chunk_pairs`)."""
    return _chunk_pairs(list(enumerate(points)), jobs)


@dataclass
class _PendingChunk:
    chunk_id: int
    pairs: List[Tuple[int, SweepPoint]]
    not_before: float = 0.0


def _chunk_group(chunk: _PendingChunk) -> Tuple[str, int, int]:
    """The shared-trace group of a chunk (chunks never mix groups)."""
    point = chunk.pairs[0][1]
    return (point.workload, point.length, point.seed)


@dataclass
class _LiveWorker:
    """One persistent pool member. ``chunk is None`` means idle."""

    proc: multiprocessing.process.BaseProcess
    conn: object
    slot: int
    last_msg: float
    chunk: Optional[_PendingChunk] = None
    #: Shared-trace groups this worker has already loaded (dispatch
    #: affinity: keep handing it chunks whose trace it holds in memo).
    groups: Set[Tuple[str, int, int]] = field(default_factory=set)
    reported: Set[int] = field(default_factory=set)
    deferred: List[Tuple[int, SweepPoint]] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    eof: bool = False
    killed: bool = False
    #: Points dispatched to this worker over its lifetime; when it
    #: crosses the recycle threshold the worker is retired after its
    #: current chunk (bounding per-process memory growth from memos).
    dispatched: int = 0
    retiring: bool = False


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

    def deadline_remaining(self) -> Optional[float]:
        """Seconds left before the deadline (``None`` when unbounded)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.monotonic())

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
        self, index: int, point: SweepPoint, kind: str, message: str, tb: str = ""
    ) -> bool:
        """Record one failed attempt; returns True when retries remain."""
        self.attempts[index] = self.attempts.get(index, 0) + 1
        counter = {
            "exception": "exceptions",
            "timeout": "timeouts",
            "worker-crash": "worker_crashes",
            "cache-corrupt": "cache_corrupt",
        }[kind]
        self.report.bump(counter)
        if self.attempts[index] <= self.policy.max_retries:
            self.report.bump("retries")
            return True
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
        return False

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

    def finish(self) -> SweepReport:
        """Assemble the positionally ordered outcome list."""
        for index, point in enumerate(self.points):
            if index not in self.outcomes:  # interrupted before completion
                self.outcomes[index] = PointOutcome(
                    index=index,
                    point=point,
                    error=PointError(
                        kind="exception",
                        point_key=point_key(point),
                        attempts=self.attempts.get(index, 0),
                        message="sweep interrupted before this point completed",
                    ),
                    attempts=self.attempts.get(index, 0),
                )
        self.report.outcomes = [
            self.outcomes[index] for index in range(len(self.points))
        ]
        return self.report


def _run_serial_resilient(state: _SweepState) -> SweepReport:
    """In-process resilient execution (``jobs=1`` with a policy/journal)."""
    policy = state.policy
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
                    retrying = state.point_failed(
                        index,
                        point,
                        kind,
                        f"{type(exc).__name__}: {exc}",
                        traceback_module.format_exc(),
                    )
                    state.report.record(
                        state.now(),
                        "point_error",
                        index=index,
                        error=kind,
                        attempt=state.attempts[index],
                        final=not retrying,
                    )
                    if not retrying:
                        break
                    delay = policy.delay(state.attempts[index])
                    state.report.record(
                        state.now(), "retry", index=index, delay=round(delay, 3)
                    )
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


def _run_parallel_resilient(
    state: _SweepState,
    jobs: int,
    batch: Optional[int] = None,
    recycle: int = 0,
) -> SweepReport:
    """Process fan-out with crash/hang detection and per-point retries.

    A pool of at most *jobs* persistent workers; chunks are dispatched
    to idle workers over a duplex pipe, so one process serves many
    chunks and its warm state (trace memo, compiled kernels, imports)
    is paid for once per worker instead of once per chunk. A dead or
    hung worker is reaped or killed individually and a replacement is
    spawned on demand, so crashes still can't poison the pool. Workers
    stream per-point outcomes, so after a crash the first unreported
    point of the worker's current chunk is the one that was executing —
    it is blamed and quarantined into a singleton retry chunk while its
    chunk-mates are re-dispatched blame-free.

    *recycle* > 0 retires a worker cleanly after it has been handed that
    many points (``maxtasksperchild`` discipline: a fresh process
    replaces it on demand, bounding memo/kernel memory growth on long
    sweeps without losing counters — the retiree's final snapshot is
    folded in at reap time like any other shutdown).
    """
    policy = state.policy
    ctx = multiprocessing.get_context()
    disk = get_disk_cache()
    cache_root = str(disk.root) if disk is not None else None
    cache_shard = bool(disk.shard) if disk is not None else False
    allowance = policy.allowance()

    pending: List[_PendingChunk] = []
    next_chunk_id = 0

    def schedule(pairs, delay: float = 0.0) -> None:
        nonlocal next_chunk_id
        if not pairs:
            return
        pending.append(
            _PendingChunk(next_chunk_id, list(pairs), state.now() + delay)
        )
        next_chunk_id += 1

    for chunk_pairs in _chunk_pairs(state.pairs, jobs, batch):
        schedule(chunk_pairs)

    live: Dict[object, _LiveWorker] = {}
    free_slots = set(range(jobs))

    def spawn() -> _LiveWorker:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, cache_root, cache_shard),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        slot = min(free_slots)
        free_slots.discard(slot)
        worker = _LiveWorker(
            proc=proc, conn=parent_conn, slot=slot, last_msg=state.now()
        )
        live[parent_conn] = worker
        return worker

    def assign(worker: _LiveWorker, chunk: _PendingChunk) -> bool:
        """Hand *chunk* to an idle worker; False if its pipe is dead."""
        try:
            worker.conn.send(
                (chunk.pairs, policy.timeout, state.deadline_remaining())
            )
        except (BrokenPipeError, OSError):
            worker.eof = True
            return False
        worker.chunk = chunk
        worker.dispatched += len(chunk.pairs)
        worker.groups.add(_chunk_group(chunk))
        worker.reported = set()
        worker.deferred = []
        worker.last_msg = state.now()
        state.report.record(
            state.now(),
            "chunk_start",
            slot=worker.slot,
            chunk=chunk.chunk_id,
            points=len(chunk.pairs),
        )
        return True

    def handle_message(worker: _LiveWorker, msg) -> None:
        tag = msg[0]
        if tag == "ok":
            _, index, result, duration, counters = msg
            worker.counters = counters
            worker.reported.add(index)
            point = dict(worker.chunk.pairs)[index]
            state.point_succeeded(index, point, result, duration)
            state.report.record(
                state.now(),
                "point_ok",
                index=index,
                slot=worker.slot,
                attempt=state.attempts[index],
            )
        elif tag == "err":
            _, index, kind, message, tb, counters = msg
            worker.counters = counters
            worker.reported.add(index)
            point = dict(worker.chunk.pairs)[index]
            retrying = state.point_failed(index, point, kind, message, tb)
            state.report.record(
                state.now(),
                "point_error",
                index=index,
                slot=worker.slot,
                error=kind,
                attempt=state.attempts[index],
                final=not retrying,
            )
            if retrying:
                delay = policy.delay(state.attempts[index])
                state.report.record(
                    state.now(), "retry", index=index, delay=round(delay, 3)
                )
                schedule([(index, point)], delay)
        elif tag == "defer":
            _, index, counters = msg
            worker.counters = counters
            worker.reported.add(index)
            worker.deferred.append((index, dict(worker.chunk.pairs)[index]))
            state.report.bump("deferred")
            state.report.record(
                state.now(), "defer", index=index, slot=worker.slot
            )
        elif tag == "done":
            worker.counters = msg[1]
            if worker.chunk is not None:
                state.report.record(
                    state.now(),
                    "chunk_end",
                    slot=worker.slot,
                    chunk=worker.chunk.chunk_id,
                )
                schedule(worker.deferred)
                worker.deferred = []
                worker.chunk = None  # idle: ready for the next chunk
                if recycle and worker.dispatched >= recycle:
                    # Retire cleanly between chunks; the reap pass folds
                    # its counters and frees the slot for a respawn.
                    worker.retiring = True
                    state.report.record(
                        state.now(),
                        "worker_retire",
                        slot=worker.slot,
                        dispatched=worker.dispatched,
                    )
                    try:
                        worker.conn.send(None)
                    except Exception:
                        worker.eof = True

    def reap(conn, worker: _LiveWorker) -> None:
        """Fold counters, blame/re-dispatch unfinished work, free the slot."""
        # Drain anything still buffered in the pipe before judging.
        while True:
            try:
                if not conn.poll():
                    break
                handle_message(worker, conn.recv())
            except (EOFError, OSError):
                break
        worker.proc.join(timeout=5)
        conn.close()
        del live[conn]
        free_slots.add(worker.slot)
        if disk is not None and worker.counters:
            disk.merge_counters(worker.counters)
        if worker.chunk is None:
            return  # died (or shut down) idle: nothing to blame
        # Worker died without finishing its chunk: the first unreported
        # point is the one that was executing — blame it, re-dispatch
        # the rest of the chunk blame-free.
        state.report.record(
            state.now(), "chunk_end", slot=worker.slot, chunk=worker.chunk.chunk_id
        )
        schedule(worker.deferred)
        unreported = [
            (index, point)
            for index, point in worker.chunk.pairs
            if index not in worker.reported
        ]
        if not unreported:
            return
        if state.deadline_expired():
            # The sweep deadline killed this worker: every unfinished
            # point of its chunk fails terminally as deadline-exceeded —
            # no blame game, no retries, no re-dispatch.
            for index, point in unreported:
                state.point_deadline(index, point)
            return
        kind = "timeout" if worker.killed else "worker-crash"
        suspect_index, suspect_point = unreported[0]
        retrying = state.point_failed(
            suspect_index,
            suspect_point,
            kind,
            f"worker pid {worker.proc.pid} "
            + (
                "killed after exceeding its wall-clock budget"
                if worker.killed
                else f"died with exit code {worker.proc.exitcode} mid-point"
            ),
        )
        state.report.record(
            state.now(),
            "timeout_kill" if worker.killed else "worker_crash",
            slot=worker.slot,
            chunk=worker.chunk.chunk_id,
            index=suspect_index,
            attempt=state.attempts[suspect_index],
            final=not retrying,
        )
        if retrying:
            delay = policy.delay(state.attempts[suspect_index])
            state.report.record(
                state.now(), "retry", index=suspect_index, delay=round(delay, 3)
            )
            schedule([(suspect_index, suspect_point)], delay)
        schedule(unreported[1:])

    try:
        while pending or any(w.chunk is not None for w in live.values()):
            now = state.now()
            if state.deadline_expired():
                # Deadline passed: fail everything still queued without
                # dispatching a single worker, and kill workers mid-
                # chunk — reap() classifies their unfinished points as
                # deadline-exceeded timeouts.
                for chunk in pending:
                    for index, point in chunk.pairs:
                        state.point_deadline(index, point)
                pending.clear()
                for worker in live.values():
                    if worker.chunk is not None and not worker.killed:
                        worker.killed = True
                        worker.proc.kill()
            # Dispatch every eligible chunk: reuse an idle warm worker,
            # spawn a fresh one only while the pool is below *jobs*.
            # Affinity rules keep each trace loaded by as few workers as
            # possible: an idle worker first takes a chunk whose trace
            # it already holds, then a group no pool member has touched
            # (so concurrent workers warm *different* traces instead of
            # racing to synthesize the same one), then anything left.
            while True:
                eligible = [c for c in pending if c.not_before <= now]
                if not eligible:
                    break
                worker = next(
                    (
                        w
                        for w in live.values()
                        if w.chunk is None
                        and not w.eof
                        and not w.killed
                        and not w.retiring
                    ),
                    None,
                )
                if worker is None:
                    if not free_slots:
                        break
                    worker = spawn()
                pool_groups = set()
                for w in live.values():
                    pool_groups |= w.groups
                chunk = next(
                    (
                        c
                        for candidates in (
                            [c for c in eligible if _chunk_group(c) in worker.groups],
                            [c for c in eligible if _chunk_group(c) not in pool_groups],
                            eligible,
                        )
                        for c in sorted(candidates, key=lambda c: c.chunk_id)
                    ),
                )
                pending.remove(chunk)
                if not assign(worker, chunk):
                    # Pipe already dead: the reap below respawns capacity
                    # and the chunk goes back in the queue untouched.
                    pending.append(chunk)
                    break
            if not live:
                if not pending:
                    # Deadline expiry just drained the whole queue with
                    # no worker ever spawned: re-check the loop guard.
                    continue
                # Everything is waiting out a backoff delay.
                wake = min(chunk.not_before for chunk in pending)
                time.sleep(min(max(wake - state.now(), 0.0), 0.5) + 0.001)
                continue
            # Message arrival (and pipe EOF on worker death) wakes the
            # wait immediately; the timeout only paces backoff wakeups
            # and hang detection, so relax it when neither is armed.
            busy = any(w.chunk is not None for w in live.values())
            armed = allowance is not None or state.deadline is not None
            poll = 0.05 if (pending or (armed and busy)) else 0.25
            ready = mp_connection.wait(list(live), timeout=poll)
            for conn in ready:
                worker = live[conn]
                while True:
                    try:
                        if not conn.poll():
                            break
                        msg = conn.recv()
                    except (EOFError, OSError):
                        worker.eof = True
                        break
                    worker.last_msg = state.now()
                    handle_message(worker, msg)
            now = state.now()
            for conn, worker in list(live.items()):
                if worker.eof or not worker.proc.is_alive():
                    reap(conn, worker)
                elif (
                    allowance is not None
                    and worker.chunk is not None
                    and not worker.killed
                    and now - worker.last_msg > allowance
                ):
                    worker.killed = True
                    worker.proc.kill()
        # All work done: shut the idle pool down and fold its counters.
        for worker in live.values():
            try:
                worker.conn.send(None)
            except Exception:
                pass
        deadline = time.monotonic() + 5
        while live:
            for conn, worker in list(live.items()):
                if worker.eof or not worker.proc.is_alive():
                    reap(conn, worker)
                elif time.monotonic() > deadline:
                    worker.proc.kill()
                    reap(conn, worker)
            if live:
                time.sleep(0.005)
    except KeyboardInterrupt:
        state.report.interrupted = True
        for worker in live.values():
            try:
                worker.proc.kill()
            except Exception:
                pass
        for worker in live.values():
            worker.proc.join(timeout=5)
        for conn in list(live):
            conn.close()
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
    dispatch: Optional[str] = None,
):
    """Execute every point; results are positionally ordered like *points*.

    ``jobs=1`` runs serially in-process. ``jobs=0`` auto-detects the
    CPU count (:func:`resolve_jobs`). ``jobs>1`` fans chunks across
    worker processes; because each point is an independent deterministic
    simulation and results are reassembled by index, the output is
    bit-identical to the serial run. *batch* caps the chunk size
    explicitly (points per worker dispatch); *recycle* > 0 retires each
    worker process after that many dispatched points and respawns on
    demand.

    Resilience (``docs/robustness.md``): failures are retried with
    exponential backoff up to ``policy.max_retries`` (crashed/hung
    workers included — the poison point is pinpointed and quarantined so
    its chunk-mates survive). With ``strict=True`` (default) the return
    value is a plain ``List[SimResult]`` and a :class:`SweepError` is
    raised if any point still fails after retries — completed work is
    preserved in the report, the disk cache and the journal. With
    ``strict=False`` the full :class:`SweepReport` is returned: partial
    results plus classified failures, never an exception. *journal*
    (with ``resume=True``) skips points whose completion was
    checkpointed by a previous run and whose cached result still loads.

    *on_outcome* is the async-submission hook used by the service
    daemon (``repro-sim serve``): it is called once per point with the
    **final** :class:`~repro.core.exec.resilience.PointOutcome` — after
    a success, after retries are exhausted, or on a resume skip — from
    the dispatching thread, as outcomes stream in. Exceptions it raises
    are swallowed; it must never block for long.

    *deadline* is an absolute :func:`time.monotonic` instant: once it
    passes, queued points fail fast (classified ``timeout`` with a
    ``deadline-exceeded`` message, **no worker dispatched**) and running
    workers are killed — their unfinished points classify the same way.
    It is the bottom of the service daemon's per-request deadline
    plumbing (``X-Deadline-Ms`` / job ``timeout_s``), layered on the
    per-point ``RetryPolicy.timeout`` machinery, not replacing it.

    *dispatch* selects a remote execution fabric instead of the local
    backends: ``"dist://host:port"`` drains the points through the
    work-stealing coordinator listening there (started in-process on
    demand; ``repro-sim worker`` processes connect and execute). All
    resilience semantics above — retries, taxonomy, journal/resume,
    deadline, ``on_outcome`` streaming — apply unchanged, and results
    stay bit-identical to local execution. *jobs* is ignored (worker
    processes size themselves; see :func:`resolve_jobs`).
    """
    points = list(points)
    if dispatch is not None:
        for point in points:
            if point.obs is not None:
                raise ValueError(
                    "observability capture is not supported with "
                    "dispatch=dist:// (artifacts would land on remote "
                    "workers); run observed points locally"
                )
        from repro.dist.coordinator import run_dist

        state = _SweepState(
            points, policy or DEFAULT_POLICY, journal, resume, on_outcome,
            deadline,
        )
        report = (
            run_dist(state, dispatch, batch) if state.pairs else state.finish()
        )
        if strict:
            if report.interrupted:
                raise KeyboardInterrupt
            if report.failures:
                raise SweepError(report)
            return report.results
        return report
    jobs = resolve_jobs(jobs)
    # A deadline must be able to preempt a *running* point, which only
    # the process pool can do (kill the worker); in-process serial
    # execution enforces it between points only. So with a deadline and
    # jobs > 1, even a single point goes through the pool.
    if jobs == 1 or (len(points) <= 1 and deadline is None):
        if (
            strict
            and policy is None
            and journal is None
            and not resume
            and on_outcome is None
            and deadline is None
        ):
            # Legacy fast path: zero resilience overhead.
            return [execute_point(point) for point in points]
        state = _SweepState(
            points, policy or DEFAULT_POLICY, journal, resume, on_outcome,
            deadline,
        )
        report = _run_serial_resilient(state) if state.pairs else state.finish()
    else:
        state = _SweepState(
            points, policy or DEFAULT_POLICY, journal, resume, on_outcome,
            deadline,
        )
        report = (
            _run_parallel_resilient(state, jobs, batch, recycle)
            if state.pairs
            else state.finish()
        )
    if strict:
        if report.interrupted:
            raise KeyboardInterrupt
        if report.failures:
            raise SweepError(report)
        return report.results
    return report
