"""Sweep execution engine: parallel point runner + persistent caches.

Five layers (see ``docs/performance.md`` and ``docs/robustness.md``):

* :mod:`repro.core.exec.cachekey` — content-hash keys (schema-versioned);
* :mod:`repro.core.exec.diskcache` — persistent result/trace store under
  ``~/.cache/repro-btb`` (``REPRO_CACHE_DIR`` overrides), safe for
  concurrent sweeps (atomic writes + per-key lock sentinels);
* :mod:`repro.core.exec.resilience` — error taxonomy, retry policy,
  sweep reports and the checkpoint/resume journal;
* :mod:`repro.core.exec.faults` — deterministic fault injection
  (``REPRO_FAULT_SPEC``) for tests and the CI chaos-smoke job;
* :mod:`repro.core.exec.engine` — cached single-point execution and the
  deterministic, fault-tolerant ``run_points`` used by
  :func:`repro.core.runner.run_suite` / ``compare_to_baseline`` /
  ``sweep_compare`` (parallel sweeps run on :mod:`repro.dist`).
"""

from repro.core.exec.cachekey import (
    CACHE_SCHEMA,
    canonical_json,
    digest,
    result_key,
    sweep_key,
    trace_key,
)
from repro.core.exec.diskcache import (
    DEFAULT_CACHE_DIR,
    ENV_CACHE_DIR,
    ENV_CACHE_SHARDS,
    STALE_LOCK_SECONDS,
    TIERS,
    DiskCache,
    default_cache_dir,
)
from repro.core.exec.engine import (
    ENV_DISK_CACHE,
    ENV_JOBS,
    SweepPoint,
    clear_plan_memo,
    clear_trace_memo,
    configure_disk_cache,
    env_cache_root,
    execute_point,
    fetch_batch_plan,
    fetch_trace,
    get_disk_cache,
    plan_key,
    point_key,
    resolve_jobs,
    run_points,
    set_remote_plan_fetcher,
)
from repro.core.exec.faults import (
    ENV_FAULT_DELAY,
    ENV_FAULT_DIR,
    ENV_FAULT_HANG,
    ENV_FAULT_SPEC,
    FAULT_KINDS,
    NET_FAULT_KINDS,
    FaultPlan,
    FaultRule,
    FaultSpecError,
    InjectedCacheCorruption,
    InjectedFault,
    maybe_net_fault,
)
from repro.core.exec.resilience import (
    DEADLINE_MESSAGE,
    DEFAULT_POLICY,
    ERROR_KINDS,
    PointError,
    PointOutcome,
    RetryPolicy,
    SweepError,
    SweepJournal,
    SweepReport,
)

__all__ = [
    "CACHE_SCHEMA",
    "DEADLINE_MESSAGE",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_POLICY",
    "DiskCache",
    "ENV_CACHE_DIR",
    "ENV_CACHE_SHARDS",
    "ENV_DISK_CACHE",
    "ENV_FAULT_DELAY",
    "ENV_FAULT_DIR",
    "ENV_FAULT_HANG",
    "ENV_FAULT_SPEC",
    "ENV_JOBS",
    "ERROR_KINDS",
    "FAULT_KINDS",
    "NET_FAULT_KINDS",
    "STALE_LOCK_SECONDS",
    "TIERS",
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
    "InjectedCacheCorruption",
    "InjectedFault",
    "PointError",
    "PointOutcome",
    "RetryPolicy",
    "SweepError",
    "SweepJournal",
    "SweepPoint",
    "SweepReport",
    "canonical_json",
    "clear_plan_memo",
    "clear_trace_memo",
    "configure_disk_cache",
    "default_cache_dir",
    "digest",
    "env_cache_root",
    "execute_point",
    "fetch_batch_plan",
    "fetch_trace",
    "get_disk_cache",
    "maybe_net_fault",
    "plan_key",
    "point_key",
    "resolve_jobs",
    "result_key",
    "run_points",
    "set_remote_plan_fetcher",
    "sweep_key",
    "trace_key",
]
