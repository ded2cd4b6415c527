"""Persistent on-disk cache for simulation results and synthesized traces.

Layout (everything under one root, default ``~/.cache/repro-btb``,
overridable via ``REPRO_CACHE_DIR``)::

    <root>/v<SCHEMA>/results/<sha256>.json   SimResult payloads
    <root>/v<SCHEMA>/traces/<sha256>.npz     Trace columns (compressed)
    <root>/v<SCHEMA>/plans/<sha256>.npz      batch plans (columnar trace
                                             derivations + per-geometry
                                             predictor outcomes consumed
                                             by the kernel; a
                                             ``__meta__`` JSON member
                                             records provenance for
                                             ``corpus gc``)
    <root>/v<SCHEMA>/obs/<sha256>.json       observability artifacts
                                             (repro.obs observation dumps,
                                             stored alongside the result
                                             under the same key)

With sharding enabled (``shard=True``, or ``REPRO_CACHE_SHARDS=1`` —
the service daemon's default) each tier fans its entries out into 256
two-hex-digit subdirectories (``results/ab/<sha256>.json``), so a store
holding millions of entries never concentrates them in one directory.
Keys are unchanged either way, and reads transparently find entries
written under the other layout, so flat and sharded stores interoperate
on the same root.

Size discipline for long-lived stores: :meth:`DiskCache.tier_stats`
reports per-tier entry counts and byte sizes (sweeping abandoned
``.lock`` sentinels on the way through), and :meth:`DiskCache.prune`
evicts least-recently-used entries until the store fits a byte budget —
successful loads touch the entry's mtime, so recency tracks use, not
creation. The service daemon applies the budget continuously
(``repro-sim serve --cache-max-mb``); ``repro-sim cache stats`` /
``cache prune`` expose the same machinery on the command line.

Writes are atomic (temp file + ``os.replace``), so a crashed or killed
run never leaves a half-written entry behind. Concurrent sweeps sharing
one cache are additionally serialized per key with a ``.lock`` sentinel
(created ``O_CREAT|O_EXCL``): a second process finding a fresh lock for
the same key simply skips its write — entries are content-addressed, so
the concurrent writer is producing identical bytes. A stale lock (left
by a killed writer, older than :data:`STALE_LOCK_SECONDS`) is broken
and reclaimed. Reads are corruption tolerant: any unreadable entry is
deleted and treated as a miss — the engine recomputes instead of
crashing.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.core.exec.cachekey import CACHE_SCHEMA
from repro.core.simulator import SimResult
from repro.trace.trace import Trace, save_npz

#: Environment variable overriding the cache root directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Default cache root (expanded at construction time).
DEFAULT_CACHE_DIR = "~/.cache/repro-btb"

#: Age (seconds) past which a ``.lock`` sentinel is presumed abandoned
#: by a killed writer and may be broken by the next one.
STALE_LOCK_SECONDS = 60.0

#: Set to ``1``/``true`` to shard cache tiers into 256 two-hex-digit
#: subdirectories (for stores expected to hold millions of entries).
ENV_CACHE_SHARDS = "REPRO_CACHE_SHARDS"

#: The cache tiers, in the order maintenance commands report them.
TIERS = ("results", "traces", "plans", "obs")


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-btb``."""
    return Path(os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR).expanduser()


# -- shared write discipline -------------------------------------------------
#
# The ``.lock``-sentinel + temp-file + ``os.replace`` protocol below is
# used by every on-disk store in the repo (this cache, and the trace
# corpus of :mod:`repro.corpus`): writes are atomic, concurrent writers
# of the same content-addressed entry are serialized per key, and a lock
# abandoned by a killed writer is broken after :data:`STALE_LOCK_SECONDS`.


def lock_path(path: Path) -> Path:
    """The per-key write-lock sentinel guarding *path*."""
    return path.with_name(path.name + ".lock")


def drop_file(path: Path) -> None:
    """Best-effort unlink (missing files and races are fine)."""
    try:
        path.unlink()
    except OSError:
        pass


def acquire_lock(path: Path, stale_after: float = STALE_LOCK_SECONDS) -> bool:
    """Take the write lock for *path*; ``False`` when another writer holds
    a fresh one (for content-addressed entries its write is identical)."""
    lock = lock_path(path)
    for _ in range(2):
        try:
            fd = os.open(str(lock), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                age = max(0.0, time.time() - lock.stat().st_mtime)
            except OSError:
                continue  # lock vanished between open and stat: retry
            if age < stale_after:
                return False
            drop_file(lock)  # abandoned by a killed writer: break it
            continue
        os.write(fd, str(os.getpid()).encode("ascii"))
        os.close(fd)
        return True
    return False


def release_lock(path: Path) -> None:
    """Release the write lock for *path* (idempotent)."""
    drop_file(lock_path(path))


def atomic_write(path: Path, writer) -> bool:
    """Write via *writer(tmp_path)* then atomically rename into place.

    Guarded by the per-key lock sentinel: returns ``False`` (without
    writing) when a concurrent writer already holds the key.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    if not acquire_lock(path):
        return False
    try:
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=path.suffix
        )
        os.close(fd)
        try:
            writer(tmp)
            os.replace(tmp, path)
        except BaseException:
            drop_file(Path(tmp))
            raise
    finally:
        release_lock(path)
    return True


class DiskCache:
    """Content-addressed result/trace store with hit/miss counters."""

    def __init__(self, root=None, shard: Optional[bool] = None) -> None:
        self.root = Path(root).expanduser() if root else default_cache_dir()
        self.version_dir = self.root / f"v{CACHE_SCHEMA}"
        self.results_dir = self.version_dir / "results"
        #: ``results_dir`` as a string, for the hit path's plain opens.
        self._results = str(self.results_dir)
        self.traces_dir = self.version_dir / "traces"
        self.plans_dir = self.version_dir / "plans"
        self.obs_dir = self.version_dir / "obs"
        if shard is None:
            env = os.environ.get(ENV_CACHE_SHARDS, "").strip().lower()
            shard = env not in ("", "0", "false", "no")
        self.shard = bool(shard)
        self.counters: Dict[str, int] = {
            "result_hits": 0,
            "result_misses": 0,
            "trace_hits": 0,
            "trace_misses": 0,
            "plan_hits": 0,
            "plan_misses": 0,
            "lock_skips": 0,
        }
        #: Guards every counter update: in the service daemon a
        #: coordinator thread folds its sessions' counts in while the
        #: executor thread counts the hits it answers.
        self._counts_lock = threading.Lock()

    def _count(self, key: str, by: int = 1) -> None:
        with self._counts_lock:
            self.counters[key] = self.counters.get(key, 0) + by

    # -- paths / plumbing ---------------------------------------------------

    def _entry_path(self, tier_dir: Path, key: str, suffix: str) -> Path:
        """Path of *key* in *tier_dir*, honouring the shard layout.

        The preferred layout (sharded when ``self.shard``, flat
        otherwise) wins, but an entry that already exists under the
        *other* layout is found and reused, so flat and sharded caches
        interoperate on one root.
        """
        name = f"{key}{suffix}"
        flat, sharded = tier_dir / name, tier_dir / key[:2] / name
        preferred, other = (sharded, flat) if self.shard else (flat, sharded)
        if not preferred.exists() and other.exists():
            return other
        return preferred

    def result_path(self, key: str) -> Path:
        return self._entry_path(self.results_dir, key, ".json")

    def trace_path(self, key: str) -> Path:
        return self._entry_path(self.traces_dir, key, ".npz")

    def plan_path(self, key: str) -> Path:
        return self._entry_path(self.plans_dir, key, ".npz")

    def obs_path(self, key: str) -> Path:
        return self._entry_path(self.obs_dir, key, ".json")

    def tier_dir(self, tier: str) -> Path:
        """Directory of one named tier (a member of :data:`TIERS`)."""
        if tier not in TIERS:
            raise ValueError(f"unknown cache tier {tier!r}; expected one of {TIERS}")
        return {
            "results": self.results_dir,
            "traces": self.traces_dir,
            "plans": self.plans_dir,
            "obs": self.obs_dir,
        }[tier]

    @staticmethod
    def _touch(path) -> None:
        """Refresh an entry's mtime on a hit so eviction is LRU, not FIFO."""
        try:
            os.utime(path)
        except OSError:
            pass

    @staticmethod
    def lock_path(path: Path) -> Path:
        """The per-key write-lock sentinel guarding *path*."""
        return lock_path(path)

    def _atomic_write(self, path: Path, writer) -> bool:
        """Write via *writer(tmp_path)* then atomically rename into place.

        Guarded by the per-key lock sentinel: returns ``False`` (without
        writing) when a concurrent sweep is already writing this key.
        """
        wrote = atomic_write(path, writer)
        if not wrote:
            self._count("lock_skips")
        return wrote

    @staticmethod
    def _drop(path: Path) -> None:
        drop_file(path)

    def merge_counters(self, other: Dict[str, int]) -> None:
        """Fold hit/miss counters from a worker process into ours."""
        for key, value in other.items():
            self._count(key, int(value))

    # -- results ------------------------------------------------------------

    def load_result(self, key: str, count_miss: bool = True) -> Optional[SimResult]:
        """Fetch a cached :class:`SimResult`, or ``None`` on miss.

        Reads the preferred layout and falls back to the other one only
        when the entry is not there, so a hit costs one open and no
        probe; paths are plain strings, built without ``pathlib``.
        Corrupted or truncated entries (or anything but a file at the
        path) are removed and count as misses (unless *count_miss* is
        false: a probe whose miss the execution that follows counts).
        """
        flat = f"{self._results}/{key}.json"
        sharded = f"{self._results}/{key[:2]}/{key}.json"
        for path in (sharded, flat) if self.shard else (flat, sharded):
            try:
                with open(path, "rb") as entry:
                    payload = json.loads(entry.read())
                result = SimResult(
                    name=str(payload["name"]),
                    instructions=int(payload["instructions"]),
                    cycles=int(payload["cycles"]),
                    stats={str(k): float(v) for k, v in payload["stats"].items()},
                    structure={
                        str(k): float(v) for k, v in payload["structure"].items()
                    },
                )
            except FileNotFoundError:
                continue
            except Exception:
                self._drop(Path(path))
                break
            self._count("result_hits")
            self._touch(path)
            return result
        if count_miss:
            self._count("result_misses")
        return None

    def store_result(self, key: str, result: SimResult) -> None:
        payload = {
            "name": result.name,
            "instructions": result.instructions,
            "cycles": result.cycles,
            "stats": result.stats,
            "structure": result.structure,
        }
        text = json.dumps(payload, sort_keys=True)
        self._atomic_write(
            self.result_path(key), lambda tmp: Path(tmp).write_text(text)
        )

    # -- traces -------------------------------------------------------------

    def load_trace(self, key: str) -> Optional[Trace]:
        """Fetch a cached :class:`Trace`, or ``None`` on miss/corruption."""
        path = self.trace_path(key)
        if not path.exists():
            self._count("trace_misses")
            return None
        try:
            trace = Trace.load(str(path))
        except Exception:
            self._drop(path)
            self._count("trace_misses")
            return None
        self._count("trace_hits")
        self._touch(path)
        return trace

    def store_trace(self, key: str, trace: Trace) -> None:
        self._atomic_write(self.trace_path(key), lambda tmp: trace.save(tmp))

    # -- batch plans --------------------------------------------------------

    def load_plan(self, key: str):
        """Fetch a cached batch plan: ``(arrays, meta)`` or ``None``.

        ``arrays`` maps payload column names to numpy arrays; ``meta`` is
        the provenance dict stored with the entry. Corrupted entries are
        removed and count as misses.
        """
        import numpy as np

        path = self.plan_path(key)
        if not path.exists():
            self._count("plan_misses")
            return None
        try:
            with np.load(str(path)) as npz:
                meta = json.loads(str(npz["__meta__"]))
                arrays = {
                    name: npz[name]
                    for name in npz.files
                    if name != "__meta__"
                }
        except Exception:
            self._drop(path)
            self._count("plan_misses")
            return None
        self._count("plan_hits")
        self._touch(path)
        return arrays, meta

    def store_plan(self, key: str, arrays: Dict, meta: Dict) -> None:
        """Store a batch-plan payload (compressed npz, :func:`save_npz`)
        with provenance."""
        import numpy as np

        meta_array = np.array(json.dumps(meta, sort_keys=True))
        self._atomic_write(
            self.plan_path(key),
            lambda tmp: save_npz(tmp, **arrays, __meta__=meta_array),
        )

    def adopt_plan(self, key: str, blob: bytes) -> bool:
        """Adopt raw plan-entry bytes fetched from a remote store.

        The bytes are written atomically and then validated through the
        normal load path; an unreadable blob is dropped (leaving the
        entry absent, exactly like a corrupt on-disk entry) and ``False``
        is returned so the caller falls back to building locally.
        """
        path = self.plan_path(key)
        wrote = self._atomic_write(
            path, lambda tmp: Path(tmp).write_bytes(blob)
        )
        if not wrote:
            return False
        probe = self.load_plan(key)
        if probe is None:
            return False  # load_plan already dropped the bad entry
        # The probe load bumped plan_hits; the adopted entry has not
        # served a real hit yet, so take it back.
        self._count("plan_hits", -1)
        self._count("plan_adopted")
        return True

    def iter_plans(self):
        """Yield ``(path, meta)`` for every stored plan (for ``corpus gc``).

        Unreadable entries are dropped on the way through, matching the
        corruption tolerance of the load path.
        """
        import numpy as np

        if not self.plans_dir.is_dir():
            return
        for path in sorted(self.plans_dir.rglob("*.npz")):
            try:
                with np.load(str(path)) as npz:
                    meta = json.loads(str(npz["__meta__"]))
            except Exception:
                self._drop(path)
                continue
            yield path, meta

    # -- observability artifacts --------------------------------------------

    def load_obs(self, key: str) -> Optional[dict]:
        """Fetch a stored observation dump, or ``None`` on miss/corruption."""
        path = self.obs_path(key)
        try:
            return json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except Exception:
            self._drop(path)
            return None

    def store_obs(self, key: str, payload: dict) -> None:
        """Store an observation dump (JSON) under the result's key."""
        text = json.dumps(payload, sort_keys=True)
        self._atomic_write(
            self.obs_path(key), lambda tmp: Path(tmp).write_text(text)
        )

    # -- maintenance --------------------------------------------------------

    def _iter_entries(self, tier: str):
        """Yield ``(path, stat)`` for every entry of *tier*, sweeping
        abandoned write state on the way through.

        ``.lock`` sentinels older than :data:`STALE_LOCK_SECONDS` and
        orphaned ``.tmp-*`` spill files are removed here — the write
        path only breaks a stale lock when the *same key* is written
        again, so without this sweep a killed writer's sentinel for a
        never-rewritten key would linger forever. Fresh locks (a writer
        may be live) are left alone, as are the temp files next to them.
        """
        tier_root = self.tier_dir(tier)
        if not tier_root.is_dir():
            return
        now = time.time()
        for path in sorted(tier_root.rglob("*")):
            if not path.is_file():
                continue
            try:
                stat = path.stat()
            except OSError:
                continue  # raced with a concurrent eviction/writer
            age = max(0.0, now - stat.st_mtime)
            if path.name.endswith(".lock") or path.name.startswith(".tmp-"):
                if age > STALE_LOCK_SECONDS:
                    self._drop(path)
                    self._count("locks_swept")
                continue
            yield path, stat

    def tier_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tier entry counts and byte sizes (``repro-sim cache stats``).

        Returns ``{tier: {"entries": n, "bytes": b}}`` for every member
        of :data:`TIERS` plus a ``"total"`` rollup. Stale ``.lock``
        sentinels and orphaned temp files encountered during the walk
        are swept (see :meth:`_iter_entries`); the count removed is
        reported under ``counters["locks_swept"]``.
        """
        stats: Dict[str, Dict[str, int]] = {}
        total_entries = total_bytes = 0
        for tier in TIERS:
            entries = size = 0
            for _path, stat in self._iter_entries(tier):
                entries += 1
                size += stat.st_size
            stats[tier] = {"entries": entries, "bytes": size}
            total_entries += entries
            total_bytes += size
        stats["total"] = {"entries": total_entries, "bytes": total_bytes}
        return stats

    def prune(
        self, max_bytes: int, tiers: Optional[Sequence[str]] = None
    ) -> Dict[str, int]:
        """Evict least-recently-used entries until the store fits *max_bytes*.

        Recency is the entry's mtime, which loads refresh on every hit
        (:meth:`_touch`), so a hot entry survives a prune that removes a
        colder but newer one. Only the named *tiers* (default: all) are
        measured and evicted. Entries guarded by a fresh ``.lock`` are
        skipped — a live writer owns them. Returns eviction counters:
        ``{"evicted": n, "evicted_bytes": b, "kept": n, "kept_bytes": b}``.
        """
        chosen = list(tiers) if tiers is not None else list(TIERS)
        entries = []
        for tier in chosen:
            entries.extend(self._iter_entries(tier))
        total = sum(stat.st_size for _p, stat in entries)
        evicted = evicted_bytes = 0
        if total > max_bytes:
            entries.sort(key=lambda item: (item[1].st_mtime, str(item[0])))
            for path, stat in entries:
                if total - evicted_bytes <= max_bytes:
                    break
                lock = lock_path(path)
                if lock.exists():
                    try:
                        if time.time() - lock.stat().st_mtime < STALE_LOCK_SECONDS:
                            continue  # live writer: not ours to evict
                    except OSError:
                        pass
                self._drop(path)
                evicted += 1
                evicted_bytes += stat.st_size
        self._count("evicted", evicted)
        self._count("evicted_bytes", evicted_bytes)
        return {
            "evicted": evicted,
            "evicted_bytes": evicted_bytes,
            "kept": len(entries) - evicted,
            "kept_bytes": total - evicted_bytes,
        }

    def clear(self) -> None:
        """Remove every cached entry, including stale schema versions."""
        shutil.rmtree(self.root, ignore_errors=True)

    def snapshot(self) -> Dict[str, int]:
        """Copy of the hit/miss counters (for timing harnesses)."""
        with self._counts_lock:
            return dict(self.counters)
