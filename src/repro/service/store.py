"""Write-ahead job store: crash recovery for the service daemon.

Before this store, every accepted job lived only in daemon memory — a
SIGKILL, OOM or disk-full event silently dropped all admitted work,
exactly the failure class the sweep engine itself already survives via
its checkpoint journal (:class:`~repro.core.exec.resilience.SweepJournal`
+ ``repro-sim sweep --resume``). The store extends the same durability
promise to the service layer: **accepted work is never silently
dropped**.

The format deliberately mirrors the engine's checkpoint journal: one
append-only JSONL file per job under ``<root>/jobs/<job_id>.jsonl``,
one write and one fsync per job step (a job answered at admission
journals submit, points and done together), torn trailing lines
tolerated on read and terminated when recovery loads the journal. Three
record shapes, in lifecycle order::

    {"rec": "submit", "job": ..., "kind": "run"|"sweep", "client": ...,
     "spec": {...original request body...}, "created": ts,
     "sweep": sweep_key(point keys), "schema": 1}
    {"rec": "point", "job": ..., "index": i, ...outcome view...}
    {"rec": "done", "job": ..., "status": "done"|"failed",
     "finished": ts, "failed": n, "result": {...} | null}

``spec`` is the *original request body*: recovery re-parses it through
the same ``/v1/run`` / ``/v1/sweep`` spec parsers, so a recovered job
builds exactly the grid the client asked for, and ``sweep`` is the
engine's order-insensitive :func:`~repro.core.exec.cachekey.sweep_key`
identity over the job's point keys. A restarted daemon replays every
journal: jobs with a ``done`` record are served straight from the store
(result document included); unfinished jobs are re-admitted, and the
disk cache answers every point that completed before the crash at
admission — recovery re-simulates only the tail.

Storage faults degrade, never crash: the first failed append (disk
full, permission lost, root replaced by a file) flips the store into
**degraded** mode — all further appends become no-ops, the daemon keeps
serving from memory and the disk cache, and ``/v1/healthz/ready`` fails
so orchestrators stop routing new traffic to the wounded instance.

The chaos hook :func:`~repro.core.exec.faults.maybe_kill_daemon` runs
after every fsynced append, which is how the CI chaos rig SIGKILLs the
daemon *between* journal appends and then proves byte-identical
recovery.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.exec import sweep_key
from repro.core.exec.faults import maybe_kill_daemon

#: Version of the journal record format (bumped on incompatible change;
#: records with a different schema are skipped on load, not crashed on).
STORE_SCHEMA = 1


def submit_record(job) -> Dict[str, Any]:
    """The record of one accepted job (journaled before any point)."""
    return {
        "rec": "submit",
        "schema": STORE_SCHEMA,
        "job": job.id,
        "kind": job.kind,
        "client": job.client,
        "spec": job.spec,
        "created": job.created,
        "points": len(job.points),
        "sweep": sweep_key(job.keys),
    }


def point_record(job_id: str, index: int, view: dict) -> Dict[str, Any]:
    """The record of one point's final outcome view."""
    return {"rec": "point", "job": job_id, "index": index, **view}


def done_record(job) -> Dict[str, Any]:
    """The record of the terminal state (result document included)."""
    return {
        "rec": "done",
        "job": job.id,
        "status": job.status,
        "finished": job.finished,
        "failed": job.failed_points,
        "result": job.result,
    }


@dataclass
class StoredJob:
    """One job reconstructed from its journal file."""

    job_id: str
    kind: str = "run"
    client: str = "unknown"
    spec: Dict[str, Any] = field(default_factory=dict)
    created: float = 0.0
    sweep: str = ""
    status: str = "running"
    finished: Optional[float] = None
    failed: int = 0
    result: Optional[dict] = None
    #: index -> last recorded outcome view (pre-crash evidence; recovery
    #: re-executes unfinished jobs regardless, cheaply via the cache).
    outcomes: Dict[int, dict] = field(default_factory=dict)
    #: ``True`` once a valid ``submit`` record was seen — a journal with
    #: only torn/unknown lines is unrecoverable and gets evicted.
    valid: bool = False

    @property
    def terminal(self) -> bool:
        return self.status in ("done", "failed")


class JobStore:
    """Append-only fsync-journaled job records under one root directory.

    All writes happen on the event-loop thread; per-append open/fsync/
    close keeps the store stateless across appends (no fd leaks when
    jobs are evicted) and makes every record durable the moment
    :meth:`append` returns. A failed write flips :attr:`degraded` and is
    never retried — see the module docstring for the semantics.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.degraded = False
        #: Human-readable reason for the degraded flip (healthz surfaces it).
        self.degraded_reason = ""
        #: Durable appends so far (the daemon-kill chaos hook counts these).
        self.appends = 0

    def _path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.jsonl"

    # -- writes --------------------------------------------------------------

    def append(self, job_id: str, *records: Dict[str, Any]) -> bool:
        """Durably append *records* with one write and one fsync;
        ``False`` when degraded (no-op)."""
        if self.degraded:
            return False
        text = "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records
        )
        try:
            self.jobs_dir.mkdir(parents=True, exist_ok=True)
            with open(self._path(job_id), "a") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            self._degrade(f"journal append failed: {exc}")
            return False
        self.appends += 1
        maybe_kill_daemon(self.appends)
        return True

    def _degrade(self, reason: str) -> None:
        if not self.degraded:
            self.degraded = True
            self.degraded_reason = reason
            print(
                f"repro-sim serve: job store degraded ({reason}); "
                "continuing without durability",
                file=sys.stderr,
                flush=True,
            )

    # -- health --------------------------------------------------------------

    def probe(self) -> bool:
        """Actively check journal writability (readiness calls this).

        Writes and removes a probe file; a failure flips the store into
        degraded mode exactly like a failed real append would.
        """
        if self.degraded:
            return False
        try:
            self.jobs_dir.mkdir(parents=True, exist_ok=True)
            path = self.jobs_dir / ".probe"
            path.write_text(str(time.time()))
            path.unlink()
        except OSError as exc:
            self._degrade(f"journal probe failed: {exc}")
            return False
        return True

    # -- reads ---------------------------------------------------------------

    def load(self, job_id: str) -> Optional[StoredJob]:
        """Reconstruct one job from its journal (``None`` if absent/empty).

        A torn trailing line (the daemon died mid-write) is terminated
        here, so the next :meth:`append` starts a line of its own instead
        of being glued onto the fragment and lost on every later load.
        """
        path = self._path(job_id)
        try:
            text = path.read_text()
        except OSError:
            return None
        if text and not text.endswith("\n") and not self.degraded:
            try:
                with open(path, "a") as fh:
                    fh.write("\n")
                    fh.flush()
                    os.fsync(fh.fileno())
            except OSError as exc:
                self._degrade(f"journal repair failed: {exc}")
        stored = StoredJob(job_id=job_id)
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                self._fold(stored, record)
            except (ValueError, KeyError, TypeError):
                continue  # torn mid-write line (e.g. SIGKILL): skip
        return stored if stored.valid else None

    @staticmethod
    def _fold(stored: StoredJob, record: dict) -> None:
        rec = record.get("rec")
        if rec == "submit":
            if record.get("schema") != STORE_SCHEMA:
                return
            stored.kind = str(record["kind"])
            stored.client = str(record.get("client", "unknown"))
            spec = record.get("spec")
            stored.spec = spec if isinstance(spec, dict) else {}
            stored.created = float(record.get("created", 0.0))
            stored.sweep = str(record.get("sweep", ""))
            stored.valid = True
        elif rec == "point":
            stored.outcomes[int(record["index"])] = {
                k: v
                for k, v in record.items()
                if k not in ("rec", "job", "index")
            }
        elif rec == "done":
            stored.status = str(record["status"])
            finished = record.get("finished")
            stored.finished = float(finished) if finished else None
            stored.failed = int(record.get("failed", 0))
            result = record.get("result")
            stored.result = result if isinstance(result, dict) else None

    def load_all(self) -> List[StoredJob]:
        """Every recoverable job, oldest submission first."""
        try:
            paths = sorted(self.jobs_dir.glob("*.jsonl"))
        except OSError:
            return []
        stored = [self.load(path.stem) for path in paths]
        return sorted(
            (s for s in stored if s is not None), key=lambda s: s.created
        )

    # -- eviction ------------------------------------------------------------

    def evict(self, job_id: str) -> None:
        """Drop one job's journal (TTL GC, history trim, bad replay)."""
        try:
            self._path(job_id).unlink()
        except OSError:
            pass
