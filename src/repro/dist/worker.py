"""Dist sessions and their supervisor.

A *session* is one process holding one coordinator connection. It
loops: request a lease, make sure the trace content the lease
references is present locally (fetching missing shards by content hash,
verify-on-receive), execute the points through the unchanged
kernel-or-interpreter dispatch, and stream one outcome frame per point.
Every frame carries the session's disk-cache counters, and an observed
point's ``ok`` frame its observation dump, so the coordinator's process
sees the same counters and artifacts a local run would leave.

:class:`Supervisor` forks N sessions and respawns any that die
abnormally or retire (``--recycle``), so an injected or real SIGKILL
costs one blamed point, not fleet capacity. It is one non-blocking
object with two users: ``repro-sim worker --connect tcp://host:port``
wraps it in a signal-aware loop (:func:`run_worker`, ``--jobs``
defaulting to this host's own CPU count), and ``run_points(jobs=N)``
polls it from whichever thread runs the sweep while a private
coordinator drains the points. A session exits on its own when its
parent process dies.

Network chaos (``REPRO_FAULT_SPEC`` kinds ``drop``/``delay``/
``disconnect``) hooks into the lease loop via
:func:`repro.core.exec.faults.maybe_net_fault`, sharing the on-disk
attempt counting with the process fault kinds.
"""
from __future__ import annotations

import hashlib
import multiprocessing
import os
import select
import signal
import socket
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Set, Tuple

from ..core.exec.diskcache import atomic_write
from ..core.exec.engine import (
    _attempt_once,
    _classify_exception,
    configure_disk_cache,
    get_disk_cache,
    point_key,
    resolve_jobs,
    set_remote_plan_fetcher,
)
from ..core.exec.faults import maybe_net_fault, net_fault_delay
from .protocol import (
    DIST_SCHEMA,
    ConnectionClosed,
    ProtocolError,
    parse_dist_url,
    point_from_wire,
    recv_frame,
    result_to_wire,
    send_frame,
)

#: Seconds between heartbeat frames (a quarter of the coordinator's
#: default heartbeat timeout).
HB_INTERVAL = 5.0

#: Attempts per shard before a fetch gives up (verify-on-receive: a
#: corrupt blob is discarded and re-requested, never written).
SHARD_FETCH_ATTEMPTS = 3

#: Exit code of a session the coordinator retired (``--recycle``); the
#: supervisor respawns it like a crashed one.
RETIRED = 3

#: Seconds between a session's checks that its parent is still alive.
PARENT_POLL = 0.5


class _InjectedDisconnect(Exception):
    """Internal: a ``disconnect`` net fault fired — drop the connection."""


class WorkerSession:
    """One coordinator connection plus its lease-execution loop."""

    def __init__(
        self,
        url: str,
        worker_id: str = "worker",
        lease_max: int = 0,
        retry_window: float = 30.0,
        hb_interval: float = HB_INTERVAL,
    ) -> None:
        self.host, self.port = parse_dist_url(url)
        self.worker_id = worker_id
        self.lease_max = lease_max
        #: Seconds of continuous connection failure before the session
        #: gives up and exits cleanly (code 0 — supervisors don't
        #: respawn a worker whose coordinator went away for good).
        self.retry_window = retry_window
        self.hb_interval = hb_interval
        self.sock: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        self._hb_stop: Optional[threading.Event] = None
        self._hb_thread: Optional[threading.Thread] = None
        self._revoked: Dict[int, Set[int]] = {}
        self._verified_corpus: Dict[str, str] = {}
        self.counters: Dict[str, int] = {
            "points_ok": 0,
            "points_err": 0,
            "leases_run": 0,
            "fetch_cache_hits": 0,
            "shard_fetches": 0,
            "shard_refetches": 0,
            "shard_bytes_rx": 0,
            "plan_fetches": 0,
            "plan_bytes_rx": 0,
            "manifest_fetches": 0,
            "reconnects": 0,
            "net_faults": 0,
        }

    # -- connection ----------------------------------------------------------

    def _connect(self) -> None:
        sock = socket.create_connection((self.host, self.port), timeout=10)
        sock.settimeout(None)
        # Outcome and lease frames are small: without NODELAY each lease
        # hand-off waits out the peer's delayed ACK (about 40 ms).
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            send_frame(
                sock,
                {
                    "t": "hello",
                    "schema": DIST_SCHEMA,
                    "worker": self.worker_id,
                    "caps": {
                        "cpus": os.cpu_count() or 1,
                        "platform": sys.platform,
                        "pid": os.getpid(),
                    },
                    **self._counters(),
                },
            )
            msg, _ = recv_frame(sock)
        except BaseException:
            sock.close()
            raise
        if msg.get("t") == "reject":
            sock.close()
            raise ProtocolError(f"coordinator rejected us: {msg.get('error')}")
        if msg.get("t") != "welcome":
            sock.close()
            raise ProtocolError(f"expected welcome, got {msg.get('t')!r}")
        self.sock = sock
        self._hb_stop = threading.Event()
        self._hb_thread = threading.Thread(
            target=self._heartbeat_loop, daemon=True
        )
        self._hb_thread.start()

    def _close(self) -> None:
        if self._hb_stop is not None:
            self._hb_stop.set()
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
        self.sock = None
        self._revoked.clear()

    def _heartbeat_loop(self) -> None:
        stop, sock = self._hb_stop, self.sock
        while not stop.wait(self.hb_interval):
            try:
                with self._send_lock:
                    send_frame(sock, {"t": "hb", **self._counters()})
            except OSError:
                return  # main loop will notice on its next socket op

    def _counters(self) -> Dict:
        """The counter fields every frame carries: this session's own
        counters and its disk cache's, which the coordinator folds into
        its process's cache."""
        disk = get_disk_cache()
        return {
            "counters": dict(self.counters),
            "cache": disk.snapshot() if disk is not None else {},
        }

    def _send(self, msg: Dict, blob: bytes = b"") -> None:
        with self._send_lock:
            send_frame(self.sock, msg, blob)

    def _recv(self) -> Tuple[Dict, bytes]:
        """Next non-revoke frame; revokes are folded into the skip set."""
        while True:
            msg, blob = recv_frame(self.sock)
            if msg.get("t") == "revoke":
                self._note_revoke(msg)
                continue
            return msg, blob

    def _note_revoke(self, msg: Dict) -> None:
        lease = msg.get("lease")
        self._revoked.setdefault(lease, set()).update(
            int(i) for i in msg.get("indices", ())
        )

    def _rpc(self, msg: Dict, *want: str) -> Tuple[Dict, bytes]:
        self._send(msg)
        reply, blob = self._recv()
        if reply.get("t") not in want:
            raise ProtocolError(
                f"expected {' or '.join(want)} reply to {msg.get('t')!r}, "
                f"got {reply.get('t')!r}"
            )
        return reply, blob

    def _drain_revokes(self) -> None:
        """Apply any revoke pushes sitting in the socket buffer (the
        coordinator sends them asynchronously when our lease is stolen
        from)."""
        while self.sock is not None:
            readable, _, _ = select.select([self.sock], [], [], 0)
            if not readable:
                return
            msg, _ = recv_frame(self.sock)
            if msg.get("t") == "revoke":
                self._note_revoke(msg)
            else:
                raise ProtocolError(
                    f"unexpected mid-lease frame {msg.get('t')!r}"
                )

    # -- main loop -----------------------------------------------------------

    def run(self) -> int:
        """Serve leases until retired (:data:`RETIRED`), rejected (1) or
        the coordinator stays unreachable for the retry window (0)."""
        set_remote_plan_fetcher(self._fetch_plan_blob)
        try:
            give_up_at = time.monotonic() + self.retry_window
            while True:
                try:
                    self._connect()
                except (OSError, ConnectionClosed, ProtocolError):
                    if time.monotonic() >= give_up_at:
                        return 0
                    time.sleep(0.5)
                    continue
                give_up_at = time.monotonic() + self.retry_window
                try:
                    self._serve()
                    return RETIRED
                except _InjectedDisconnect:
                    self.counters["reconnects"] += 1
                    self.counters["net_faults"] += 1
                    self._close()
                    continue
                except (ConnectionClosed, ConnectionError, OSError):
                    self.counters["reconnects"] += 1
                    self._close()
                    continue
                except ProtocolError:
                    self._close()
                    return 1
        finally:
            set_remote_plan_fetcher(None)
            self._close()

    def _serve(self) -> None:
        """Lease and execute until the coordinator retires us."""
        while True:
            grant, _ = self._rpc(
                {"t": "lease", "max": self.lease_max, **self._counters()},
                "grant", "retire",
            )
            if grant["t"] == "retire":
                return
            points = grant.get("points") or []
            if not points:
                retry_ms = int(grant.get("retry_ms") or 200)
                time.sleep(min(max(retry_ms, 10), 2000) / 1000.0)
                continue
            self._execute_lease(grant)

    def _execute_lease(self, grant: Dict) -> None:
        lease_id = grant["lease"]
        self.counters["leases_run"] += 1
        for entry, content_hash in (grant.get("corpus") or {}).items():
            self._ensure_corpus(entry, content_hash)
        for item in grant["points"]:
            index = int(item["index"])
            point = point_from_wire(item["point"])
            self._drain_revokes()
            if index in self._revoked.get(lease_id, ()):
                continue  # stolen: someone else runs it
            net_kind = maybe_net_fault(point)
            if net_kind == "disconnect":
                raise _InjectedDisconnect(f"injected disconnect before {index}")
            t0 = time.monotonic()
            try:
                result = _attempt_once(point)
            except Exception as exc:
                self.counters["points_err"] += 1
                import traceback as traceback_module

                self._send(
                    {
                        "t": "err",
                        "lease": lease_id,
                        "index": index,
                        "kind": _classify_exception(exc),
                        "message": f"{type(exc).__name__}: {exc}",
                        "traceback": traceback_module.format_exc(),
                        **self._counters(),
                    }
                )
                continue
            self.counters["points_ok"] += 1
            if net_kind == "drop":
                # Executed, never reported: the coordinator requeues it
                # blame-free at lease end (and our disk cache makes the
                # re-run instant wherever it lands).
                self.counters["net_faults"] += 1
                continue
            if net_kind == "delay":
                self.counters["net_faults"] += 1
                time.sleep(net_fault_delay())
            msg = {
                "t": "ok",
                "lease": lease_id,
                "index": index,
                "result": result_to_wire(result),
                "seconds": time.monotonic() - t0,
                **self._counters(),
            }
            disk = get_disk_cache()
            if point.obs is not None and disk is not None:
                # Observation capture lands in the session's cache; the
                # coordinator stores the dump in its own.
                msg["obs"] = disk.load_obs(point_key(point))
            self._send(msg)
        self._revoked.pop(lease_id, None)
        self._send({"t": "lease_done", "lease": lease_id, **self._counters()})

    # -- content fetch -------------------------------------------------------

    def _ensure_corpus(self, entry: str, content_hash: str) -> None:
        """Make corpus *entry* (at *content_hash*) locally executable.

        A warm worker whose local store already holds matching, intact
        shards counts a fetch cache hit and touches nothing. Otherwise
        the manifest and every missing or corrupt shard are fetched by
        content hash, each blob verified against its SHA-256 before it
        is written (atomically); the manifest lands last, so a crash
        mid-fetch can never leave a manifest pointing at absent shards.
        """
        from ..corpus.resolve import get_store
        from ..corpus.store import CorpusError, Manifest

        if self._verified_corpus.get(entry) == content_hash:
            self.counters["fetch_cache_hits"] += 1
            return
        store = get_store()
        manifest: Optional[Manifest] = None
        try:
            local = store.get(entry)
            if local.content_hash == content_hash:
                manifest = local
        except CorpusError:
            manifest = None
        if manifest is not None and self._shards_intact(store, manifest):
            self.counters["fetch_cache_hits"] += 1
            self._verified_corpus[entry] = content_hash
            return
        reply, _ = self._rpc(
            {"t": "fetch_manifest", "entry": entry}, "manifest"
        )
        self.counters["manifest_fetches"] += 1
        if not reply.get("found"):
            # Leave the point to fail with the store's own clear error.
            return
        manifest = Manifest.from_json(reply["manifest"])
        shard_dir = store.shard_dir_path(manifest)
        shard_dir.mkdir(parents=True, exist_ok=True)
        for shard in manifest.shards:
            path = shard_dir / shard.file
            if path.exists():
                try:
                    if (
                        hashlib.sha256(path.read_bytes()).hexdigest()
                        == shard.sha256
                    ):
                        continue
                except OSError:
                    pass
            blob = self._fetch_shard(shard.sha256)
            if blob is None:
                return  # the point will fail loudly; retries re-fetch
            atomic_write(path, lambda tmp, b=blob: Path(tmp).write_bytes(b))
        # Manifest written last: its presence implies complete shards.
        store.manifests_dir.mkdir(parents=True, exist_ok=True)
        import json

        text = json.dumps(manifest.to_json(), indent=2, sort_keys=True)
        atomic_write(
            store.manifest_path(entry),
            lambda tmp: Path(tmp).write_text(text),
        )
        self._verified_corpus[entry] = content_hash

    @staticmethod
    def _shards_intact(store, manifest) -> bool:
        shard_dir = store.shard_dir_path(manifest)
        for shard in manifest.shards:
            path = shard_dir / shard.file
            try:
                data = path.read_bytes()
            except OSError:
                return False
            if hashlib.sha256(data).hexdigest() != shard.sha256:
                return False
        return True

    def _fetch_shard(self, sha256: str) -> Optional[bytes]:
        """Fetch one shard by content hash, verify-on-receive.

        A truncated or corrupted blob is discarded and re-requested
        (bounded attempts) instead of crashing or — worse — being
        written to the local store.
        """
        for _attempt in range(SHARD_FETCH_ATTEMPTS):
            reply, blob = self._rpc(
                {"t": "fetch_shard", "sha256": sha256}, "blob"
            )
            if not reply.get("found"):
                return None
            self.counters["shard_fetches"] += 1
            if hashlib.sha256(blob).hexdigest() == sha256:
                self.counters["shard_bytes_rx"] += len(blob)
                return blob
            self.counters["shard_refetches"] += 1
        return None

    def _fetch_plan_blob(self, key: str) -> Optional[bytes]:
        """Engine hook: pull a batch plan from the coordinator's store.

        Returns the raw ``.npz`` bytes (transport-verified) or ``None``;
        the engine falls back to building the plan locally either way.
        """
        if self.sock is None:
            return None
        try:
            reply, blob = self._rpc({"t": "fetch_plan", "key": key}, "plan")
        except (ConnectionClosed, ConnectionError, OSError, ProtocolError):
            return None
        if not reply.get("found") or not blob:
            return None
        if hashlib.sha256(blob).hexdigest() != reply.get("sha256"):
            return None
        self.counters["plan_fetches"] += 1
        self.counters["plan_bytes_rx"] += len(blob)
        return blob


# -- supervisor ---------------------------------------------------------------


def _watch_parent(parent: int) -> None:
    """Exit the process once *parent* is gone.

    EOF alone cannot tell: a forked session inherits the coordinator's
    listener and its siblings' sockets, so its connection may never
    close when the parent dies.
    """
    while os.getppid() == parent:
        time.sleep(PARENT_POLL)
    os._exit(0)


def _session_main(
    url: str,
    worker_id: str,
    parent: int,
    lease_max: int = 0,
    cache_root: Optional[str] = None,
    cache_enabled: bool = True,
    cache_shard: Optional[bool] = None,
    corpus_root: Optional[str] = None,
    retry_window: float = 30.0,
) -> None:
    threading.Thread(target=_watch_parent, args=(parent,), daemon=True).start()
    # Under the fork start method a session inherits the CLI's
    # SIGTERM/SIGINT handler — a bare Event.set that means nothing in
    # this process and would make terminate() a no-op. Restore the
    # default disposition so the supervisor can actually stop sessions.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    # The cache is what makes re-runs of dropped/stolen points instant.
    configure_disk_cache(enabled=cache_enabled, root=cache_root, shard=cache_shard)
    if corpus_root:
        from ..corpus.resolve import configure_corpus

        configure_corpus(corpus_root)
    session = WorkerSession(
        url, worker_id, lease_max=lease_max, retry_window=retry_window
    )
    sys.exit(session.run())


class Supervisor:
    """*jobs* session processes against the coordinator at *url*.

    Non-blocking and usable from any thread: :meth:`start` forks the
    sessions, :meth:`poll` reaps exited ones and respawns those that
    died abnormally or retired (a session that exits 0 found its
    coordinator gone for good and stays down), :meth:`stop` terminates
    and reaps them all. :meth:`kill` lets a coordinator in this process
    SIGKILL a hung session, but only one this supervisor owns.
    *session* holds :func:`_session_main`'s keyword arguments.
    """

    def __init__(self, url: str, jobs: int, name: str, log=None, **session):
        self.url = url
        self.jobs = jobs
        self.name = name
        self._log = log
        self._session = session
        self._procs: Dict[int, multiprocessing.process.BaseProcess] = {}
        self._lock = threading.Lock()

    def _spawn(self, slot: int) -> None:
        # Always fork: under ``forkserver`` (the POSIX default from Python
        # 3.14) the fork server, not us, would be the session's parent.
        proc = multiprocessing.get_context("fork").Process(
            target=_session_main,
            args=(self.url, f"{self.name}/{slot}", os.getpid()),
            kwargs=self._session,
            daemon=True,
        )
        proc.start()
        self._procs[slot] = proc

    def start(self) -> "Supervisor":
        with self._lock:
            for slot in range(self.jobs):
                self._spawn(slot)
        return self

    def poll(self) -> bool:
        """Reap and respawn; ``True`` while any session is up."""
        with self._lock:
            for slot, proc in list(self._procs.items()):
                code = proc.exitcode
                if code is None:
                    continue
                proc.join()
                if code == 0:
                    del self._procs[slot]  # coordinator is gone
                    continue
                if self._log is not None and code != RETIRED:
                    self._log(
                        f"repro-dist worker {self.name}/{slot}: session "
                        f"died (exit {code}), respawning",
                        flush=True,
                    )
                self._spawn(slot)
            return bool(self._procs)

    def kill(self, pid) -> None:
        """SIGKILL session *pid* if it is one of ours and still running."""
        with self._lock:
            for proc in self._procs.values():
                if proc.pid == pid and proc.exitcode is None:
                    proc.kill()

    def stop(self, timeout: float = 5.0) -> None:
        """Terminate every session and reap it."""
        with self._lock:
            procs = list(self._procs.values())
            self._procs.clear()
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join(timeout)
            if proc.exitcode is None:
                proc.kill()
                proc.join()


def run_worker(
    connect: str,
    jobs: Optional[int] = None,
    lease_max: int = 0,
    worker_name: Optional[str] = None,
    cache_root: Optional[str] = None,
    cache_enabled: bool = True,
    corpus_root: Optional[str] = None,
    retry_window: float = 30.0,
    log=print,
) -> int:
    """``repro-sim worker``: supervise *jobs* sessions until SIGTERM/SIGINT.

    *jobs* resolution is worker-local by design: an explicit ``--jobs``
    wins, then the **worker host's** own ``REPRO_JOBS``, then this
    host's CPU count — a coordinator's job count never travels over the
    wire. Returns once stopped, or once every session exited cleanly
    (their connection-retry window expired: the coordinator is gone).
    """
    jobs = resolve_jobs(jobs, default_auto=True)
    name = worker_name or f"{socket.gethostname()}-{os.getpid()}"
    fleet = Supervisor(
        connect, jobs, name, log, lease_max=lease_max, cache_root=cache_root,
        cache_enabled=cache_enabled, corpus_root=corpus_root,
        retry_window=retry_window,
    )
    stopping = threading.Event()

    def handle_stop(_signum, _frame):
        stopping.set()

    old_term = signal.signal(signal.SIGTERM, handle_stop)
    old_int = signal.signal(signal.SIGINT, handle_stop)
    try:
        log(
            f"repro-dist worker {name}: {jobs} session(s) -> "
            f"tcp://{connect.split('://')[-1]}",
            flush=True,
        )
        fleet.start()
        while not stopping.is_set() and fleet.poll():
            time.sleep(0.1)
        return 0
    finally:
        fleet.stop()
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)
