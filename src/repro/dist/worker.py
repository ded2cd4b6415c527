"""Dist worker: lease points, fetch missing content, stream outcomes.

``repro-sim worker --connect tcp://host:port`` runs a small supervisor
that spawns N session processes (``--jobs``, defaulting to this host's
own CPU count — never the coordinator's) and respawns any that die
abnormally, so an injected or real SIGKILL costs one blamed point, not
fleet capacity. Each session process opens its own coordinator
connection and loops: request a lease, make sure the trace content the
lease references is present locally (fetching missing shards by content
hash, verify-on-receive), execute the points through the unchanged
kernel-or-interpreter dispatch, and stream one outcome frame per point.

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
                    send_frame(sock, {"t": "hb", "counters": dict(self.counters)})
            except OSError:
                return  # main loop will notice on its next socket op

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

    def _rpc(self, msg: Dict, want: str) -> Tuple[Dict, bytes]:
        self._send(msg)
        reply, blob = self._recv()
        if reply.get("t") != want:
            raise ProtocolError(
                f"expected {want!r} reply to {msg.get('t')!r}, "
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
        while True:
            grant, _ = self._rpc(
                {"t": "lease", "max": self.lease_max,
                 "counters": dict(self.counters)},
                "grant",
            )
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
                        "counters": dict(self.counters),
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
            self._send(
                {
                    "t": "ok",
                    "lease": lease_id,
                    "index": index,
                    "result": result_to_wire(result),
                    "seconds": time.monotonic() - t0,
                    "counters": dict(self.counters),
                }
            )
        self._revoked.pop(lease_id, None)
        self._send(
            {"t": "lease_done", "lease": lease_id,
             "counters": dict(self.counters)}
        )

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


def _session_main(
    url: str,
    worker_id: str,
    lease_max: int,
    cache_root: Optional[str],
    cache_enabled: bool,
    corpus_root: Optional[str],
    retry_window: float,
) -> None:
    # Under the fork start method a session inherits the supervisor's
    # SIGTERM/SIGINT handler — a bare Event.set that means nothing in
    # this process and would make terminate() a no-op. Restore the
    # default disposition so the supervisor can actually stop sessions.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    if cache_enabled:
        # Same default as `repro-sim sweep`: the standard cache root
        # unless --cache-dir / REPRO_DISK_CACHE names another one. The
        # cache is what makes re-runs of dropped/stolen points instant.
        configure_disk_cache(enabled=True, root=cache_root)
    else:
        configure_disk_cache(enabled=False)
    if corpus_root:
        from ..corpus.resolve import configure_corpus

        configure_corpus(corpus_root)
    session = WorkerSession(
        url, worker_id, lease_max=lease_max, retry_window=retry_window
    )
    sys.exit(session.run())


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
    """``repro-sim worker``: supervise *jobs* session processes.

    *jobs* resolution is worker-local by design (the satellite fix):
    an explicit ``--jobs`` wins, then the **worker host's** own
    ``REPRO_JOBS``, then this host's CPU count — a coordinator's job
    count never travels over the wire. Sessions that die abnormally
    (e.g. an injected SIGKILL) are respawned after a short pause;
    sessions that exit cleanly (their connection-retry window expired,
    meaning the coordinator is gone) are not.
    """
    from ..core.exec.engine import resolve_jobs

    jobs = resolve_jobs(jobs, default_auto=True)
    name = worker_name or f"{socket.gethostname()}-{os.getpid()}"
    ctx = multiprocessing.get_context()
    procs: Dict[int, object] = {}
    respawns = 0

    def spawn(slot: int) -> None:
        proc = ctx.Process(
            target=_session_main,
            args=(
                connect,
                f"{name}/{slot}",
                lease_max,
                cache_root,
                cache_enabled,
                corpus_root,
                retry_window,
            ),
        )
        proc.start()
        procs[slot] = proc

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
        for slot in range(jobs):
            spawn(slot)
        while procs:
            if stopping.is_set():
                for proc in procs.values():
                    proc.terminate()
                for proc in procs.values():
                    proc.join(timeout=5)
                return 0
            for slot, proc in list(procs.items()):
                if proc.is_alive():
                    continue
                if proc.exitcode == 0:
                    del procs[slot]  # clean exit: coordinator is gone
                    continue
                respawns += 1
                log(
                    f"repro-dist worker {name}/{slot}: session died "
                    f"(exit {proc.exitcode}), respawning",
                    flush=True,
                )
                time.sleep(0.2)
                spawn(slot)
            time.sleep(0.1)
        return 0
    finally:
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)
