"""Worker-side unit tests: job-count resolution and shard fetching.

The shard-fetch tests exercise :meth:`WorkerSession._ensure_corpus`
against a faked coordinator RPC, so the verify-on-receive contract is
testable without sockets: blobs come from a *source* store while the
active (worker-local) store starts empty.
"""

from __future__ import annotations

import hashlib
import os
import socket

import pytest

from repro.core.exec.engine import resolve_jobs
from repro.corpus import CorpusStore, configure_corpus
from repro.corpus.store import CorpusError
from repro.dist.worker import WorkerSession
from repro.trace.external import save_trace_csv
from repro.trace.workloads import get_trace

# -- connection ---------------------------------------------------------------


def test_session_socket_sets_tcp_nodelay(coordinator):
    """Small lease/outcome frames must not wait on delayed ACKs."""
    session = WorkerSession(f"127.0.0.1:{coordinator.port}", "nodelay-probe")
    session._connect()
    try:
        assert session.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    finally:
        session._close()


# -- resolve_jobs precedence (the REPRO_JOBS satellite fix) -------------------


def test_resolve_jobs_default_is_serial(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1


def test_resolve_jobs_default_auto_uses_own_cpu_count(monkeypatch):
    """A dist worker with no --jobs and no env sizes itself to its own
    host's CPU count — never the coordinator's."""
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    probe = getattr(os, "process_cpu_count", None) or os.cpu_count
    assert resolve_jobs(None, default_auto=True) == max(1, probe() or 1)


def test_resolve_jobs_env_beats_default_auto(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs(None, default_auto=True) == 3
    assert resolve_jobs(None) == 3


def test_resolve_jobs_explicit_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs(2, default_auto=True) == 2
    assert resolve_jobs(2) == 2


def test_resolve_jobs_explicit_zero_autodetects(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    probe = getattr(os, "process_cpu_count", None) or os.cpu_count
    assert resolve_jobs(0) == max(1, probe() or 1)


def test_resolve_jobs_garbage_env_falls_back(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "many")
    assert resolve_jobs(None) == 1


# -- shard fetch: verify-on-receive -------------------------------------------


@pytest.fixture
def source_store(tmp_path):
    """A populated store standing in for the coordinator's corpus."""
    store = CorpusStore(tmp_path / "source")
    trace = get_trace("web_frontend", 9000)
    path = tmp_path / "web_frontend.csv"
    save_trace_csv(trace, str(path))
    store.ingest(str(path), shard_insts=2000)
    return store


@pytest.fixture
def worker_store(tmp_path, monkeypatch):
    """The empty worker-local store that ``corpus:`` names resolve to."""
    root = tmp_path / "worker"
    monkeypatch.setenv("REPRO_CORPUS_DIR", str(root))
    return configure_corpus(root)


class FakeCoordinator:
    """Serves manifest/shard RPCs from a source store, with optional
    per-shard corruption on the first response."""

    def __init__(self, store: CorpusStore, corrupt_first=False, missing=()):
        self.store = store
        self.corrupt_first = corrupt_first
        self.missing = set(missing)
        self.shard_requests = 0
        self._served_once = set()
        self._index = {}
        for name in store.names():
            manifest = store.get(name)
            shard_dir = store.shard_dir_path(manifest)
            for shard in manifest.shards:
                self._index[shard.sha256] = shard_dir / shard.file

    def rpc(self, msg, want):
        t = msg["t"]
        if t == "fetch_manifest":
            try:
                manifest = self.store.get(msg["entry"])
            except CorpusError as exc:
                return {"t": "manifest", "found": False, "error": str(exc)}, b""
            return (
                {"t": "manifest", "found": True, "manifest": manifest.to_json()},
                b"",
            )
        if t == "fetch_shard":
            self.shard_requests += 1
            sha = msg["sha256"]
            if sha in self.missing or sha not in self._index:
                return {"t": "blob", "sha256": sha, "found": False}, b""
            blob = self._index[sha].read_bytes()
            if self.corrupt_first and sha not in self._served_once:
                self._served_once.add(sha)
                blob = blob[: len(blob) // 2] + b"\x00garbage"
            return {"t": "blob", "sha256": sha, "found": True}, blob
        raise AssertionError(f"unexpected rpc {t!r}")


def _session(fake):
    session = WorkerSession("127.0.0.1:1", "test-worker")
    session._rpc = fake.rpc
    return session


def test_cold_fetch_round_trip_by_content_hash(source_store, worker_store):
    fake = FakeCoordinator(source_store)
    session = _session(fake)
    content_hash = source_store.get("web_frontend").content_hash

    session._ensure_corpus("web_frontend", content_hash)

    got = worker_store.get("web_frontend")
    assert got.content_hash == content_hash
    assert worker_store.verify(["web_frontend"]) == []
    assert session.counters["shard_fetches"] == len(got.shards)
    assert session.counters["shard_bytes_rx"] > 0
    assert session.counters["shard_refetches"] == 0


def test_corrupted_shard_triggers_refetch_not_a_crash(
    source_store, worker_store
):
    fake = FakeCoordinator(source_store, corrupt_first=True)
    session = _session(fake)
    content_hash = source_store.get("web_frontend").content_hash

    session._ensure_corpus("web_frontend", content_hash)

    # Every shard was served corrupt once, verified, discarded, and
    # re-fetched — nothing corrupt ever reached the local store.
    assert worker_store.verify(["web_frontend"]) == []
    n = len(worker_store.get("web_frontend").shards)
    assert session.counters["shard_refetches"] == n
    assert session.counters["shard_fetches"] == 2 * n  # corrupt + good


def test_unfetchable_shard_leaves_no_manifest(source_store, worker_store):
    """A shard the coordinator cannot serve aborts the fetch *before*
    the manifest is written: no manifest may ever point at absent
    shards (the point then fails with the store's own clear error)."""
    manifest = source_store.get("web_frontend")
    fake = FakeCoordinator(
        source_store, missing={manifest.shards[-1].sha256}
    )
    session = _session(fake)

    session._ensure_corpus("web_frontend", manifest.content_hash)

    with pytest.raises(CorpusError):
        worker_store.get("web_frontend")


def test_warm_worker_counts_cache_hits_without_rpc(source_store, worker_store):
    fake = FakeCoordinator(source_store)
    session = _session(fake)
    content_hash = source_store.get("web_frontend").content_hash
    session._ensure_corpus("web_frontend", content_hash)
    served = fake.shard_requests

    # Same session: in-memory memo.
    session._ensure_corpus("web_frontend", content_hash)
    assert session.counters["fetch_cache_hits"] == 1
    assert fake.shard_requests == served

    # Fresh session (e.g. a respawned process): on-disk shards verify.
    session2 = _session(fake)
    session2._ensure_corpus("web_frontend", content_hash)
    assert session2.counters["fetch_cache_hits"] == 1
    assert session2.counters["shard_fetches"] == 0
    assert fake.shard_requests == served


def test_locally_corrupted_shard_is_replaced(source_store, worker_store):
    """Bit-rot in the worker's local store is detected by the per-shard
    SHA-256 check and healed by a targeted re-fetch."""
    fake = FakeCoordinator(source_store)
    session = _session(fake)
    content_hash = source_store.get("web_frontend").content_hash
    session._ensure_corpus("web_frontend", content_hash)

    manifest = worker_store.get("web_frontend")
    victim = worker_store.shard_dir_path(manifest) / manifest.shards[0].file
    victim.write_bytes(b"rotten")

    session2 = _session(fake)
    session2._ensure_corpus("web_frontend", content_hash)
    assert worker_store.verify(["web_frontend"]) == []
    assert session2.counters["shard_fetches"] == 1  # only the victim
    assert (
        hashlib.sha256(victim.read_bytes()).hexdigest()
        == manifest.shards[0].sha256
    )
