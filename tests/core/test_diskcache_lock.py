"""Concurrent-sweep safety of the disk cache: atomic writes + lock sentinels."""

import json
import multiprocessing as mp
import os
import sys
import threading
import time

from repro.core.exec import DiskCache
from repro.core.exec.diskcache import STALE_LOCK_SECONDS
from repro.core.simulator import SimResult


def _result(tag="x"):
    return SimResult(
        name=tag,
        instructions=100,
        cycles=250,
        stats={"ipc": 0.4},
        structure={"btb_entries": 1024.0},
    )


def test_store_skipped_while_fresh_lock_held(tmp_path):
    cache = DiskCache(tmp_path)
    path = cache.result_path("k1")
    lock = cache.lock_path(path)
    lock.parent.mkdir(parents=True, exist_ok=True)
    lock.write_text("12345")  # another sweep is mid-write
    cache.store_result("k1", _result())
    assert not path.exists()
    assert cache.counters["lock_skips"] == 1
    assert lock.exists()  # the skipping side never touches the holder's lock


def test_stale_lock_is_broken_and_write_proceeds(tmp_path):
    cache = DiskCache(tmp_path)
    path = cache.result_path("k1")
    lock = cache.lock_path(path)
    lock.parent.mkdir(parents=True, exist_ok=True)
    lock.write_text("666")  # writer killed long ago
    old = time.time() - STALE_LOCK_SECONDS - 5
    os.utime(lock, (old, old))
    cache.store_result("k1", _result())
    assert cache.counters["lock_skips"] == 0
    assert not lock.exists()
    assert cache.load_result("k1") is not None


def test_lock_released_after_successful_write(tmp_path):
    cache = DiskCache(tmp_path)
    cache.store_result("k1", _result())
    assert not cache.lock_path(cache.result_path("k1")).exists()


def test_lock_released_when_writer_raises(tmp_path):
    cache = DiskCache(tmp_path)
    path = cache.result_path("k1")
    path.parent.mkdir(parents=True, exist_ok=True)

    def boom(tmp):
        raise OSError("disk full")

    try:
        cache._atomic_write(path, boom)
    except OSError:
        pass
    assert not cache.lock_path(path).exists()
    # No temp droppings either.
    assert [p.name for p in path.parent.iterdir()] == []


def _hammer(root, key, rounds):
    cache = DiskCache(root)
    for i in range(rounds):
        cache.store_result(key, _result())


def test_concurrent_writers_never_expose_torn_entry(tmp_path):
    """Regression for corrupted concurrent writes: two sweeps hammering
    the same content-addressed key must never let a reader observe a
    half-written file — ``os.replace`` swaps complete entries only."""
    key = "shared-key"
    workers = [
        mp.Process(target=_hammer, args=(str(tmp_path), key, 60))
        for _ in range(2)
    ]
    for w in workers:
        w.start()
    cache = DiskCache(tmp_path)
    path = cache.result_path(key)
    parses = 0
    deadline = time.monotonic() + 20
    while any(w.is_alive() for w in workers) and time.monotonic() < deadline:
        if path.exists():
            try:
                raw = path.read_text()
            except FileNotFoundError:
                continue
            payload = json.loads(raw)  # a torn write would explode here
            assert payload["cycles"] == 250
            parses += 1
    for w in workers:
        w.join(timeout=30)
        assert w.exitcode == 0
    assert parses > 0  # the race was actually observed
    assert cache.load_result(key) is not None


def test_counters_survive_concurrent_hits_and_merges(tmp_path):
    """The service daemon counts its own cache hits on one thread while
    its coordinator folds session counters in on another: no update may
    be lost."""
    cache = DiskCache(tmp_path)
    cache.store_result("k1", _result())
    rounds = 400

    def hits():
        for _ in range(rounds):
            assert cache.load_result("k1") is not None

    def merges():
        for _ in range(rounds):
            cache.merge_counters({"result_hits": 1, "result_misses": 1})

    workers = [threading.Thread(target=f) for f in (hits, merges) * 2]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(worker.is_alive() for worker in workers)
    assert cache.counters["result_hits"] == 4 * rounds
    assert cache.counters["result_misses"] == 2 * rounds
