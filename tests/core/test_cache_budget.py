"""DiskCache maintenance: sharding, tier stats, LRU prune, lock sweep.

The service daemon keeps one long-lived store under a byte budget
(``repro-sim serve --cache-max-mb``); ``repro-sim cache stats`` /
``cache prune`` expose the same machinery. These tests cover the
machinery directly: shard-layout interop, per-tier accounting, the
stale-lock sweep on the stats path (write-path sweeping alone leaves
never-rewritten keys locked forever), recency-aware eviction, and
concurrent writers racing a prune.
"""

import json
import multiprocessing as mp
import os
import time

import pytest

from repro.core.exec import DiskCache, STALE_LOCK_SECONDS, TIERS
from repro.core.exec.diskcache import ENV_CACHE_SHARDS, lock_path
from repro.core.simulator import SimResult


def _result(tag="x"):
    return SimResult(
        name=tag,
        instructions=100,
        cycles=250,
        stats={"ipc": 0.4},
        structure={"btb_entries": 1024.0},
    )


def _age(path, seconds):
    old = time.time() - seconds
    os.utime(path, (old, old))


# -- shard layout ------------------------------------------------------------


def test_sharded_entries_live_in_two_hex_subdirs(tmp_path):
    cache = DiskCache(tmp_path, shard=True)
    key = "ab12cd" + "0" * 58
    cache.store_result(key, _result())
    assert (cache.results_dir / "ab" / f"{key}.json").is_file()


def test_flat_and_sharded_caches_interoperate(tmp_path):
    flat = DiskCache(tmp_path, shard=False)
    sharded = DiskCache(tmp_path, shard=True)
    flat.store_result("aa" + "0" * 62, _result("flat"))
    sharded.store_result("bb" + "0" * 62, _result("sharded"))
    # Each reads the other's layout transparently.
    assert sharded.load_result("aa" + "0" * 62).name == "flat"
    assert flat.load_result("bb" + "0" * 62).name == "sharded"
    # And neither duplicates an entry that exists under the other layout.
    sharded.store_result("aa" + "0" * 62, _result("flat"))
    stats = flat.tier_stats()
    assert stats["results"]["entries"] == 2


def test_shard_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_CACHE_SHARDS, "1")
    assert DiskCache(tmp_path).shard is True
    monkeypatch.setenv(ENV_CACHE_SHARDS, "0")
    assert DiskCache(tmp_path).shard is False
    monkeypatch.delenv(ENV_CACHE_SHARDS)
    assert DiskCache(tmp_path).shard is False


# -- result loads across the two layouts --------------------------------------
#
# ``load_result`` opens the preferred layout's file first and tries the
# other layout only when that file is not there.

KEY = "cd" + "0" * 62
LAYOUTS = pytest.mark.parametrize("shard", [False, True], ids=["flat", "sharded"])


def _at(cache, sharded):
    """Where KEY's result lives under the flat or the sharded layout."""
    name = f"{KEY}.json"
    return cache.results_dir / KEY[:2] / name if sharded else cache.results_dir / name


def _counts(cache):
    return cache.counters["result_hits"], cache.counters["result_misses"]


@LAYOUTS
@pytest.mark.parametrize("where", ["preferred", "other"])
def test_directory_at_a_result_path_is_a_miss(tmp_path, shard, where):
    cache = DiskCache(tmp_path, shard=shard)
    _at(cache, shard if where == "preferred" else not shard).mkdir(parents=True)
    assert cache.load_result(KEY) is None
    assert _counts(cache) == (0, 1)


@LAYOUTS
def test_corrupt_entry_under_the_other_layout_is_dropped(tmp_path, shard):
    cache = DiskCache(tmp_path, shard=shard)
    other = _at(cache, not shard)
    other.parent.mkdir(parents=True, exist_ok=True)
    other.write_text('{"name": ')
    assert cache.load_result(KEY) is None
    assert _counts(cache) == (0, 1)
    assert not other.exists()
    cache.store_result(KEY, _result("fresh"))
    assert _at(cache, shard).is_file() and not other.exists()
    assert cache.load_result(KEY).name == "fresh"


@LAYOUTS
def test_hit_under_the_other_layout_refreshes_its_mtime(tmp_path, shard):
    DiskCache(tmp_path, shard=not shard).store_result(KEY, _result("other"))
    cache = DiskCache(tmp_path, shard=shard)
    other = _at(cache, not shard)
    _age(other, 1000)
    stale = other.stat().st_mtime
    assert cache.load_result(KEY).name == "other"
    assert _counts(cache) == (1, 0)
    assert other.stat().st_mtime > stale + 900
    assert not _at(cache, shard).exists()


# -- tier stats + lock sweeping ----------------------------------------------


def test_tier_stats_counts_and_sizes(tmp_path):
    cache = DiskCache(tmp_path, shard=True)
    cache.store_result("aa" + "0" * 62, _result())
    cache.store_result("ab" + "0" * 62, _result())
    cache.store_obs("cc" + "0" * 62, {"events": []})
    stats = cache.tier_stats()
    assert set(stats) == set(TIERS) | {"total"}
    assert stats["results"]["entries"] == 2
    assert stats["obs"]["entries"] == 1
    assert stats["traces"]["entries"] == 0
    assert stats["total"]["entries"] == 3
    expected_bytes = sum(stats[t]["bytes"] for t in TIERS)
    assert stats["total"]["bytes"] == expected_bytes > 0


def test_stats_sweeps_stale_locks_but_keeps_fresh_ones(tmp_path):
    """The satellite fix: a killed writer's sentinel for a key nobody
    rewrites used to linger forever — the write path only breaks locks
    for the *same* key. The stats/prune walk now sweeps them."""
    cache = DiskCache(tmp_path, shard=False)
    cache.store_result("aa" + "0" * 62, _result())
    stale = lock_path(cache.results_dir / ("dead" + "0" * 60 + ".json"))
    stale.parent.mkdir(parents=True, exist_ok=True)
    stale.write_text("666")
    _age(stale, STALE_LOCK_SECONDS + 10)
    fresh = lock_path(cache.results_dir / ("live" + "0" * 60 + ".json"))
    fresh.write_text("123")
    orphan_tmp = cache.results_dir / ".tmp-orphan.json"
    orphan_tmp.write_text("partial")
    _age(orphan_tmp, STALE_LOCK_SECONDS + 10)

    stats = cache.tier_stats()
    assert not stale.exists()
    assert not orphan_tmp.exists()
    assert fresh.exists()  # a live writer may own this
    assert cache.counters["locks_swept"] == 2
    # Sentinels and temp files are write state, not entries.
    assert stats["results"]["entries"] == 1


# -- LRU prune ---------------------------------------------------------------


def test_prune_evicts_lru_until_budget_fits(tmp_path):
    cache = DiskCache(tmp_path, shard=False)
    keys = [f"{i:02x}" + "0" * 62 for i in range(4)]
    for i, key in enumerate(keys):
        cache.store_result(key, _result(f"r{i}"))
        _age(cache.result_path(key), 1000 - 100 * i)  # keys[0] coldest
    entry_size = cache.result_path(keys[0]).stat().st_size
    summary = cache.prune(max_bytes=2 * entry_size + 1)
    assert summary["evicted"] == 2
    assert summary["kept"] == 2
    assert cache.load_result(keys[0]) is None
    assert cache.load_result(keys[1]) is None
    assert cache.load_result(keys[2]) is not None
    assert cache.load_result(keys[3]) is not None


def test_prune_is_lru_not_fifo_because_hits_touch(tmp_path):
    cache = DiskCache(tmp_path, shard=False)
    old, new = "aa" + "0" * 62, "bb" + "0" * 62
    cache.store_result(old, _result("old"))
    cache.store_result(new, _result("new"))
    _age(cache.result_path(old), 1000)
    _age(cache.result_path(new), 500)
    assert cache.load_result(old) is not None  # hit refreshes mtime
    entry_size = cache.result_path(new).stat().st_size
    cache.prune(max_bytes=entry_size + 1)
    # The older-written but recently-used entry survived.
    assert cache.load_result(old) is not None
    assert cache.load_result(new) is None


def test_prune_respects_fresh_locks_and_tier_selection(tmp_path):
    cache = DiskCache(tmp_path, shard=False)
    locked, other = "aa" + "0" * 62, "bb" + "0" * 62
    cache.store_result(locked, _result())
    cache.store_result(other, _result())
    _age(cache.result_path(locked), 2000)  # coldest → first eviction pick
    _age(cache.result_path(other), 1000)
    lock_path(cache.result_path(locked)).write_text("123")  # live writer
    cache.store_obs("cc" + "0" * 62, {"big": "x" * 4096})

    summary = cache.prune(max_bytes=0, tiers=["results"])
    assert cache.load_result(locked) is not None  # lock protected it
    assert cache.load_result(other) is None
    assert cache.load_obs("cc" + "0" * 62) is not None  # tier not chosen
    assert summary["evicted"] == 1


def test_prune_noop_under_budget(tmp_path):
    cache = DiskCache(tmp_path, shard=True)
    cache.store_result("aa" + "0" * 62, _result())
    summary = cache.prune(max_bytes=1 << 30)
    assert summary == {
        "evicted": 0,
        "evicted_bytes": 0,
        "kept": 1,
        "kept_bytes": cache.result_path("aa" + "0" * 62).stat().st_size,
    }


def test_bad_tier_name_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown cache tier"):
        DiskCache(tmp_path).tier_dir("journal")


# -- concurrent writers under a budget ---------------------------------------


def _writer(root, tag, rounds):
    cache = DiskCache(root, shard=True)
    for i in range(rounds):
        cache.store_result(f"{tag}{i:04d}" + "0" * 56, _result(f"{tag}{i}"))


def test_concurrent_writers_race_prune_without_corruption(tmp_path):
    """Two processes hammer a sharded store while the parent repeatedly
    prunes it to a small budget: no torn entries, no crashes, and the
    final prune lands the store under budget."""
    workers = [
        mp.Process(target=_writer, args=(str(tmp_path), tag, 40))
        for tag in ("aa", "bb")
    ]
    for w in workers:
        w.start()
    cache = DiskCache(tmp_path, shard=True)
    budget = 2048
    while any(w.is_alive() for w in workers):
        cache.prune(budget)
        for path, _stat in cache._iter_entries("results"):
            payload = json.loads(path.read_text())  # torn write would explode
            assert payload["cycles"] == 250
    for w in workers:
        w.join(timeout=30)
        assert w.exitcode == 0
    summary = cache.prune(budget)
    assert summary["kept_bytes"] <= budget
    # Whatever survived is still readable.
    for path, _stat in cache._iter_entries("results"):
        assert json.loads(path.read_text())["instructions"] == 100
