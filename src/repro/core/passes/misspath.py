"""Flat miss paths: the memory hierarchy's slow paths, built per kernel run.

The kernel inlines every L1 and TLB *hit* against the hardware objects'
internals. What it cannot inline — an L1 miss or prefetch, which walks
``Cache.access`` down through the L2 (and its next-line prefetcher),
the LLC and ``MainMemory``, and a TLB miss, which walks the L2 TLB and
the page walker — runs through the closures :func:`miss_paths` builds
once per run over one :class:`~repro.memory.hierarchy.MemoryHierarchy`.

They make the reference chain's decisions on the reference chain's
state — each level's ``SetAssociative._sets`` and ``_tick``, each
cache's ``_pending`` MSHR map, ``MainMemory._next_slot`` — so a kernel
run leaves the hierarchy exactly as the interpreter does, minus what no
result reads: the ``Stats`` counters. What they drop is overhead:

* no per-level method call with its attribute loads, and no ``Stats``;
* an MSHR reap scans ``_pending`` only when its earliest fill, held in
  a closure cell, has completed, instead of building a list on every
  miss; the same cell is ``min(_pending.values())`` when the MSHRs are
  full (exact as long as nothing else writes ``_pending`` during the
  run, which in a kernel run nothing does);
* the LRU victim comes from a loop, not a ``min`` with a lambda.

``tests/kernel/test_misspath.py`` drives these closures and a reference
hierarchy with the same random streams and compares every return value
and the final state.
"""

from __future__ import annotations

from repro.memory.cache import Cache, MainMemory
from repro.memory.prefetch import IPStridePrefetcher, NextLinePrefetcher
from repro.memory.tlb import TLB, PageWalker

#: Earliest fill of an empty MSHR file: later than any cycle of a run.
_NEVER = 1 << 62


def supports(mem) -> bool:
    """True when *mem* is wired the way ``MemoryHierarchy`` wires it:
    L1I and L1D over a shared L2 (next-line prefetcher or none), LLC and
    ``MainMemory``; the L1D's prefetcher is ``mem.dstride``; ITLB and
    DTLB over one L2 TLB over a ``PageWalker``. Geometry, latencies,
    MSHR counts and prefetch degrees are free: they are read at run
    time."""
    try:
        l2, llc = mem.l2, mem.llc
        return (
            all(type(c) is Cache for c in (mem.l1i, mem.l1d, l2, llc))
            and mem.l1i.parent is l2
            and mem.l1d.parent is l2
            and l2.parent is llc
            and type(llc.parent) is MainMemory
            and mem.l1i.prefetcher is None
            and llc.prefetcher is None
            and (l2.prefetcher is None or type(l2.prefetcher) is NextLinePrefetcher)
            and type(mem.dstride) is IPStridePrefetcher
            and mem.l1d.prefetcher is mem.dstride
            and all(type(t) is TLB for t in (mem.itlb, mem.dtlb, mem.l2tlb))
            and mem.itlb.parent is mem.l2tlb
            and mem.dtlb.parent is mem.l2tlb
            and type(mem.l2tlb.parent) is PageWalker
        )
    except AttributeError:
        return False


def _level(cache, parent, next_line=0):
    """``(access, miss, prefetch)`` closures for one cache level whose
    misses go to *parent* (an ``access(line, cycle, is_prefetch)``).

    * ``access(line, cycle, is_prefetch)`` is ``Cache.access``;
    * ``miss`` is the same after a failed array lookup, so a caller that
      probed the set itself skips the re-probe;
    * ``prefetch(line, cycle)`` is ``Cache.prefetch`` for a line that is
      neither resident nor in flight (its callers check both first).

    *next_line* is the degree of a next-line prefetcher on this level
    (0: none); it fires after every demand access, hit or miss.
    """
    arr = cache.array
    sets = arr._sets
    mask = arr.sets - 1
    ways = arr.ways
    latency = cache.latency
    pending = cache._pending
    mshrs = cache.mshrs
    #: min(pending.values()), or _NEVER when no fill is outstanding.
    earliest = min(pending.values(), default=_NEVER)
    offsets = tuple(range(1, next_line + 1))

    def reap(cycle):
        # Free the MSHRs whose fills completed by *cycle*.
        nonlocal earliest
        done = [line for line, ready in pending.items() if ready <= cycle]
        for line in done:
            del pending[line]
        earliest = min(pending.values(), default=_NEVER)

    def prefetch(line, cycle):
        nonlocal earliest
        if earliest <= cycle:
            reap(cycle)
        if len(pending) >= mshrs:
            return  # a prefetch is dropped when all MSHRs are busy
        ready = parent(line, cycle, True)
        pending[line] = ready
        if ready < earliest:
            earliest = ready
        bucket = sets[line & mask]
        if len(bucket) >= ways:
            _evict_lru(bucket)
        arr._tick = tick = arr._tick + 1
        bucket[line] = [ready, tick]

    def miss(line, cycle, is_prefetch=False):
        nonlocal earliest
        ready = pending.get(line)
        if ready is not None:
            if ready > cycle:
                # Evicted while its fill is in flight: merge with it.
                return ready
            del pending[line]  # a stale record; the reap below is due
        if earliest <= cycle:
            reap(cycle)
        # All MSHRs busy: wait for the earliest completion (which is
        # past *cycle*: every earlier one was just reaped).
        ready = parent(line, earliest if len(pending) >= mshrs else cycle,
                       is_prefetch)
        pending[line] = ready
        if ready < earliest:
            earliest = ready
        bucket = sets[line & mask]
        if len(bucket) >= ways:
            _evict_lru(bucket)
        arr._tick = tick = arr._tick + 1
        bucket[line] = [ready, tick]
        if offsets and not is_prefetch:
            next_lines(line, cycle)
        return ready

    def access(line, cycle, is_prefetch):
        entry = sets[line & mask].get(line)
        if entry is None:
            return miss(line, cycle, is_prefetch)
        arr._tick = tick = arr._tick + 1
        entry[1] = tick
        ready = entry[0]
        if ready <= cycle:
            ready = cycle + latency
        if offsets and not is_prefetch:
            next_lines(line, cycle)
        return ready

    def next_lines(line, cycle):
        # NextLinePrefetcher.on_access: Cache.prefetch of the next lines.
        for d in offsets:
            nxt = line + d
            if nxt not in sets[nxt & mask] and nxt not in pending:
                prefetch(nxt, cycle)

    return access, miss, prefetch


def _evict_lru(bucket) -> None:
    """Drop the least recently used entry of a full set (the smallest
    tick: ticks are unique, so the reference ``min`` picks the same)."""
    victim = None
    oldest = _NEVER
    for tag, entry in bucket.items():
        if entry[1] < oldest:
            oldest = entry[1]
            victim = tag
    del bucket[victim]


def _tlb_fill(tlb):
    """Install a missed page in *tlb*'s array (``SetAssociative.insert``
    of a tag known to be absent)."""
    arr = tlb.array
    sets = arr._sets
    mask = arr.sets - 1
    ways = arr.ways

    def install(page):
        bucket = sets[page & mask]
        if len(bucket) >= ways:
            _evict_lru(bucket)
        arr._tick = tick = arr._tick + 1
        bucket[page] = [True, tick]

    return install


def miss_paths(mem):
    """The flat slow paths of *mem* (see :func:`supports`), as a tuple
    ``(l1d_miss, l1d_prefetch, l1i_miss, l1i_prefetch, l2tlb, itlb_miss)``:

    * ``l1d_miss(line, cycle)`` / ``l1i_miss(line, cycle)``:
      ``Cache.access(line * LINE_BYTES, cycle)`` on the L1 after the
      caller's lookup missed, minus the L1D prefetcher's hook (the
      kernel drives that from the plan). The L1D reports whether the
      prefetcher would have seen the access by whether *line* is
      resident afterwards: only the evicted-while-in-flight merge
      leaves it absent, and that path returns before the hook;
    * ``l1d_prefetch(line, cycle)`` / ``l1i_prefetch(line, cycle)``:
      ``Cache.prefetch`` for a line neither resident nor in flight;
    * ``l2tlb(page, cycle)``: ``l2tlb.translate`` (walk on a miss);
    * ``itlb_miss(page, cycle)``: ``itlb.translate`` after the caller's
      lookup missed.
    """
    dram = mem.llc.parent
    dram_latency = dram.latency
    step = 1.0 / dram.bandwidth

    def dram_access(line, cycle, is_prefetch):
        start = float(cycle)
        slot = dram._next_slot
        if slot > start:
            start = slot
        dram._next_slot = start + step
        return int(start) + dram_latency

    llc_access, _, _ = _level(mem.llc, dram_access)
    l2_prefetcher = mem.l2.prefetcher
    l2_access, _, _ = _level(
        mem.l2, llc_access, l2_prefetcher.degree if l2_prefetcher else 0
    )
    _, l1d_miss, l1d_prefetch = _level(mem.l1d, l2_access)
    _, l1i_miss, l1i_prefetch = _level(mem.l1i, l2_access)

    l2tlb = mem.l2tlb
    t_arr = l2tlb.array
    t_sets = t_arr._sets
    t_mask = t_arr.sets - 1
    t_latency = l2tlb.latency
    walk = l2tlb.parent.latency
    t_install = _tlb_fill(l2tlb)

    def l2tlb_lookup(page, cycle):
        entry = t_sets[page & t_mask].get(page)
        if entry is not None:
            t_arr._tick = tick = t_arr._tick + 1
            entry[1] = tick
            return cycle + t_latency
        t_install(page)
        return cycle + t_latency + walk

    itlb_latency = mem.itlb.latency
    i_install = _tlb_fill(mem.itlb)

    def itlb_miss(page, cycle):
        done = l2tlb_lookup(page, cycle + itlb_latency)
        i_install(page)
        return done

    return (l1d_miss, l1d_prefetch, l1i_miss, l1i_prefetch,
            l2tlb_lookup, itlb_miss)
