"""Timing cache model with MSHRs and pluggable prefetchers.

Caches form a linked hierarchy (``parent`` chain ending in
:class:`MainMemory`). The model is latency-oriented, matching what a
trace-driven front-end study needs: an access returns the cycle at which
the data is available. Misses allocate an MSHR; outstanding misses to the
same line merge; when all MSHRs are busy the new miss queues behind the
earliest completing one (bandwidth backpressure).
"""

from __future__ import annotations

from typing import Dict

from repro.common.assoc import SetAssociative
from repro.common.stats import Stats
from repro.common.types import LINE_BYTES


class MainMemory:
    """Fixed-latency DRAM endpoint (Table 1: 3200 MHz quad-channel;
    modelled as a flat latency plus a small bandwidth queue)."""

    def __init__(self, latency: int = 160, bandwidth_per_cycle: float = 1.0) -> None:
        self.latency = latency
        self.bandwidth = bandwidth_per_cycle
        self._next_slot = 0.0
        self.stats = Stats()

    def access(self, line_addr: int, cycle: int, is_prefetch: bool = False) -> int:
        """Return the cycle the line arrives from DRAM."""
        self.stats.add("dram_requests")
        # Simple bandwidth model: requests are spaced 1/bandwidth apart.
        start = max(float(cycle), self._next_slot)
        self._next_slot = start + 1.0 / self.bandwidth
        return int(start) + self.latency


class Cache:
    """One set-associative cache level.

    Parameters mirror Table 1: geometry, load-to-use latency, MSHR count,
    and an optional prefetcher object with an ``on_access(cache, addr,
    cycle, hit)`` hook.
    """

    def __init__(
        self,
        name: str,
        sets: int,
        ways: int,
        latency: int,
        parent,
        mshrs: int = 16,
        prefetcher=None,
    ) -> None:
        self.name = name
        self.array = SetAssociative(sets, ways)
        self.latency = latency
        self.parent = parent
        self.mshrs = mshrs
        self.prefetcher = prefetcher
        #: line -> fill-complete cycle for in-flight misses.
        self._pending: Dict[int, int] = {}
        self.stats = Stats()

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def line_of(addr: int) -> int:
        return addr // LINE_BYTES

    def _reap_pending(self, cycle: int) -> None:
        """Free MSHRs whose fills completed (lazy, called before alloc)."""
        done = [line for line, ready in self._pending.items() if ready <= cycle]
        for line in done:
            del self._pending[line]

    # -- main access path ----------------------------------------------------------

    def access(self, addr: int, cycle: int, is_prefetch: bool = False) -> int:
        """Access *addr*; return the data-ready cycle.

        ``latency`` is the *load-to-use* latency of this level (Table 1's
        numbers), so a hit costs ``latency`` and a miss costs whatever the
        first level (or DRAM) that has the line charges — latencies do not
        stack down the request path.
        """
        line = addr // LINE_BYTES
        st = self.stats
        if not is_prefetch:
            st.add("accesses")
        hit_ready = self.array.lookup(line, line)
        if hit_ready is not None:
            if hit_ready <= cycle:
                ready = cycle + self.latency
            else:
                # Still in flight: merge with the outstanding MSHR.
                ready = hit_ready
                if not is_prefetch:
                    st.add("mshr_merges")
            if self.prefetcher is not None and not is_prefetch:
                self.prefetcher.on_access(self, addr, cycle, hit=True)
            return ready
        pending = self._pending.get(line)
        if pending is not None:
            if pending > cycle:
                # Line was evicted while its fill is still in flight:
                # piggyback on the outstanding request.
                if not is_prefetch:
                    st.add("mshr_merges")
                return pending
            # Stale record of a completed fill: free the MSHR.
            del self._pending[line]
        if not is_prefetch:
            st.add("misses")
        else:
            st.add("prefetch_issued")
        self._reap_pending(cycle)
        issue_cycle = cycle
        if len(self._pending) >= self.mshrs:
            # All MSHRs busy: wait for the earliest completion.
            issue_cycle = max(cycle, min(self._pending.values()))
            st.add("mshr_stalls")
        fill = self.parent.access(line * LINE_BYTES, issue_cycle, is_prefetch)
        self._pending[line] = fill
        self.array.insert(line, line, fill)
        if self.prefetcher is not None and not is_prefetch:
            self.prefetcher.on_access(self, addr, cycle, hit=False)
        return fill

    def prefetch(self, addr: int, cycle: int) -> None:
        """Issue a prefetch for *addr* (no return value; fills the array)."""
        line = addr // LINE_BYTES
        if self.array.lookup(line, line, touch=False) is not None:
            return
        if line in self._pending:
            return
        self._reap_pending(cycle)
        if len(self._pending) >= self.mshrs:
            return  # prefetches are droppable
        fill = self.parent.access(line * LINE_BYTES, cycle, True)
        self._pending[line] = fill
        self.array.insert(line, line, fill)
        self.stats.add("prefetch_fills")

    def contains(self, addr: int) -> bool:
        """True when *addr*'s line is resident (ignores readiness)."""
        line = addr // LINE_BYTES
        return self.array.lookup(line, line, touch=False) is not None

    @property
    def hit_rate(self) -> float:
        acc = self.stats.get("accesses")
        if not acc:
            return 0.0
        return 1.0 - self.stats.get("misses") / acc
