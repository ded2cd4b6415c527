"""Back-end timing models.

The simulator is one-pass: instructions arrive in trace (program) order
with a decode-ready cycle, and the back-end computes dispatch, complete
and commit cycles with O(1) work per instruction using ring buffers:

* in-order dispatch, ``width`` per cycle, bounded by ROB occupancy;
* dataflow issue: an instruction issues when its sources are ready
  (register scoreboard) and a port of its class is free (3 load / 2
  store ports, Table 1);
* loads get their latency from the data-side memory hierarchy;
* in-order commit, ``width`` per cycle.

:class:`IdealBackend` implements the Fig.-11a limit study: only data
dependencies constrain execution inside an 8 K-instruction window, every
instruction takes one cycle, and the whole window can retire at once.
"""

from __future__ import annotations

from typing import Tuple

from repro.trace.trace import NUM_REGS


class OoOBackend:
    """Scoreboarded out-of-order core per Table 1."""

    def __init__(
        self,
        memory=None,
        rob_size: int = 352,
        width: int = 16,
        frontend_queue: int = 128,
        load_ports: int = 3,
        store_ports: int = 2,
        branch_latency: int = 1,
        alu_latency: int = 1,
    ) -> None:
        self.memory = memory
        self.rob_size = rob_size
        self.width = width
        self.frontend_queue = frontend_queue
        self.branch_latency = branch_latency
        self.alu_latency = alu_latency
        self._reg_ready = [0] * NUM_REGS
        self._commit_ring = [0] * rob_size
        self._commit_width_ring = [0] * width
        self._dispatch_width_ring = [0] * width
        self._fq_ring = [0] * frontend_queue
        self._load_ring = [0] * load_ports
        self._store_ring = [0] * store_ports
        self._last_commit = 0
        self._count = 0
        self._loads = 0
        self._stores = 0

    def shape(self) -> Tuple[int, ...]:
        """Ring sizes and latencies: what a compiled kernel bakes in."""
        return (
            self.rob_size,
            self.width,
            self.frontend_queue,
            len(self._load_ring),
            len(self._store_ring),
            self.branch_latency,
            self.alu_latency,
        )

    # -- front-end coupling ------------------------------------------------------

    def fetch_gate(self, index: int) -> int:
        """Earliest cycle instruction *index* may leave the fetch stage
        (decode/allocate queue occupancy: at most ``frontend_queue``
        instructions between fetch and dispatch)."""
        if index < self.frontend_queue:
            return 0
        return self._fq_ring[index % self.frontend_queue]

    # -- admission ------------------------------------------------------------------

    def admit(
        self,
        index: int,
        decode_ready: int,
        pc: int,
        is_branch: bool,
        is_load: bool,
        is_store: bool,
        dst: int,
        src1: int,
        src2: int,
        maddr: int,
    ) -> Tuple[int, int]:
        """Admit one instruction; returns ``(complete, commit)`` cycles."""
        width = self.width
        # In-order dispatch: width/cycle, ROB space required.
        dispatch = decode_ready + 1
        if index >= width:
            prev = self._dispatch_width_ring[index % width] + 1
            if prev > dispatch:
                dispatch = prev
        if index >= self.rob_size:
            rob_free = self._commit_ring[index % self.rob_size]
            if rob_free > dispatch:
                dispatch = rob_free
        self._dispatch_width_ring[index % width] = dispatch
        self._fq_ring[index % self.frontend_queue] = dispatch

        # Dataflow readiness.
        ready = dispatch + 1
        regs = self._reg_ready
        if src1 >= 0 and regs[src1] > ready:
            ready = regs[src1]
        if src2 >= 0 and regs[src2] > ready:
            ready = regs[src2]

        # Port arbitration + latency.
        if is_load:
            ring = self._load_ring
            slot = self._loads % len(ring)
            issue = max(ready, ring[slot] + 1)
            ring[slot] = issue
            self._loads += 1
            if self.memory is not None:
                complete = self.memory.load(pc, maddr, issue)
            else:
                complete = issue + 5
        elif is_store:
            ring = self._store_ring
            slot = self._stores % len(ring)
            issue = max(ready, ring[slot] + 1)
            ring[slot] = issue
            self._stores += 1
            if self.memory is not None:
                self.memory.store(pc, maddr, issue)
            complete = issue + 1
        elif is_branch:
            complete = ready + self.branch_latency
        else:
            complete = ready + self.alu_latency

        if dst >= 0:
            regs[dst] = complete

        # In-order commit, width/cycle.
        commit = complete
        if commit < self._last_commit:
            commit = self._last_commit
        if index >= width:
            prev = self._commit_width_ring[index % width] + 1
            if prev > commit:
                commit = prev
        self._commit_width_ring[index % width] = commit
        self._commit_ring[index % self.rob_size] = commit
        self._last_commit = commit
        self._count += 1
        return complete, commit


class IdealBackend:
    """ILP-limited back-end for the Fig.-11a limit study (§6.5.2).

    All data dependencies are enforced, every instruction executes in one
    cycle with unlimited functional units, and the whole 8 K window can
    retire in one cycle — performance is bounded only by the front end
    and true dependence chains.
    """

    def __init__(self, window: int = 8192) -> None:
        self.window = window
        self._reg_ready = [0] * NUM_REGS
        self._commit_ring = [0] * window
        self._last_commit = 0

    def shape(self) -> Tuple[int, ...]:
        """The window size: what a compiled kernel bakes in."""
        return (self.window,)

    def fetch_gate(self, index: int) -> int:
        if index < self.window:
            return 0
        return self._commit_ring[index % self.window]

    def admit(
        self,
        index: int,
        decode_ready: int,
        pc: int,
        is_branch: bool,
        is_load: bool,
        is_store: bool,
        dst: int,
        src1: int,
        src2: int,
        maddr: int,
    ) -> Tuple[int, int]:
        ready = decode_ready + 1
        regs = self._reg_ready
        if src1 >= 0 and regs[src1] > ready:
            ready = regs[src1]
        if src2 >= 0 and regs[src2] > ready:
            ready = regs[src2]
        complete = ready + 1
        if dst >= 0:
            regs[dst] = complete
        commit = complete if complete >= self._last_commit else self._last_commit
        self._commit_ring[index % self.window] = commit
        self._last_commit = commit
        return complete, commit
