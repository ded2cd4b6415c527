"""Dynamic trace synthesis: guided walk over a synthetic program CFG.

The walker executes the :class:`~repro.trace.cfg.Program` like a tiny
interpreter, one block at a time: it draws the addresses of the block's
loads and stores (from each static instruction's
:class:`~repro.trace.cfg.MemBehavior`), then its terminator consults the
branch behaviour objects; calls push the fall-through continuation,
returns pop it. When the top-level function returns with an empty stack
the walk restarts at the program entry — a steady-state server dispatch
loop.

The walk records only what it decides: the blocks visited, each
terminator's taken bit and target, and each address a load or store
drew at random. The trace's columns are then gathered in numpy from the
program's instruction columns, and the strided addresses computed from
visit counts (see docs/workloads.md, "Assembling a trace").
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Tuple

import numpy as np

from repro.common.rng import SplitMix
from repro.common.types import ILEN, BranchType
from repro.trace.cfg import LOAD, STORE, Block, Program
from repro.trace.trace import NO_REG, Trace, narrow_ints

#: Hard cap on call depth; the acyclic call-graph levels already bound the
#: depth, this is a defensive backstop.
MAX_CALL_DEPTH = 64

# Branch kinds as plain ints: the walk compares one per block, and an
# enum member lookup costs ten times a global's.
_NONE, _COND, _JUMP, _CALL, _RETURN, _INDIRECT, _CALL_INDIRECT = map(int, BranchType)

_BLOCK_FIELDS = tuple(
    (attrgetter(name), dtype)
    for name, dtype in (("start_pc", np.int64), ("first", np.int64),
                        ("count", np.int64), ("term_type", np.int8))
)


class TraceSynthesizer:
    """Walks a program and produces a :class:`Trace` of a given length."""

    def __init__(self, program: Program, seed: int = 7) -> None:
        self.program = program
        self.rng = SplitMix(seed)
        #: Per program row, the executions its load or store has had.
        self._visits = np.zeros(len(program.mem), dtype=np.int64)
        #: Per memory-table entry: base, stride, span (at least 8) and
        #: whether it may pick a random address.
        self._mem_fields = np.array(
            [(m.base, m.stride, max(m.span, 8), m.p_random > 0.0) for m in program.mem_table],
            dtype=np.int64,
        ).reshape(-1, 4).T
        #: Per visited block (by start PC): ``(p_random, base, span)`` of
        #: its loads and stores that may draw a random address, in
        #: program order, and its end PC.
        self._seen: Dict[int, Tuple[List[Tuple[float, int, int]], int]] = {}
        # Behaviour objects live in the (shared, cached) Program; reset
        # their per-walk state so every synthesis is deterministic.
        for behavior in program.behaviors:
            behavior.reset()

    def synthesize(self, length: int, name: str = "synth") -> Trace:
        """Emit a trace of exactly *length* instructions.

        The walk runs whole blocks until it has *length* instructions;
        the trace is cut there, so the final instruction may be
        mid-block, which is fine for the consumers.
        """
        if length <= 0:
            raise ValueError("length must be positive")
        return Trace.from_arrays(name, self._columns(*self._walk(length), length))

    # -- the walk ---------------------------------------------------------------

    def _walk(self, length: int):
        """``(blocks, taken, targets, draws)``: the blocks visited, the
        taken bit and target of each terminator, and, for each load or
        store whose behaviour may pick a random address, that address,
        or -1 when it strides (:meth:`MemBehavior.address`), in walk
        order, over at least *length* instructions.

        The draw order is the per-instruction walker's: a block's
        address draws first, in program order, then its terminator's
        behaviour draw. Strided addresses take no draw; they follow from
        the visit counts (:meth:`_addresses`).
        """
        rng = self.rng
        seen = self._seen
        block_at = self.program.block_at
        blocks: List[Block] = []
        taken: List[int] = []
        targets: List[int] = []
        draws: List[int] = []
        stack: List[int] = []  # return-target PCs
        block = self.program.entry.blocks[0]
        n = 0
        while n < length:
            blocks.append(block)
            known = seen.get(block.start_pc)
            if known is None:
                known = self._first_visit(block)
            randoms, end_pc = known
            for p_random, base, span in randoms:  # MemBehavior.address's draws
                if rng.uniform() < p_random:
                    draws.append(base + (rng.next_u64() % span) // 8 * 8)
                else:
                    draws.append(-1)
            n += block.count
            if block.term_type == _NONE:
                pc = end_pc
            else:
                n += 1
                took, target = self._branch(block, end_pc, stack)
                taken.append(took)
                targets.append(target)
                pc = target if took else end_pc
            block = block_at.get(pc)
            if block is None:
                raise KeyError(f"no block at pc {pc:#x}; CFG targets are inconsistent")
        return blocks, taken, targets, draws

    def _first_visit(self, block: Block) -> Tuple[List[Tuple[float, int, int]], int]:
        """What the walk needs of *block* on every visit (see ``_seen``)."""
        program = self.program
        table = program.mem_table
        rows = program.mem[block.first:block.first + block.count].tolist()
        randoms = [
            (mem.p_random, mem.base, max(mem.span, 8))
            for mem in (table[m] for m in rows if m >= 0)
            if mem.p_random > 0.0
        ]
        known = self._seen[block.start_pc] = (randoms, block.end_pc)
        return known

    def _branch(self, block: Block, end_pc: int, stack: List[int]) -> Tuple[int, int]:
        """Execute *block*'s terminator: ``(taken bit, target)``, the
        target 0 when not taken. A call pushes *end_pc*."""
        term = block.term_type
        if term == _COND:
            if block.cond_behavior.outcome(self.rng):
                return 1, block.taken_target
            return 0, 0
        if term == _JUMP:
            return 1, block.taken_target
        if term == _CALL:
            self._call(end_pc, stack)
            return 1, block.taken_target
        if term == _CALL_INDIRECT:
            target = block.indirect_behavior.next_target(self.rng)
            self._call(end_pc, stack)
            return 1, target
        if term == _INDIRECT:
            return 1, block.indirect_behavior.next_target(self.rng)
        if term == _RETURN:
            if stack:
                return 1, stack.pop()
            # Top-level return: restart the server loop at program entry.
            return 1, self.program.entry.entry_pc
        raise AssertionError(f"unhandled terminator {term!r}")

    @staticmethod
    def _call(return_pc: int, stack: List[int]) -> None:
        if len(stack) >= MAX_CALL_DEPTH:
            raise RuntimeError("call depth exceeded; program generation is broken")
        stack.append(return_pc)

    # -- assembly -----------------------------------------------------------------

    def _columns(self, blocks, taken, targets, draws, length: int) -> Dict[str, np.ndarray]:
        """The trace's ten columns, *length* rows, gathered from the walk.

        Row ``i`` is instruction ``off[i]`` of visited block ``blk[i]``:
        a body instruction (the program's row ``first + off``) while
        ``off < count``, else the block's terminator, which takes the
        next recorded taken bit and target. The walk ran whole blocks,
        so the rows past *length* are cut, after their visits count.
        """
        program = self.program
        nb = len(blocks)
        start, first, count, term = (
            np.fromiter(map(get, blocks), dtype, nb) for get, dtype in _BLOCK_FIELDS
        )
        size = count + (term != 0)
        blk = np.repeat(np.arange(nb), size)
        off = np.arange(len(blk)) - (np.cumsum(size) - size)[blk]
        body = off < count[blk]
        row = (first[blk] + off)[body]
        maddr = np.zeros(len(blk), dtype=np.int64)
        maddr[body] = self._addresses(row, draws)
        blk, off, body, maddr = blk[:length], off[:length], body[:length], maddr[:length]
        row = row[:np.count_nonzero(body)]
        at_term = ~body

        kind = np.full(length, -1, dtype=np.int8)
        kind[body] = program.kind[row]
        btype = np.zeros(length, dtype=np.int8)
        btype[at_term] = term[blk[at_term]]
        branches = int(np.count_nonzero(at_term))
        taken_col = np.zeros(length, dtype=np.int8)
        taken_col[at_term] = np.fromiter(taken, np.int8, branches)
        target = np.zeros(length, dtype=np.int64)
        target[at_term] = np.fromiter(targets, np.int64, branches)
        columns = {
            "pc": narrow_ints(start[blk] + off * ILEN),
            "btype": btype,
            "taken": taken_col,
            "target": narrow_ints(target),
            "is_load": (kind == LOAD).astype(np.int8),
            "is_store": (kind == STORE).astype(np.int8),
            "maddr": narrow_ints(maddr),
        }
        for name in ("dst", "src1", "src2"):
            column = np.full(length, NO_REG, dtype=np.int8)
            column[body] = getattr(program, name)[row]
            columns[name] = column
        return columns

    def _addresses(self, row: np.ndarray, draws: List[int]) -> np.ndarray:
        """The address of each walked body instruction, by program *row*
        in walk order (0 when it touches no memory): what
        :meth:`MemBehavior.address` gives at the instruction's visit, its
        count of earlier executions in this synthesizer's walks. That is
        the walk's draw where it drew one, else the stride."""
        mem = self.program.mem[row]
        access = np.flatnonzero(mem >= 0)
        rows = row[access]
        visit = self._visits[rows] + _occurrences(rows)
        self._visits += np.bincount(rows, minlength=len(self._visits))
        base, stride, span, random = self._mem_fields[:, mem[access]]
        address = base + visit * stride % span
        random = random.astype(bool)
        drawn = np.fromiter(draws, np.int64, len(draws))
        address[random] = np.where(drawn >= 0, drawn, address[random])
        out = np.zeros(len(row), dtype=np.int64)
        out[access] = address
        return out


def _occurrences(values: np.ndarray) -> np.ndarray:
    """``out[i]``: how many of ``values[:i]`` equal ``values[i]``."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    out = np.empty(len(values), dtype=np.int64)
    out[order] = np.arange(len(values)) - np.repeat(starts, np.diff(np.r_[starts, len(values)]))
    return out


def synthesize_trace(program: Program, length: int, seed: int = 7, name: str = "synth") -> Trace:
    """One-shot helper: walk *program* for *length* instructions."""
    return TraceSynthesizer(program, seed=seed).synthesize(length, name=name)
