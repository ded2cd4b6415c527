"""Dynamic trace synthesis: guided walk over a synthetic program CFG.

The walker executes the :class:`~repro.trace.cfg.Program` like a tiny
interpreter: block bodies are emitted instruction by instruction (with
memory addresses drawn from each static instruction's
:class:`~repro.trace.cfg.MemBehavior`), terminators consult their branch
behaviour objects, calls push the fall-through continuation, returns pop
it. When the top-level function returns with an empty stack the walk
restarts at the program entry — a steady-state server dispatch loop.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.rng import SplitMix
from repro.common.types import ILEN, BranchType
from repro.trace.cfg import LOAD, STORE, Block, Program
from repro.trace.trace import Trace

#: Hard cap on call depth; the acyclic call-graph levels already bound the
#: depth, this is a defensive backstop.
MAX_CALL_DEPTH = 64


class TraceSynthesizer:
    """Walks a program and produces a :class:`Trace` of a given length."""

    def __init__(self, program: Program, seed: int = 7) -> None:
        self.program = program
        self.rng = SplitMix(seed)
        self._visit_count: Dict[int, int] = {}
        # Per-block column templates for _emit_body: everything except
        # memory addresses is static per block, so bodies are emitted with
        # bulk list.extend instead of per-instruction appends.
        self._body_cache: Dict[int, tuple] = {}
        # Behaviour objects live in the (shared, cached) Program; reset
        # their per-walk state so every synthesis is deterministic.
        for function in program.functions:
            for block in function.blocks:
                if block.cond_behavior is not None:
                    block.cond_behavior.reset()
                if block.indirect_behavior is not None:
                    block.indirect_behavior.reset()

    def synthesize(self, length: int, name: str = "synth") -> Trace:
        """Emit a trace of at least *length* instructions.

        The trace always ends exactly at *length* instructions; the final
        instruction may be mid-block, which is fine for the consumers.
        """
        if length <= 0:
            raise ValueError("length must be positive")
        trace = Trace(name=name)
        block: Block = self.program.entry.blocks[0]
        stack: List[int] = []  # return-target PCs
        while len(trace) < length:
            block = self._run_block(block, stack, trace, length)
        out = trace.slice(0, length)
        out.name = name
        return out

    # -- block execution ------------------------------------------------------

    def _emit_body(self, block: Block, trace: Trace) -> None:
        tpl = self._body_cache.get(block.start_pc)
        if tpl is None:
            program = self.program
            first, end = block.first, block.first + block.count
            kinds = program.kind[first:end]
            mem_table = program.mem_table
            tpl = (
                list(range(block.start_pc, block.start_pc + block.count * ILEN, ILEN)),
                program.dst[first:end],
                program.src1[first:end],
                program.src2[first:end],
                [1 if k == LOAD else 0 for k in kinds],
                [1 if k == STORE else 0 for k in kinds],
                [0] * block.count,
                [
                    (k, block.start_pc + k * ILEN, mem_table[m])
                    for k, m in enumerate(program.mem[first:end])
                    if m >= 0
                ],
            )
            self._body_cache[block.start_pc] = tpl
        pcs, dsts, src1s, src2s, loads, stores, zeros, mem_insts = tpl
        if not pcs:
            return
        trace.pc.extend(pcs)
        trace.btype.extend(zeros)
        trace.taken.extend(zeros)
        trace.target.extend(zeros)
        trace.dst.extend(dsts)
        trace.src1.extend(src1s)
        trace.src2.extend(src2s)
        trace.is_load.extend(loads)
        trace.is_store.extend(stores)
        if not mem_insts:
            trace.maddr.extend(zeros)
            return
        # Memory addresses are visit- and RNG-dependent; computing them in
        # static-instruction order preserves the exact RNG call sequence of
        # the per-instruction walker, so traces stay bit-identical.
        maddr_col = [0] * len(pcs)
        visit_count = self._visit_count
        rng = self.rng
        for off, pc, mem in mem_insts:
            visit = visit_count.get(pc, 0)
            visit_count[pc] = visit + 1
            maddr_col[off] = mem.address(visit, rng)
        trace.maddr.extend(maddr_col)

    def _run_block(self, block: Block, stack: List[int], trace: Trace, length: int) -> Block:
        """Execute one block; return the successor block."""
        self._emit_body(block, trace)
        term = block.term_type
        if term == BranchType.NONE:
            return self._block_at(block.end_pc)

        term_pc = block.term_pc
        if term == BranchType.COND_DIRECT:
            taken = block.cond_behavior.outcome(self.rng)
            target = block.taken_target if taken else 0
            trace.append(pc=term_pc, btype=term, taken=taken, target=target)
            if taken:
                return self._block_at(block.taken_target)
            return self._block_at(block.end_pc)

        if term == BranchType.UNCOND_DIRECT:
            trace.append(pc=term_pc, btype=term, taken=True, target=block.taken_target)
            return self._block_at(block.taken_target)

        if term == BranchType.CALL_DIRECT:
            trace.append(pc=term_pc, btype=term, taken=True, target=block.taken_target)
            return self._enter_call(block, stack, block.taken_target)

        if term == BranchType.CALL_INDIRECT:
            target = block.indirect_behavior.next_target(self.rng)
            trace.append(pc=term_pc, btype=term, taken=True, target=target)
            return self._enter_call(block, stack, target)

        if term == BranchType.INDIRECT:
            target = block.indirect_behavior.next_target(self.rng)
            trace.append(pc=term_pc, btype=term, taken=True, target=target)
            return self._block_at(target)

        if term == BranchType.RETURN:
            if stack:
                return_pc = stack.pop()
                trace.append(pc=term_pc, btype=term, taken=True, target=return_pc)
                return self._block_at(return_pc)
            # Top-level return: restart the server loop at program entry.
            entry_pc = self.program.entry.entry_pc
            trace.append(pc=term_pc, btype=term, taken=True, target=entry_pc)
            return self._block_at(entry_pc)

        raise AssertionError(f"unhandled terminator {term!r}")

    def _enter_call(self, block: Block, stack: List[int], callee_pc: int) -> Block:
        if len(stack) >= MAX_CALL_DEPTH:
            raise RuntimeError("call depth exceeded; program generation is broken")
        stack.append(block.end_pc)
        return self._block_at(callee_pc)

    def _block_at(self, pc: int) -> Block:
        block = self.program.block_at.get(pc)
        if block is None:
            raise KeyError(f"no block at pc {pc:#x}; CFG targets are inconsistent")
        return block


def synthesize_trace(program: Program, length: int, seed: int = 7, name: str = "synth") -> Trace:
    """One-shot helper: walk *program* for *length* instructions."""
    return TraceSynthesizer(program, seed=seed).synthesize(length, name=name)
