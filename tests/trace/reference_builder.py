"""The one-draw-at-a-time program builder: the executable specification
of the generator's draw order.

``repro.trace.cfg.ProgramBuilder`` draws every block body at once from a
numpy block of upcoming SplitMix draws; this is the builder it must
equal, kept as it was written before that: one ``StaticInst`` and one
``MemBehavior`` per instruction, each draw taken in turn from the scalar
SplitMix64 of ``tests/common/test_rng.py``, and a heat-weighted callee
pick by ``weighted_choice``'s linear scan. ``body_draws`` records where
the body pass ended, so a test can check that the terminator pass starts
on the same draw.

``ReferenceSynthesizer`` is the trace walker as it was written before
``repro.trace.synth`` assembled traces from the walk in numpy: it walks
such a program on the scalar SplitMix64, appending one instruction at a
time to a list-column ``Trace`` and cutting it at the length at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.types import ILEN, BranchType
from repro.trace.behavior import (
    AlwaysTaken,
    BiasedRandom,
    CondBehavior,
    IndirectBehavior,
    LoopBranch,
    NeverTaken,
    PatternBranch,
)
from repro.trace.cfg import (
    CODE_BASE,
    HEAP_BASE,
    STACK_BASE,
    Function,
    MemBehavior,
    Program,
    ProgramSpec,
    StaticInst,
)
from repro.trace.trace import Trace

from tests.common.test_rng import ScalarSplitMix

#: The walker's cap on call depth.
MAX_CALL_DEPTH = 64


@dataclass
class RefBlock:
    """A block that owns its instruction list."""

    start_pc: int
    insts: List[StaticInst]
    term_type: BranchType = BranchType.NONE
    taken_target: int = 0
    cond_behavior: Optional[CondBehavior] = None
    indirect_behavior: Optional[IndirectBehavior] = None

    @property
    def ninsts(self) -> int:
        return len(self.insts) + (1 if self.term_type != BranchType.NONE else 0)

    @property
    def term_pc(self) -> int:
        return self.start_pc + len(self.insts) * ILEN

    @property
    def end_pc(self) -> int:
        return self.start_pc + self.ninsts * ILEN


class ReferenceSynthesizer:
    """The trace walker emitting one instruction at a time, over a program
    of :class:`RefBlock` functions (see :func:`reference_program`)."""

    def __init__(self, program: Program, seed: int = 7) -> None:
        self.program = program
        self.rng = ScalarSplitMix(seed)
        self._visit_count: Dict[int, int] = {}
        for function in program.functions:
            for block in function.blocks:
                if block.cond_behavior is not None:
                    block.cond_behavior.reset()
                if block.indirect_behavior is not None:
                    block.indirect_behavior.reset()

    def synthesize(self, length: int, name: str = "synth") -> Trace:
        if length <= 0:
            raise ValueError("length must be positive")
        trace = Trace(name=name)
        block = self.program.entry.blocks[0]
        stack: List[int] = []
        while len(trace) < length:
            block = self._run_block(block, stack, trace)
        out = trace.slice(0, length)
        out.name = name
        return out

    def _emit_body(self, block: RefBlock, trace: Trace) -> None:
        for inst in block.insts:
            maddr = 0
            if inst.mem is not None:
                visit = self._visit_count.get(inst.pc, 0)
                self._visit_count[inst.pc] = visit + 1
                maddr = inst.mem.address(visit, self.rng)
            trace.append(
                pc=inst.pc,
                dst=inst.dst,
                src1=inst.src1,
                src2=inst.src2,
                is_load=inst.kind == "load",
                is_store=inst.kind == "store",
                maddr=maddr,
            )

    def _run_block(self, block: RefBlock, stack: List[int], trace: Trace) -> RefBlock:
        self._emit_body(block, trace)
        term = block.term_type
        if term == BranchType.NONE:
            return self._block_at(block.end_pc)
        term_pc = block.term_pc
        if term == BranchType.COND_DIRECT:
            taken = block.cond_behavior.outcome(self.rng)
            target = block.taken_target if taken else 0
            trace.append(pc=term_pc, btype=term, taken=taken, target=target)
            return self._block_at(block.taken_target if taken else block.end_pc)
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
            target = stack.pop() if stack else self.program.entry.entry_pc
            trace.append(pc=term_pc, btype=term, taken=True, target=target)
            return self._block_at(target)
        raise AssertionError(f"unhandled terminator {term!r}")

    def _enter_call(self, block: RefBlock, stack: List[int], callee_pc: int) -> RefBlock:
        if len(stack) >= MAX_CALL_DEPTH:
            raise RuntimeError("call depth exceeded; program generation is broken")
        stack.append(block.end_pc)
        return self._block_at(callee_pc)

    def _block_at(self, pc: int) -> RefBlock:
        return self.program.block_at[pc]


def reference_program(spec: ProgramSpec) -> Program:
    """The reference builder's program, for :class:`ReferenceSynthesizer`."""
    program = Program(functions=ReferenceBuilder(spec).build())
    program.finalize()
    return program


class ReferenceBuilder:
    """Builds the functions of :func:`repro.trace.cfg.build_program`'s
    program, with every instruction as a :class:`StaticInst`."""

    def __init__(self, spec: ProgramSpec) -> None:
        self.spec = spec
        self.rng = ScalarSplitMix(spec.seed)
        self.body_draws = 0
        self._recent_dsts: List[int] = []
        self._hot_regions = [
            (HEAP_BASE + i * (1 << 16), self.rng.choice([4096, 8192, 16384]))
            for i in range(10)
        ]
        self._warm_regions = [
            (HEAP_BASE + (1 << 21) + i * (1 << 19), self.rng.choice([1 << 16, 1 << 17]))
            for i in range(6)
        ]

    # -- instruction bodies ---------------------------------------------------

    def _make_body(self, pc: int, count: int, func_index: int) -> List[StaticInst]:
        spec = self.spec
        uniform, randint, choice = self.rng.uniform, self.rng.randint, self.rng.choice
        recent = self._recent_dsts
        load_cut = spec.p_load
        store_cut = load_cut + spec.p_store
        mul_cut = store_cut + spec.p_mul
        insts = []
        for k in range(count):
            roll = uniform()
            dst = randint(1, 31)
            # Sources read a recent destination 60 % of the time.
            src1 = choice(recent) if recent and uniform() < 0.6 else randint(0, 31)
            src2 = choice(recent) if recent and uniform() < 0.6 else randint(0, 31)
            mem = None
            if roll < load_cut:
                kind = "load"
                mem = self._make_mem(func_index)
            elif roll < store_cut:
                kind = "store"
                mem = self._make_mem(func_index)
                dst = -1
            elif roll < mul_cut:
                kind = "mul"
            else:
                kind = "alu"
            if dst >= 0:
                recent.append(dst)
                if len(recent) > 8:
                    recent.pop(0)
            insts.append(StaticInst(pc + k * ILEN, kind, dst, src1, src2, mem))
        return insts

    def _make_mem(self, func_index: int) -> MemBehavior:
        spec = self.spec
        roll = self.rng.uniform()
        if roll < 0.55:
            base = STACK_BASE + func_index * spec.stack_frame
            return MemBehavior(base=base, stride=8, span=spec.stack_frame)
        if roll < 0.88:
            base, span = self.rng.choice(self._hot_regions)
            stride = self.rng.choice([8, 8, 16, 64])
            return MemBehavior(base=base, stride=stride, span=span, p_random=0.02)
        if roll < 0.985:
            base, span = self.rng.choice(self._warm_regions)
            stride = self.rng.choice([16, 64])
            return MemBehavior(base=base, stride=stride, span=span, p_random=0.02)
        return MemBehavior(
            base=HEAP_BASE + (3 << 22),
            stride=64,
            span=min(spec.heap_span, 1 << 20),
            p_random=max(0.3, spec.p_mem_random),
        )

    # -- behaviours ------------------------------------------------------------

    def _make_cond_behavior(self, is_backward: bool) -> CondBehavior:
        spec = self.spec
        if is_backward:
            jitter = 0 if self.rng.uniform() < 0.85 else spec.loop_trips_jitter
            return LoopBranch(
                mean_trips=max(2, self.rng.randint(2, spec.loop_trips_mean)),
                jitter=jitter,
            )
        kind = self.rng.weighted_choice(
            ["never", "always", "pattern", "random"],
            [spec.w_never_taken, spec.w_always_taken, spec.w_pattern, spec.w_random],
        )
        if kind == "never":
            return NeverTaken()
        if kind == "always":
            return AlwaysTaken()
        if kind == "pattern":
            length = self.rng.randint(2, 6)
            pattern = [self.rng.uniform() < 0.5 for _ in range(length)]
            if not any(pattern):
                pattern[0] = True
            return PatternBranch(pattern)
        return BiasedRandom(spec.random_bias if self.rng.uniform() < 0.5 else 1 - spec.random_bias)

    # -- whole-program construction ---------------------------------------------

    def build(self) -> List[Function]:
        spec = self.spec
        levels = [0] + [self.rng.randint(1, spec.n_levels - 1) for _ in range(1, spec.n_functions)]
        ranks = list(range(1, len(levels) + 1))
        for i in range(len(levels) - 1, 0, -1):
            j = self.rng.randint(0, i)
            ranks[i], ranks[j] = ranks[j], ranks[i]
        heats = [1.0 / (rank ** spec.heat_exponent) for rank in ranks]
        functions: List[Function] = []
        pc = CODE_BASE
        for index, level in enumerate(levels):
            func = Function(name=f"fn{index:03d}", level=level, heat=heats[index])
            if index == 0:
                n_blocks = spec.dispatch_sites + 2
            else:
                n_blocks = max(3, self.rng.geometric(spec.blocks_per_function_mean))
            for _ in range(n_blocks):
                body = min(spec.block_body_max, max(1, self.rng.geometric(spec.block_body_mean)))
                block = RefBlock(start_pc=pc, insts=self._make_body(pc, body, index))
                func.blocks.append(block)
                pc = block.start_pc + (body + 1) * ILEN
            functions.append(func)
            pc += self.rng.randint(0, spec.function_gap_max) * ILEN
        self.body_draws = self.rng.draws
        self._build_dispatcher(functions[0], functions)
        for func in functions[1:]:
            self._assign_terminators(func, functions)
        self._relayout(functions)
        return functions

    def _pick_callee(self, functions: List[Function], level: int) -> int:
        callees = [f for f in functions if f.level > level]
        return self.rng.weighted_choice([f.entry_pc for f in callees], [f.heat for f in callees])

    def _build_dispatcher(self, entry: Function, functions: List[Function]) -> None:
        spec = self.spec
        handlers = [f.entry_pc for f in functions if f.level > entry.level]
        if not handlers:
            raise ValueError("program needs at least one non-entry function")
        blocks = entry.blocks
        n = len(blocks)
        for bi, block in enumerate(blocks):
            if bi == n - 1:
                block.term_type = BranchType.RETURN
            elif bi == n - 2:
                block.term_type = BranchType.COND_DIRECT
                block.taken_target = blocks[0].start_pc
                block.cond_behavior = LoopBranch(mean_trips=12, jitter=4)
            else:
                block.term_type = BranchType.CALL_INDIRECT
                fanout = min(len(handlers), spec.dispatch_fanout)
                picked = [self._pick_callee(functions, entry.level) for _ in range(fanout)]
                if len(set(picked)) == 1:
                    block.indirect_behavior = IndirectBehavior(
                        [picked[0]], IndirectBehavior.SINGLE
                    )
                else:
                    block.indirect_behavior = IndirectBehavior(
                        picked, IndirectBehavior.STICKY, sticky_runs=8
                    )

    def _assign_terminators(self, func: Function, functions: List[Function]) -> None:
        spec = self.spec
        n = len(func.blocks)
        callees = [f.entry_pc for f in functions if f.level > func.level]
        loops_left = spec.max_loops_per_function
        for bi, block in enumerate(func.blocks):
            if bi == n - 1:
                block.term_type = BranchType.RETURN
                continue
            weights = [
                spec.w_plain,
                spec.w_cond,
                spec.w_jump if bi + 2 < n else 0.0,
                spec.w_call if callees else 0.0,
                spec.w_indirect_jump if bi + 2 < n else 0.0,
                spec.w_indirect_call if callees else 0.0,
            ]
            choice = self.rng.weighted_choice(
                ["plain", "cond", "jump", "call", "ijump", "icall"], weights
            )
            if choice == "plain":
                block.term_type = BranchType.NONE
            elif choice == "cond":
                block.term_type = BranchType.COND_DIRECT
                backward = bi > 0 and loops_left > 0 and self.rng.uniform() < spec.p_backward
                if backward:
                    loops_left -= 1
                    target_block = func.blocks[self.rng.randint(max(0, bi - 6), bi - 1)]
                else:
                    target_block = func.blocks[self.rng.randint(bi + 1, min(n - 1, bi + 6))]
                block.taken_target = target_block.start_pc
                block.cond_behavior = self._make_cond_behavior(backward)
            elif choice == "jump":
                target_block = func.blocks[self.rng.randint(bi + 2, min(n - 1, bi + 8))]
                block.term_type = BranchType.UNCOND_DIRECT
                block.taken_target = target_block.start_pc
            elif choice == "call":
                block.term_type = BranchType.CALL_DIRECT
                block.taken_target = self._pick_callee(functions, func.level)
            elif choice == "ijump":
                block.term_type = BranchType.INDIRECT
                block.indirect_behavior = self._make_indirect(
                    [b.start_pc for b in func.blocks[bi + 1 :]]
                )
            else:
                block.term_type = BranchType.CALL_INDIRECT
                block.indirect_behavior = self._make_indirect(callees)

    def _make_indirect(self, candidates: List[int]) -> IndirectBehavior:
        spec = self.spec
        mode = self.rng.weighted_choice(
            [IndirectBehavior.SINGLE, IndirectBehavior.ROUND_ROBIN, IndirectBehavior.RANDOM],
            [spec.w_ind_single, spec.w_ind_round_robin, spec.w_ind_random],
        )
        if mode == IndirectBehavior.SINGLE or len(candidates) == 1:
            return IndirectBehavior([self.rng.choice(candidates)], IndirectBehavior.SINGLE)
        fanout = min(len(candidates), self.rng.randint(2, spec.indirect_fanout_max))
        picked = []
        pool = list(candidates)
        for _ in range(fanout):
            choice = self.rng.choice(pool)
            pool.remove(choice)
            picked.append(choice)
        if mode == IndirectBehavior.RANDOM:
            return IndirectBehavior(picked, IndirectBehavior.STICKY, sticky_runs=6)
        return IndirectBehavior(picked, mode)

    def _relayout(self, functions: List[Function]) -> None:
        old_to_new: Dict[int, int] = {}
        pc = CODE_BASE
        for func in functions:
            for block in func.blocks:
                old_to_new[block.start_pc] = pc
                new_start = pc
                for k, inst in enumerate(block.insts):
                    inst.pc = new_start + k * ILEN
                block.start_pc = new_start
                pc = block.end_pc
            pc += self.rng.randint(0, self.spec.function_gap_max) * ILEN
        for func in functions:
            for block in func.blocks:
                if block.taken_target:
                    block.taken_target = old_to_new[block.taken_target]
                if block.indirect_behavior is not None:
                    block.indirect_behavior.targets = [
                        old_to_new[t] for t in block.indirect_behavior.targets
                    ]
