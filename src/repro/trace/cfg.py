"""Static program model and synthetic CFG generator.

A :class:`Program` is a set of functions laid out in a flat address space;
each function is an ordered list of basic blocks; each block carries its
straight-line instructions and one terminator. The generator produces
programs with datacenter-server shape: a top-level dispatch loop calling
into layered handler functions (acyclic call graph, so recursion never
overflows the walker), loops, guard branches, switch-style indirect jumps
and virtual-call-style indirect calls.

The paper's workloads are opaque CVP-1 binaries; what matters for BTB
organization studies is the *distribution* of block sizes, branch kinds
and footprint — those are the generator's explicit knobs (see
:class:`ProgramSpec`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional

from repro.common.rng import SplitMix
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

#: Base address of generated code.
CODE_BASE = 0x100000

#: Base address of the global data heap.
HEAP_BASE = 0x10_000000

#: Base address of the stack region.
STACK_BASE = 0x7F_000000


@dataclass
class MemBehavior:
    """Address pattern of one static load/store."""

    base: int
    stride: int
    span: int
    p_random: float = 0.0

    def address(self, visit: int, rng: SplitMix) -> int:
        """Address of the *visit*-th dynamic execution."""
        if self.p_random > 0.0 and rng.uniform() < self.p_random:
            return self.base + (rng.next_u64() % max(self.span, 8)) // 8 * 8
        return self.base + (visit * self.stride) % max(self.span, 8)


@dataclass
class StaticInst:
    """One static non-terminator instruction."""

    pc: int
    kind: str  # 'alu' | 'mul' | 'load' | 'store'
    dst: int
    src1: int
    src2: int
    mem: Optional[MemBehavior] = None


@dataclass
class Block:
    """A basic block: straight-line body plus one terminator.

    ``term_type`` is ``BranchType.NONE`` for plain fall-through blocks
    (the block simply continues into the next one without a branch).
    """

    start_pc: int
    insts: List[StaticInst]
    term_type: BranchType = BranchType.NONE
    taken_target: int = 0
    cond_behavior: Optional[CondBehavior] = None
    indirect_behavior: Optional[IndirectBehavior] = None

    @property
    def ninsts(self) -> int:
        """Total instructions including the terminator (if any)."""
        return len(self.insts) + (1 if self.term_type != BranchType.NONE else 0)

    @property
    def term_pc(self) -> int:
        """PC of the terminator (only meaningful when one exists)."""
        return self.start_pc + len(self.insts) * ILEN

    @property
    def end_pc(self) -> int:
        """First PC after the block."""
        return self.start_pc + self.ninsts * ILEN


@dataclass
class Function:
    """An ordered list of blocks; entry is the first block.

    ``heat`` is the function's Zipf-style popularity weight: hot functions
    attract more call sites, reproducing the hot/cold code split of server
    binaries (a hot path that fits no L1 structure entirely, plus a long
    cold tail).
    """

    name: str
    level: int
    heat: float = 1.0
    blocks: List[Block] = field(default_factory=list)

    @property
    def entry_pc(self) -> int:
        return self.blocks[0].start_pc


@dataclass
class Program:
    """Complete static program: functions plus a block address map."""

    functions: List[Function]
    block_at: Dict[int, Block] = field(default_factory=dict)

    def finalize(self) -> None:
        """(Re)build the block address index."""
        self.block_at = {
            block.start_pc: block
            for function in self.functions
            for block in function.blocks
        }

    @property
    def entry(self) -> Function:
        return self.functions[0]

    def static_instructions(self) -> int:
        """Total static instruction count."""
        return sum(b.ninsts for f in self.functions for b in f.blocks)


@dataclass
class ProgramSpec:
    """Knobs of the synthetic program generator.

    Defaults approximate the CVP-1 server-trace statistics the paper
    reports (mean dynamic basic-block size ≈ 9.4, ≈ 35 % never-taken
    conditionals, ≈ 9 % single-target indirects, footprints well beyond a
    32 KB L1I).
    """

    seed: int = 1
    n_functions: int = 220
    n_levels: int = 6
    blocks_per_function_mean: int = 16
    block_body_mean: float = 4.4
    block_body_max: int = 14
    #: Zipf exponent of the function-popularity distribution.
    heat_exponent: float = 1.2
    #: Maximum backward (loop) conditional edges per function.
    max_loops_per_function: int = 2
    #: Probability that a conditional edge is a backward loop edge.
    p_backward: float = 0.12
    #: Entry-function dispatcher: number of indirect-call sites and the
    #: fan-out of each (how many handler functions each site can reach).
    dispatch_sites: int = 3
    dispatch_fanout: int = 24
    #: Fraction of dispatch sites cycling round-robin (history-learnable)
    #: rather than picking randomly (data-dependent, unpredictable).
    dispatch_round_robin: float = 0.67
    # Terminator mix (relative weights; last block of a function returns).
    w_plain: float = 0.16
    w_cond: float = 0.52
    w_jump: float = 0.08
    w_call: float = 0.17
    w_indirect_jump: float = 0.04
    w_indirect_call: float = 0.03
    # Conditional behaviour mix.
    w_never_taken: float = 0.45
    w_always_taken: float = 0.24
    w_loop: float = 0.20
    w_pattern: float = 0.05
    w_random: float = 0.04
    loop_trips_mean: int = 10
    loop_trips_jitter: int = 1
    random_bias: float = 0.90
    # Indirect behaviour mix.
    w_ind_single: float = 0.85
    w_ind_round_robin: float = 0.10
    w_ind_random: float = 0.05
    indirect_fanout_max: int = 4
    # Instruction mix of block bodies.
    p_load: float = 0.27
    p_store: float = 0.11
    p_mul: float = 0.05
    # Data side.
    heap_span: int = 1 << 22
    stack_frame: int = 256
    p_mem_random: float = 0.08
    # Layout: random gap (in instructions) inserted between functions.
    function_gap_max: int = 8


class _Callees:
    """The functions callable from one call-graph level (the strictly
    deeper ones), ready for heat-weighted picks."""

    __slots__ = ("pcs", "_cum_heats", "_total")

    def __init__(self, functions: List[Function], level: int) -> None:
        callees = [f for f in functions if f.level > level]
        heats = [f.heat for f in callees]
        self.pcs = [f.entry_pc for f in callees]
        self._cum_heats = list(accumulate(heats))
        self._total = float(sum(heats))

    def pick(self, rng: SplitMix) -> int:
        """Entry PC of a heat-weighted pick: what
        ``rng.weighted_choice(pcs, heats)`` returns (same draw, same
        total, same running sums), found by bisection."""
        index = bisect_right(self._cum_heats, rng.uniform() * self._total)
        return self.pcs[index] if index < len(self.pcs) else self.pcs[-1]


class ProgramBuilder:
    """Generates a :class:`Program` from a :class:`ProgramSpec`."""

    def __init__(self, spec: ProgramSpec) -> None:
        self.spec = spec
        self.rng = SplitMix(spec.seed)
        self._recent_dsts: List[int] = []
        self._callees_at: Dict[int, _Callees] = {}
        # Shared data regions (see _make_mem): (base, span_bytes).
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
        make_mem = self._make_mem
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
                mem = make_mem(func_index)
            elif roll < store_cut:
                kind = "store"
                mem = make_mem(func_index)
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
        """Memory behaviour mix of server code: mostly stack frames and
        shared hot heap structures (cache-resident), a warm tier, and a
        small cold/random tail that produces the DRAM-bound loads."""
        spec = self.spec
        roll = self.rng.uniform()
        if roll < 0.55:
            # Stack-frame access: tiny span, always hits.
            base = STACK_BASE + func_index * spec.stack_frame
            return MemBehavior(base=base, stride=8, span=spec.stack_frame)
        if roll < 0.88:
            # Hot shared structure: many static loads share few regions,
            # so lines are reused across the whole program.
            base, span = self.rng.choice(self._hot_regions)
            stride = self.rng.choice([8, 8, 16, 64])
            return MemBehavior(base=base, stride=stride, span=span, p_random=0.02)
        if roll < 0.985:
            # Warm tier: larger shared tables, mostly L2/LLC resident.
            base, span = self.rng.choice(self._warm_regions)
            stride = self.rng.choice([16, 64])
            return MemBehavior(base=base, stride=stride, span=span, p_random=0.02)
        # Cold tail: random pointer chases over a big span.
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
            # Most loops have a stable trip count (predictable exit once
            # the history tables train); a minority jitter per entry.
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

    def build(self) -> Program:
        """Generate the full program."""
        spec = self.spec
        levels = self._assign_levels()
        functions: List[Function] = []
        pc = CODE_BASE
        # First pass: create blocks with bodies, leaving terminators open.
        heats = self._assign_heats(len(levels))
        for index, level in enumerate(levels):
            func = Function(name=f"fn{index:03d}", level=level, heat=heats[index])
            if index == 0:
                # The dispatcher needs one block per call site, a loop
                # back-edge block and a return block.
                n_blocks = spec.dispatch_sites + 2
            else:
                n_blocks = max(3, self.rng.geometric(spec.blocks_per_function_mean))
            for _ in range(n_blocks):
                body = min(spec.block_body_max, max(1, self.rng.geometric(spec.block_body_mean)))
                block = Block(start_pc=pc, insts=self._make_body(pc, body, index))
                func.blocks.append(block)
                # Reserve one slot for a potential terminator.
                pc = block.start_pc + (body + 1) * ILEN
            functions.append(func)
            pc += self.rng.randint(0, spec.function_gap_max) * ILEN
        # Second pass: assign terminators now that all entry PCs exist.
        self._build_dispatcher(functions[0], functions)
        for func in functions[1:]:
            self._assign_terminators(func, functions)
        # Third pass: compact PCs (blocks without terminators shrank by one slot).
        self._relayout(functions)
        program = Program(functions=functions)
        program.finalize()
        return program

    def _assign_levels(self) -> List[int]:
        """Function call-graph levels; calls only go to strictly deeper levels."""
        spec = self.spec
        levels = [0]
        for _ in range(1, spec.n_functions):
            levels.append(self.rng.randint(1, spec.n_levels - 1))
        return levels

    def _assign_heats(self, count: int) -> List[float]:
        """Zipf-style popularity weights, shuffled across function indices."""
        ranks = list(range(1, count + 1))
        # Fisher–Yates shuffle with our deterministic RNG.
        for i in range(count - 1, 0, -1):
            j = self.rng.randint(0, i)
            ranks[i], ranks[j] = ranks[j], ranks[i]
        return [1.0 / (rank ** self.spec.heat_exponent) for rank in ranks]

    def _build_dispatcher(self, entry: Function, functions: List[Function]) -> None:
        """Turn the entry function into a server request-dispatch loop.

        Each of the first ``dispatch_sites`` blocks ends with an indirect
        call that selects (data-dependent, i.e. randomly) among a wide
        fan-out of handler functions; one loop back-edge repeats the
        dispatch several times per "request batch"; the final block
        returns (which restarts the walk at the entry). This is what
        spreads dynamic execution across the whole binary, like the
        server workloads the paper targets.
        """
        spec = self.spec
        handlers = self._callees(functions, entry.level)
        if not handlers.pcs:
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
                fanout = min(len(handlers.pcs), spec.dispatch_fanout)
                # Heat-weighted sample *with replacement*: hot handlers
                # appear several times in the target list, so the uniform
                # dynamic pick reproduces the hot/cold execution split.
                picked = [handlers.pick(self.rng) for _ in range(fanout)]
                if len(set(picked)) == 1:
                    block.indirect_behavior = IndirectBehavior(
                        [picked[0]], IndirectBehavior.SINGLE
                    )
                else:
                    # Sticky dispatch: batches of similar requests keep
                    # hitting the same handler before switching.
                    block.indirect_behavior = IndirectBehavior(
                        picked, IndirectBehavior.STICKY, sticky_runs=8
                    )

    def _callees(self, functions: List[Function], level: int) -> _Callees:
        callees = self._callees_at.get(level)
        if callees is None:
            callees = self._callees_at[level] = _Callees(functions, level)
        return callees

    def _assign_terminators(self, func: Function, functions: List[Function]) -> None:
        spec = self.spec
        n = len(func.blocks)
        callees = self._callees(functions, func.level)
        loops_left = spec.max_loops_per_function
        for bi, block in enumerate(func.blocks):
            if bi == n - 1:
                block.term_type = BranchType.RETURN
                continue
            weights = [
                spec.w_plain,
                spec.w_cond,
                spec.w_jump if bi + 2 < n else 0.0,
                spec.w_call if callees.pcs else 0.0,
                spec.w_indirect_jump if bi + 2 < n else 0.0,
                spec.w_indirect_call if callees.pcs else 0.0,
            ]
            choice = self.rng.weighted_choice(
                ["plain", "cond", "jump", "call", "ijump", "icall"], weights
            )
            if choice == "plain":
                block.term_type = BranchType.NONE
            elif choice == "cond":
                block.term_type = BranchType.COND_DIRECT
                # Backward (loop) edges with bounded probability and a
                # per-function cap, so nested loops cannot trap the walker.
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
                block.taken_target = callees.pick(self.rng)
            elif choice == "ijump":
                block.term_type = BranchType.INDIRECT
                block.indirect_behavior = self._make_indirect(
                    [b.start_pc for b in func.blocks[bi + 1 :]]
                )
            else:  # icall
                block.term_type = BranchType.CALL_INDIRECT
                block.indirect_behavior = self._make_indirect(callees.pcs)

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
            # Data-dependent multi-target jumps still show phase locality.
            return IndirectBehavior(picked, IndirectBehavior.STICKY, sticky_runs=6)
        return IndirectBehavior(picked, mode)

    def _relayout(self, functions: List[Function]) -> None:
        """Re-pack blocks to final PCs and retarget branches.

        The first pass reserved a terminator slot in every block; plain
        fall-through blocks give it back here, so the address map must be
        rebuilt and every ``taken_target`` / indirect target remapped.
        """
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


def build_program(spec: ProgramSpec) -> Program:
    """Convenience wrapper: generate a program from *spec*."""
    return ProgramBuilder(spec).build()
