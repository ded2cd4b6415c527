"""Static program model and synthetic CFG generator.

A :class:`Program` is a set of functions laid out in a flat address space;
each function is an ordered list of basic blocks; each block owns a run
of straight-line instructions and one terminator. The generator produces
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
from math import floor
from typing import Dict, List, Optional, Union

import numpy as np

from repro.common.rng import GAMMA, MASK64, SplitMix, draws
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
from repro.trace.trace import narrow_ints

#: Base address of generated code.
CODE_BASE = 0x100000

#: Base address of the global data heap.
HEAP_BASE = 0x10_000000

#: Base address of the stack region.
STACK_BASE = 0x7F_000000

#: Instruction kinds, indexed by the codes of ``Program.kind``.
KINDS = ("alu", "mul", "load", "store")
ALU, MUL, LOAD, STORE = range(4)

_TWO64 = float(1 << 64)


@dataclass
class MemBehavior:
    """Address pattern of one static load/store."""

    base: int
    stride: int
    span: int
    p_random: float = 0.0

    def address(self, visit: int, rng: SplitMix) -> int:
        """Address of the *visit*-th dynamic execution. (The trace walker
        computes the same addresses in numpy, drawing only where this
        draws; ``tests/trace/reference_builder.py``'s walker calls this.)"""
        if self.p_random > 0.0 and rng.uniform() < self.p_random:
            return self.base + (rng.next_u64() % max(self.span, 8)) // 8 * 8
        return self.base + (visit * self.stride) % max(self.span, 8)


@dataclass
class StaticInst:
    """One static non-terminator instruction (see :meth:`Program.body`)."""

    pc: int
    kind: str  # 'alu' | 'mul' | 'load' | 'store'
    dst: int
    src1: int
    src2: int
    mem: Optional[MemBehavior] = None


@dataclass
class Block:
    """A basic block: straight-line body plus one terminator.

    The body is rows ``first`` … ``first + count - 1`` of the program's
    instruction columns, at PCs ``start_pc + k * ILEN``, and the
    terminator follows it, at ``start_pc + count * ILEN``.
    ``term_type`` is ``BranchType.NONE`` for plain fall-through blocks
    (the block simply continues into the next one without a branch).
    """

    start_pc: int
    first: int = 0
    count: int = 0
    term_type: BranchType = BranchType.NONE
    taken_target: int = 0
    cond_behavior: Optional[CondBehavior] = None
    indirect_behavior: Optional[IndirectBehavior] = None

    @property
    def ninsts(self) -> int:
        """Total instructions including the terminator (if any)."""
        return self.count + (1 if self.term_type != BranchType.NONE else 0)

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


def _no_rows() -> np.ndarray:
    return np.zeros(0, dtype=np.int8)


@dataclass(eq=False)
class Program:
    """Complete static program: functions, a block address map, and
    every block body as flat per-instruction columns.

    Row i of the columns is one instruction: ``kind[i]`` indexes
    :data:`KINDS`, ``dst[i]`` is −1 for stores, and ``mem[i]`` indexes
    ``mem_table`` (−1: no memory access). Many instructions share a
    :class:`MemBehavior`, so the table holds each one once. The columns
    are numpy arrays of the narrowest integer type that holds them;
    :meth:`body` reads them as Python ints.
    """

    functions: List[Function]
    kind: np.ndarray = field(default_factory=_no_rows)
    dst: np.ndarray = field(default_factory=_no_rows)
    src1: np.ndarray = field(default_factory=_no_rows)
    src2: np.ndarray = field(default_factory=_no_rows)
    mem: np.ndarray = field(default_factory=_no_rows)
    mem_table: List[MemBehavior] = field(default_factory=list)
    block_at: Dict[int, Block] = field(default_factory=dict)
    #: Every block's behaviour objects, which a walk resets.
    behaviors: List[Union[CondBehavior, IndirectBehavior]] = field(default_factory=list)

    def finalize(self) -> None:
        """(Re)build the block address index and the behaviour list."""
        blocks = [block for function in self.functions for block in function.blocks]
        self.block_at = {block.start_pc: block for block in blocks}
        self.behaviors = [
            behavior
            for block in blocks
            for behavior in (block.cond_behavior, block.indirect_behavior)
            if behavior is not None
        ]

    @property
    def entry(self) -> Function:
        return self.functions[0]

    def static_instructions(self) -> int:
        """Total static instruction count."""
        return sum(b.ninsts for f in self.functions for b in f.blocks)

    def body(self, block: Block) -> List[StaticInst]:
        """*block*'s instructions as fresh :class:`StaticInst` records: a
        read-only view of the columns for inspection, not for hot paths."""
        mems = self.mem_table
        rows = slice(block.first, block.first + block.count)
        return [
            StaticInst(
                block.start_pc + k * ILEN,
                KINDS[kind],
                dst,
                src1,
                src2,
                mems[mem] if mem >= 0 else None,
            )
            for k, (kind, dst, src1, src2, mem) in enumerate(
                zip(*(column[rows].tolist() for column in
                      (self.kind, self.dst, self.src1, self.src2, self.mem)))
            )
        ]


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


# -- the body pass's draws ------------------------------------------------------
#
# An instruction's draws, from its first: the kind roll, the destination,
# then per source a 0.6 roll and the pick (``recent[c % len(recent)]`` on
# a roll below 0.6, else register ``c % 32``), then, for a load or a
# store, the memory roll and, in the hot and warm tiers, a region and a
# stride pick. While no non-store has been drawn yet, the window of recent
# destinations is empty: each source is one ``c % 32`` draw and the
# memory draws move up by two.
_DST, _U1, _C1, _U2, _C2, _MEM = 1, 2, 3, 4, 5, 6
_OPEN_S1, _OPEN_S2, _OPEN_MEM = 2, 3, 4
#: Draws past the last instruction start a gather may read.
_LOOKAHEAD = 16
#: Stride picks of the hot tier (10 regions) and the warm tier (6).
_HOT_STRIDES = (8, 8, 16, 64)
_WARM_STRIDES = (16, 64)
#: Memory-table offsets of the warm tier and the cold entry, past the
#: stack frames (one per function) and the hot tier.
_WARM, _COLD = 10 * len(_HOT_STRIDES), 10 * len(_HOT_STRIDES) + 6 * len(_WARM_STRIDES)


def _cut(below) -> int:
    """Least u64 draw ``d`` for which ``below(d / 2**64)`` is false, where
    *below* is true on a prefix of [0, 1]: the draws below the cut are
    exactly those for which the float test holds (2**64: all of them)."""
    lo, hi = 0, 1 << 64
    while lo < hi:
        mid = (lo + hi) // 2
        if below(mid / _TWO64):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _cut_below(p: float) -> int:
    """The cut of ``uniform() < p``."""
    return _cut(lambda u: u < p)


def _under(values: np.ndarray, cut: int) -> np.ndarray:
    """``values < cut`` for u64 *values* and a cut up to 2**64."""
    if cut > MASK64:
        return np.ones(len(values), dtype=bool)
    return values < np.uint64(cut)


class _Geometric:
    """``SplitMix.geometric(mean)`` over a table of drawn stop flags.

    The draw loop continues while ``u > 1 / mean`` and gives up after
    ``floor(64 * mean)`` continuing draws, so a size is the distance to
    the next stop flag, found with ``bytes.find``, or the cap.
    """

    __slots__ = ("stops", "cap", "_end")

    def __init__(self, mean: float, values: np.ndarray, end: int) -> None:
        if mean < 1.0:
            raise ValueError("mean must be >= 1")
        self._end = end
        self.stops = None
        self.cap = floor(64 * mean)
        if mean != 1.0:
            p = 1.0 / mean
            self.stops = _under(values[:end], _cut(lambda u: not u > p)).tobytes()

    def draw(self, pos: int):
        """``(size, next position)`` for a draw loop starting at *pos*;
        ``None`` when the table ends before the loop does."""
        if self.stops is None:
            return 1, pos
        stop = self.stops.find(1, pos, pos + self.cap)
        if stop >= 0:
            return stop - pos + 1, stop + 1
        if pos + self.cap > self._end:
            return None
        return self.cap + 1, pos + self.cap


class ProgramBuilder:
    """Generates a :class:`Program` from a :class:`ProgramSpec`.

    The body pass draws every block body from one numpy block of
    upcoming draws (draw n is ``mix(seed + n·γ)``, so the block can be
    computed before anything is walked); the terminator pass and the
    relayout then continue on a :class:`SplitMix` positioned after it.
    ``tests/trace/reference_builder.py`` keeps the one-draw-at-a-time
    builder this must equal.
    """

    def __init__(self, spec: ProgramSpec) -> None:
        self.spec = spec
        self.rng = SplitMix(spec.seed)
        #: Draws the body pass ended at (counted from the seed).
        self.body_draws = 0
        self._callees_at: Dict[int, _Callees] = {}
        # Shared data regions (see _mem_table): (base, span_bytes).
        self._hot_regions = [
            (HEAP_BASE + i * (1 << 16), self.rng.choice([4096, 8192, 16384]))
            for i in range(10)
        ]
        self._warm_regions = [
            (HEAP_BASE + (1 << 21) + i * (1 << 19), self.rng.choice([1 << 16, 1 << 17]))
            for i in range(6)
        ]

    # -- instruction bodies ---------------------------------------------------

    def _mem_table(self, n_functions: int) -> List[MemBehavior]:
        """Memory behaviour mix of server code, one entry per distinct
        behaviour: a stack frame per function (tiny span, always hits),
        hot shared structures that many static loads share (lines reused
        across the program), a warm tier of larger tables (mostly L2/LLC
        resident), and a cold tail of random pointer chases over a big
        span that produces the DRAM-bound loads."""
        spec = self.spec
        table = [
            MemBehavior(base=STACK_BASE + i * spec.stack_frame, stride=8, span=spec.stack_frame)
            for i in range(n_functions)
        ]
        table += [
            MemBehavior(base=base, stride=stride, span=span, p_random=0.02)
            for base, span in self._hot_regions
            for stride in _HOT_STRIDES
        ]
        table += [
            MemBehavior(base=base, stride=stride, span=span, p_random=0.02)
            for base, span in self._warm_regions
            for stride in _WARM_STRIDES
        ]
        table.append(
            MemBehavior(
                base=HEAP_BASE + (3 << 22),
                stride=64,
                span=min(spec.heap_span, 1 << 20),
                p_random=max(0.3, spec.p_mem_random),
            )
        )
        return table

    def _draw_estimate(self, n_functions: int) -> int:
        """Draws the body pass is expected to need, with headroom: per
        block, about ``block_body_mean`` size draws and as many
        instructions of 6 draws, plus 1.9 memory draws per load or
        store (0.565·1 + 0.435·3); per function, its block-count draws
        and a gap. A walk that runs out starts again on twice as many."""
        spec = self.spec
        p_mem = min(1.0, max(0.0, spec.p_load + spec.p_store))
        per_block = spec.block_body_mean * (7 + 1.9 * p_mem)
        per_function = (spec.blocks_per_function_mean + 0.5) * per_block
        per_function += spec.blocks_per_function_mean + 1
        return int(1.15 * n_functions * per_function) + 4096

    def _bodies(self, levels: List[int], heats: List[float], start: int) -> Program:
        """The body pass: every function and block with its body, block
        start PCs provisional (a terminator slot reserved in each)."""
        spec = self.spec
        n_functions = len(levels)
        if spec.function_gap_max < 0:
            raise ValueError(f"empty range [0, {spec.function_gap_max}]")
        p_store = spec.p_load + spec.p_store
        cuts = dict(
            load=_cut_below(spec.p_load),
            store=_cut_below(p_store),
            mul=_cut_below(p_store + spec.p_mul),
            stack=_cut_below(0.55),
            hot=_cut_below(0.88),
            warm=_cut_below(0.985),
        )
        need = self._draw_estimate(n_functions)
        while True:
            values = draws(spec.seed, start, need + _LOOKAHEAD)
            walk = self._walk(values, need, n_functions, cuts)
            if walk is not None:
                break
            need *= 2
        starts, n_open, sizes, n_blocks, gap_at, end = walk
        self.body_draws = start + end
        self.rng = SplitMix((spec.seed + (start + end) * GAMMA) & MASK64)

        functions: List[Function] = []
        gaps = (values[gap_at] % np.uint64(spec.function_gap_max + 1)).tolist()
        pc, first, b = CODE_BASE, 0, 0
        for index, level in enumerate(levels):
            func = Function(name=f"fn{index:03d}", level=level, heat=heats[index])
            blocks = func.blocks
            for body in sizes[b : b + n_blocks[index]]:
                blocks.append(Block(pc, first, body))
                first += body
                pc += (body + 1) * ILEN
            b += n_blocks[index]
            functions.append(func)
            pc += gaps[index] * ILEN
        function_of = np.repeat(np.repeat(np.arange(n_functions), n_blocks), sizes)
        program = Program(functions=functions, mem_table=self._mem_table(n_functions))
        starts = np.array(starts, dtype=np.int64)
        self._fill_columns(program, values, starts, n_open, function_of, cuts)
        return program

    def _walk(self, values: np.ndarray, end: int, n_functions: int, cuts):
        """Walk the body pass's draw positions over *values* (usable up to
        *end*): ``(instruction starts, opening instructions, block sizes,
        blocks per function, gap draw positions, draws used)``, or
        ``None`` when *end* draws are not enough. The opening
        instructions are those drawn while the window of recent
        destinations was empty: up to and including the first non-store."""
        spec = self.spec
        cut_load, cut_store = cuts["load"], cuts["store"]
        cut_stack, cut_warm = cuts["stack"], cuts["warm"]
        # Draws a whole instruction takes once the window is open.
        memroll = values[_MEM : end + _MEM]
        tiered = ~_under(memroll, cut_stack) & _under(memroll, cut_warm)
        mem = _under(values[:end], cut_store)
        step = (mem * (1 + 2 * tiered.astype(np.uint8)) + _MEM).astype(np.uint8).tobytes()
        blocks_per_function = _Geometric(spec.blocks_per_function_mean, values, end)
        body_size = _Geometric(spec.block_body_mean, values, end)
        body_max, first_blocks = spec.block_body_max, spec.dispatch_sites + 2

        starts: List[int] = []
        add = starts.append
        sizes: List[int] = []
        n_blocks: List[int] = []
        gap_at: List[int] = []
        pos, n_open = 0, None
        try:
            for index in range(n_functions):
                if index == 0:
                    count = first_blocks
                else:
                    drawn = blocks_per_function.draw(pos)
                    if drawn is None:
                        return None
                    count, pos = drawn
                    count = max(3, count)
                n_blocks.append(count)
                for _ in range(count):
                    drawn = body_size.draw(pos)
                    if drawn is None:
                        return None
                    body, pos = drawn
                    body = min(body_max, max(1, body))
                    sizes.append(body)
                    left = body
                    while n_open is None and left:
                        # The recent-destination window is still empty.
                        if pos >= end:
                            return None
                        add(pos)
                        roll = int(values[pos])
                        if roll < cut_store:
                            mem_roll = int(values[pos + _OPEN_MEM])
                            pos += _OPEN_MEM + (3 if cut_stack <= mem_roll < cut_warm else 1)
                        else:
                            pos += _OPEN_MEM
                        if not cut_load <= roll < cut_store:
                            n_open = len(starts)
                        left -= 1
                    for _ in range(left):
                        add(pos)
                        pos += step[pos]
                gap_at.append(pos)
                pos += 1
        except IndexError:
            return None
        if pos > end:
            return None
        if n_open is None:
            n_open = len(starts)
        return starts, n_open, sizes, n_blocks, gap_at, pos

    @staticmethod
    def _fill_columns(program, values, starts, n_open, function_of, cuts) -> None:
        """Gather every instruction's fields from its draws."""
        u64 = np.uint64
        n = len(starts)
        roll = values[starts]
        load = _under(roll, cuts["load"])
        store = ~load & _under(roll, cuts["store"])
        mul = ~(load | store) & _under(roll, cuts["mul"])
        kind = np.full(n, ALU, dtype=np.int8)
        kind[mul] = MUL
        kind[load] = LOAD
        kind[store] = STORE
        dst = (values[starts + _DST] % u64(31)).astype(np.int64) + 1
        dst[store] = -1
        src1 = np.empty(n, dtype=np.int64)
        src2 = np.empty(n, dtype=np.int64)
        opening, rest = starts[:n_open], starts[n_open:]
        src1[:n_open] = values[opening + _OPEN_S1] % u64(32)
        src2[:n_open] = values[opening + _OPEN_S2] % u64(32)
        if len(rest):
            # The window at an instruction holds the last min(8, m)
            # non-store destinations before it, m of them drawn so far.
            writes = ~store
            drawn = (np.cumsum(writes) - writes)[n_open:]
            window = np.minimum(drawn, 8).astype(u64)
            oldest = drawn - window.astype(np.int64)
            written = dst[writes]
            cut_pick = _cut_below(0.6)
            for col, u, c in ((src1, _U1, _C1), (src2, _U2, _C2)):
                pick = values[rest + c]
                col[n_open:] = np.where(
                    _under(values[rest + u], cut_pick),
                    written[oldest + (pick % window).astype(np.int64)],
                    (pick % u64(32)).astype(np.int64),
                )
        # Memory table rows: stack frame, hot, warm or cold tier.
        at = starts + np.where(np.arange(n) < n_open, _OPEN_MEM, _MEM)
        memroll, region, stride = values[at], values[at + 1], values[at + 2]
        stack = _under(memroll, cuts["stack"])
        hot = ~stack & _under(memroll, cuts["hot"])
        warm = ~(stack | hot) & _under(memroll, cuts["warm"])
        n_functions = len(program.functions)
        hot_row = (region % u64(10)) * u64(len(_HOT_STRIDES)) + stride % u64(len(_HOT_STRIDES))
        warm_row = (region % u64(6)) * u64(len(_WARM_STRIDES)) + stride % u64(len(_WARM_STRIDES))
        row = np.where(
            stack,
            function_of,
            n_functions
            + np.where(hot, hot_row, np.where(warm, _WARM + warm_row, _COLD)).astype(np.int64),
        )
        row[~(load | store)] = -1
        program.kind = kind
        program.dst = narrow_ints(dst)
        program.src1 = narrow_ints(src1)
        program.src2 = narrow_ints(src2)
        program.mem = narrow_ints(row)

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
        levels = self._assign_levels()
        heats = self._assign_heats(len(levels))
        # First pass: every block with its body, terminators left open.
        # It starts after the 16 region draws, one per non-entry level
        # and one per shuffle swap.
        program = self._bodies(levels, heats, 16 + 2 * (len(levels) - 1))
        functions = program.functions
        # Second pass: assign terminators now that all entry PCs exist.
        self._build_dispatcher(functions[0], functions)
        for func in functions[1:]:
            self._assign_terminators(func, functions)
        # Third pass: compact PCs (blocks without terminators shrank by one slot).
        self._relayout(functions)
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
        Instruction PCs follow from the block's (``start_pc + k * ILEN``).
        """
        old_to_new: Dict[int, int] = {}
        pc = CODE_BASE
        randint, gap_max = self.rng.randint, self.spec.function_gap_max
        for func in functions:
            for block in func.blocks:
                old_to_new[block.start_pc] = pc
                block.start_pc = pc
                pc = block.end_pc
            pc += randint(0, gap_max) * ILEN
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
