"""The columnar program builder and trace walker against the
one-draw-at-a-time references.

``ProgramBuilder`` draws every block body from a numpy block of upcoming
draws; ``reference_builder.ReferenceBuilder`` is the sequential builder
it replaced. Every program must come out the same, field for field and
instruction for instruction, the terminator pass must start on the same
draw, and walks must give the same traces: on the suite's specs, on
drawn specs that reach the edges (probabilities of 0 and 1, geometric
means of 1, one-instruction bodies, programs that open with stores,
extreme seeds), and on draws crafted to land exactly on a probability
cut.

``TraceSynthesizer`` records its walk and assembles the columns in
numpy; ``reference_builder.ReferenceSynthesizer`` is the walker it
replaced, appending one instruction at a time. Every trace must come out
the same, column for column and as Python ints, at every cut.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import GAMMA, MASK64, SplitMix
from repro.common.types import BranchType
from repro.trace.cfg import (
    CODE_BASE,
    STORE,
    Block,
    Function,
    Program,
    ProgramBuilder,
    ProgramSpec,
    _cut,
    _Geometric,
    build_program,
)
from repro.trace.synth import MAX_CALL_DEPTH, TraceSynthesizer, synthesize_trace
from repro.trace.trace import Trace
from repro.trace.workloads import WORKLOAD_SPECS, get_program

from tests.common.test_rng import ScalarSplitMix, seed_drawing_first
from tests.trace.reference_builder import (
    RefBlock,
    ReferenceBuilder,
    ReferenceSynthesizer,
    reference_program,
)

EDGE_SEEDS = [0, 2 ** 63, 2 ** 64 - 1, -1, 2 ** 70]


def behaviour_fields(behaviour):
    return None if behaviour is None else (type(behaviour), vars(behaviour))


def assert_same_program(spec):
    """Build *spec* both ways and compare everything the builders make."""
    builder = ProgramBuilder(spec)
    program = builder.build()
    reference = ReferenceBuilder(spec)
    functions = reference.build()
    assert builder.body_draws == reference.body_draws
    assert len(program.functions) == len(functions)
    for func, ref in zip(program.functions, functions):
        assert (func.name, func.level, func.heat) == (ref.name, ref.level, ref.heat)
        assert len(func.blocks) == len(ref.blocks)
        for block, ref_block in zip(func.blocks, ref.blocks):
            assert block.start_pc == ref_block.start_pc
            assert block.term_type == ref_block.term_type
            assert block.taken_target == ref_block.taken_target
            assert block.ninsts == ref_block.ninsts
            assert behaviour_fields(block.cond_behavior) == behaviour_fields(ref_block.cond_behavior)
            assert behaviour_fields(block.indirect_behavior) == behaviour_fields(
                ref_block.indirect_behavior
            )
            assert program.body(block) == ref_block.insts
    # Both streams stand at the same draw once the program is built.
    assert builder.rng.next_u64() == reference.rng.next_u64()
    return program


@pytest.mark.parametrize("name", list(WORKLOAD_SPECS))
def test_suite_programs_equal_reference(name):
    assert_same_program(WORKLOAD_SPECS[name])


def test_terminator_pass_starts_on_the_reference_draw():
    spec = WORKLOAD_SPECS["kv_store"]
    builder = ProgramBuilder(spec)
    builder.build()
    reference = ScalarSplitMix(spec.seed)
    for _ in range(builder.body_draws):
        reference.next_u64()
    resumed = SplitMix((spec.seed + builder.body_draws * GAMMA) & MASK64)
    assert [resumed.next_u64() for _ in range(3)] == [reference.next_u64() for _ in range(3)]


def probability():
    return st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def specs(draw):
    return ProgramSpec(
        seed=draw(st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(-(2 ** 65), 2 ** 70))),
        n_functions=draw(st.integers(2, 40)),
        n_levels=draw(st.integers(2, 6)),
        blocks_per_function_mean=draw(st.integers(1, 20)),
        block_body_mean=draw(st.one_of(st.just(1.0), st.floats(1.0, 9.0))),
        block_body_max=draw(st.integers(1, 16)),
        dispatch_sites=draw(st.integers(1, 4)),
        p_load=draw(probability()),
        p_store=draw(probability()),
        p_mul=draw(probability()),
        p_mem_random=draw(st.floats(0.0, 0.5)),
        stack_frame=draw(st.sampled_from([64, 256])),
        function_gap_max=draw(st.integers(0, 8)),
    )


@settings(max_examples=60, deadline=None)
@given(specs())
def test_drawn_specs_equal_reference(spec):
    assert_same_program(spec)


def assert_same_trace(trace, reference):
    """Equal columns, every value a Python int."""
    assert len(trace) == len(reference)
    for column in Trace._COLUMNS:
        values = getattr(trace, column)
        assert values == getattr(reference, column), column
        assert all(type(v) is int for v in values), column


@settings(max_examples=25, deadline=None)
@given(specs(), st.integers(1, 3000), st.integers(0, 2 ** 64 - 1))
def test_drawn_specs_walk_to_the_reference_traces(spec, length, seed):
    """The walker reads bodies from the columns; the traces equal those
    walked over the reference program one instruction at a time."""
    trace = synthesize_trace(build_program(spec), length, seed=seed)
    reference = ReferenceSynthesizer(reference_program(spec), seed=seed).synthesize(length)
    assert_same_trace(trace, reference)


#: Instructions per walk of a suite program: a few hundred blocks, the
#: dispatcher's loop and calls several levels deep.
WALK = 4_000


@pytest.mark.parametrize("name", list(WORKLOAD_SPECS))
def test_suite_walks_equal_reference(name):
    """Every suite program, at every edge seed, walks to the reference's
    trace."""
    reference = reference_program(WORKLOAD_SPECS[name])
    for seed in EDGE_SEEDS:
        trace = synthesize_trace(get_program(name), WALK, seed=seed, name=name)
        assert trace.name == name
        assert_same_trace(trace, ReferenceSynthesizer(reference, seed=seed).synthesize(WALK))


def test_cuts_equal_reference():
    """A trace cut after one instruction, inside a block body, and right
    after a terminator equals the reference cut at the same place."""
    name = "kv_store"
    reference = reference_program(WORKLOAD_SPECS[name])
    whole = ReferenceSynthesizer(reference, seed=3).synthesize(WALK)
    btype = whole.btype
    inside = next(j for j in range(100, WALK) if not btype[j] and not btype[j + 1])
    at_branch = next(j for j in range(100, WALK) if btype[j])
    for length in (1, inside + 1, at_branch + 1):
        trace = synthesize_trace(get_program(name), length, seed=3)
        expected = ReferenceSynthesizer(reference, seed=3).synthesize(length)
        assert_same_trace(trace, expected)
        assert expected.pc == whole.pc[:length]
    # The cuts land where they are meant to: the body instruction cut
    # after is followed by another, the branch ends its block.
    assert not btype[inside] and not btype[inside + 1] and btype[at_branch]


def test_second_walk_continues_like_reference():
    """A synthesizer walked again goes on from where it stood: its draws,
    its loads' and stores' visit counts and its behaviours' state."""
    name = "db_oltp"
    walker = TraceSynthesizer(get_program(name), seed=2 ** 63)
    reference = ReferenceSynthesizer(reference_program(WORKLOAD_SPECS[name]), seed=2 ** 63)
    for length in (1_500, 1, 2_500):
        assert_same_trace(walker.synthesize(length), reference.synthesize(length))


@pytest.mark.parametrize("walker", ["columnar", "reference"])
def test_call_depth_is_capped(walker):
    """A program whose calls nest deeper than MAX_CALL_DEPTH stops the
    walk with the call-depth error."""
    depth = MAX_CALL_DEPTH + 2
    pcs = [CODE_BASE + 8 * i for i in range(depth + 1)]
    functions = []
    for level, pc in enumerate(pcs):
        if level < depth:
            kind, target = BranchType.CALL_DIRECT, pcs[level + 1]
        else:
            kind, target = BranchType.RETURN, 0
        if walker == "columnar":
            block = Block(start_pc=pc, term_type=kind, taken_target=target)
        else:
            block = RefBlock(start_pc=pc, insts=[], term_type=kind, taken_target=target)
        functions.append(Function(name=f"fn{level:03d}", level=level, blocks=[block]))
    program = Program(functions=functions)
    program.finalize()
    if walker == "columnar":
        walk = lambda: synthesize_trace(program, 1_000)  # noqa: E731
    else:
        walk = lambda: ReferenceSynthesizer(program).synthesize(1_000)  # noqa: E731
    with pytest.raises(RuntimeError, match="call depth exceeded"):
        walk()


SMALL = ProgramSpec(seed=5, n_functions=12, blocks_per_function_mean=6)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize(
    "overrides",
    [
        dict(p_load=0.0),
        dict(p_load=1.0),
        dict(p_load=0.5, p_store=1.0),
        dict(p_store=0.0),
        dict(p_load=0.0, p_store=1.0),  # every instruction a store
        dict(p_load=0.05, p_store=0.9),  # opens with a run of stores
        dict(block_body_mean=1.0, blocks_per_function_mean=1),
        dict(block_body_max=1),
    ],
    ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
)
def test_edge_specs_equal_reference(overrides, seed):
    program = assert_same_program(replace(SMALL, seed=seed, **overrides))
    if overrides.get("p_store") == 1.0 and overrides.get("p_load") == 0.0:
        assert set(program.kind) == {STORE}  # the window never opened


@pytest.mark.parametrize("estimate", [1, 40, 700])
@pytest.mark.parametrize("overrides", [{}, dict(p_load=0.05, p_store=0.9)], ids=["mix", "stores"])
def test_body_pass_redraws_when_its_block_runs_out(overrides, estimate, monkeypatch):
    """A body pass that walks off the end of its block of draws, at any
    point of the walk, starts again on a bigger block: same program."""
    monkeypatch.setattr(ProgramBuilder, "_draw_estimate", lambda self, n: estimate)
    assert_same_program(replace(SMALL, **overrides))


def test_edge_spec_opens_with_stores():
    """The store-heavy edge spec does open with a run of stores."""
    openings = []
    for seed in EDGE_SEEDS:
        kinds = build_program(replace(SMALL, seed=seed, p_load=0.05, p_store=0.9)).kind
        openings.append(next(i for i, k in enumerate(kinds) if k != STORE))
    assert max(openings) >= 2


# -- draws exactly on a cut ------------------------------------------------------

#: (spec overrides, body-pass draw to pin, the probability that draw is
#: tested against, as the builder computes it from the spec). With
#: ``block_body_mean=1.0`` no draw goes to body sizes: body draw 0 is
#: the first instruction's kind roll; its window is empty, so it takes 4
#: draws, then its memory draws.
ALL_ALU = dict(block_body_mean=1.0, p_load=0.0, p_store=0.0, p_mul=0.0)
MIX = dict(block_body_mean=1.0, p_load=0.3, p_store=0.2, p_mul=0.1)
LOADS = dict(block_body_mean=1.0, p_load=1.0)
CUT_CASES = {
    "load": (MIX, 0, lambda s: s.p_load),
    "store": (MIX, 0, lambda s: s.p_load + s.p_store),
    "mul": (MIX, 0, lambda s: s.p_load + s.p_store + s.p_mul),
    "stack": (LOADS, 4, lambda s: 0.55),
    "hot": (LOADS, 4, lambda s: 0.88),
    "warm": (LOADS, 4, lambda s: 0.985),
    "src1": (ALL_ALU, 6, lambda s: 0.6),  # the second instruction's 0.6 rolls
    "src2": (ALL_ALU, 8, lambda s: 0.6),
    "size": (dict(p_load=0.0, p_store=0.0, block_body_mean=4.0), 0, None),
}


@pytest.mark.parametrize("case", list(CUT_CASES))
@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_draws_on_a_cut_equal_reference(case, shift):
    overrides, at, p_of = CUT_CASES[case]
    spec = replace(ProgramSpec(n_functions=3, blocks_per_function_mean=4), **overrides)
    if p_of is None:  # a body size: the draw loop goes on while u > 1 / mean
        p = 1.0 / spec.block_body_mean
        below = lambda u: not u > p  # noqa: E731
    else:
        p = p_of(spec)
        below = lambda u: u < p  # noqa: E731
    cut = _cut(below)
    assert below((cut - 1) / 2 ** 64) and not below(cut / 2 ** 64)
    value = (cut + shift) & MASK64
    start = 16 + 2 * (spec.n_functions - 1)
    seed = (seed_drawing_first(value) - (start + at) * GAMMA) & MASK64
    stream = ScalarSplitMix(seed)
    for _ in range(start + at):
        stream.next_u64()
    assert stream.next_u64() == value
    assert_same_program(replace(spec, seed=seed))


def test_cut_bounds():
    assert _cut(lambda u: u < 0.0) == 0
    assert _cut(lambda u: u < 1.0) == 2 ** 64 - 2 ** 10  # draws from here round to 1.0
    assert _cut(lambda u: u < 1.5) == 2 ** 64
    for p in (0.05, 0.3, 0.55, 0.6, 0.985):
        cut = _cut(lambda u: u < p)
        assert (cut - 1) / 2 ** 64 < p and not cut / 2 ** 64 < p


@pytest.mark.parametrize("mean", [1.5, 2.0, 4.4, 16])
def test_geometric_table_equals_draw_loop(mean):
    """Sizes read off the stop table equal ``SplitMix.geometric``'s loop,
    the cap at ``64 * mean`` continuing draws included."""

    def loop(values, pos):
        p, count = 1.0 / mean, 1
        while values[pos] / 2 ** 64 > p:
            pos += 1
            count += 1
            if count > 64 * mean:
                return count, pos
        return count, pos + 1

    script = np.random.default_rng(7)
    values = script.integers(0, 2 ** 64, size=4000, dtype=np.uint64)
    values[1000:3000] = MASK64  # a run past the cap
    table = _Geometric(mean, values, len(values) - 200)
    as_ints = values.tolist()
    pos, capped = 0, 0
    while pos < 3500:
        drawn = table.draw(pos)
        assert drawn == loop(as_ints, pos)
        capped += drawn[0] == table.cap + 1
        pos = drawn[1]
    assert capped
    assert table.draw(len(values) - 199) is None  # the table ends first


# -- memory --------------------------------------------------------------------


def test_build_memory_is_bounded():
    """Building db_oltp's program peaks below 8 MB traced and keeps less
    than the 5 MB the per-instruction objects used to."""
    spec = WORKLOAD_SPECS["db_oltp"]
    build_program(replace(spec, n_functions=8))  # imports and first-use caches
    tracemalloc.start()
    try:
        program = build_program(spec)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert program.static_instructions() > 10_000
    assert peak < 8_000_000, peak
    assert retained < 5_000_000, retained
