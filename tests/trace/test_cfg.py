"""Unit tests for the static program generator."""

import dataclasses

import pytest

from repro.common.types import ILEN, BranchType
from repro.trace.cfg import CODE_BASE, ProgramSpec, build_program
from repro.trace.workloads import WORKLOAD_SPECS


def small_spec(**kw):
    base = dict(seed=5, n_functions=24, blocks_per_function_mean=8)
    base.update(kw)
    return ProgramSpec(**base)


@pytest.fixture(scope="module")
def program():
    return build_program(small_spec())


def test_block_layout_is_contiguous_within_functions(program):
    for func in program.functions:
        for a, b in zip(func.blocks, func.blocks[1:]):
            assert a.end_pc == b.start_pc


def test_block_map_covers_all_blocks(program):
    count = sum(len(f.blocks) for f in program.functions)
    assert len(program.block_at) == count
    for f in program.functions:
        for b in f.blocks:
            assert program.block_at[b.start_pc] is b


def test_all_branch_targets_are_block_starts(program):
    starts = set(program.block_at)
    for f in program.functions:
        for b in f.blocks:
            if b.taken_target and b.term_type != BranchType.RETURN:
                assert b.taken_target in starts
            if b.indirect_behavior is not None:
                for t in b.indirect_behavior.targets:
                    assert t in starts


def test_calls_go_strictly_deeper(program):
    """The call graph must be acyclic via levels (bounds walk depth)."""
    level_of = {}
    for f in program.functions:
        for b in f.blocks:
            for pc in [b.taken_target] if b.term_type == BranchType.CALL_DIRECT else []:
                level_of[pc] = None  # filled below
    entry_level = {f.entry_pc: f.level for f in program.functions}
    for f in program.functions:
        for b in f.blocks:
            if b.term_type == BranchType.CALL_DIRECT:
                assert entry_level[b.taken_target] > f.level
            if b.term_type == BranchType.CALL_INDIRECT:
                for t in b.indirect_behavior.targets:
                    assert entry_level[t] > f.level


def test_every_function_ends_with_return(program):
    for f in program.functions:
        assert f.blocks[-1].term_type == BranchType.RETURN


def test_conditionals_have_behaviour_and_target(program):
    for f in program.functions:
        for b in f.blocks:
            if b.term_type == BranchType.COND_DIRECT:
                assert b.cond_behavior is not None
                assert b.taken_target in program.block_at


def test_code_starts_at_base(program):
    assert program.functions[0].blocks[0].start_pc == CODE_BASE


def test_instruction_pcs_match_block_layout(program):
    for f in program.functions:
        for b in f.blocks:
            for k, inst in enumerate(program.body(b)):
                assert inst.pc == b.start_pc + k * ILEN


def test_dispatcher_shape(program):
    entry = program.entry
    spec_sites = small_spec().dispatch_sites
    icalls = [b for b in entry.blocks if b.term_type == BranchType.CALL_INDIRECT]
    assert len(icalls) == spec_sites
    assert entry.blocks[-1].term_type == BranchType.RETURN
    assert entry.blocks[-2].term_type == BranchType.COND_DIRECT
    # The loop back-edge returns to the first block.
    assert entry.blocks[-2].taken_target == entry.blocks[0].start_pc


def test_determinism_same_seed():
    a = build_program(small_spec())
    b = build_program(small_spec())
    assert [f.entry_pc for f in a.functions] == [f.entry_pc for f in b.functions]
    for fa, fb in zip(a.functions, b.functions):
        for ba, bb in zip(fa.blocks, fb.blocks):
            assert ba.term_type == bb.term_type
            assert ba.taken_target == bb.taken_target


def test_different_seed_differs():
    a = build_program(small_spec(seed=5))
    b = build_program(small_spec(seed=6))
    sig_a = [(blk.term_type, blk.ninsts) for f in a.functions for blk in f.blocks]
    sig_b = [(blk.term_type, blk.ninsts) for f in b.functions for blk in f.blocks]
    assert sig_a != sig_b


def test_heat_weights_positive(program):
    assert all(f.heat > 0 for f in program.functions)
    assert len({f.heat for f in program.functions}) > 1


def test_static_instruction_count_consistent(program):
    total = sum(b.ninsts for f in program.functions for b in f.blocks)
    assert program.static_instructions() == total
    assert total > 0


def test_callee_pick_is_weighted_choice_by_bisection():
    """Callees are picked by bisecting running heat sums; the pick must
    be exactly the linear scan of ``SplitMix.weighted_choice``."""
    import random

    from repro.common.rng import SplitMix
    from repro.trace.cfg import Block, Function, _Callees

    script = random.Random(3)
    for trial in range(40):
        functions = []
        for i in range(script.randint(2, 40)):
            heat = script.choice([script.random(), 1.0 / (i + 1) ** 1.2, 1e-9, 0.0])
            func = Function(name=f"f{i}", level=script.randint(0, 4), heat=heat)
            func.blocks.append(Block(start_pc=CODE_BASE + 64 * i))
            functions.append(func)
        for level in range(4):
            callees = _Callees(functions, level)
            heats = [f.heat for f in functions if f.level > level]
            if sum(heats) <= 0:
                continue
            fast, scan = SplitMix(trial), SplitMix(trial)
            for _ in range(200):
                assert callees.pick(fast) == scan.weighted_choice(callees.pcs, heats)


def test_specs_are_frozen_and_hashable():
    spec = small_spec()
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.p_load = 0.3
    assert dataclasses.replace(spec, p_load=0.3).p_load == 0.3
    # Hashable, and the suite's specs are all distinct.
    assert len(set(WORKLOAD_SPECS.values())) == len(WORKLOAD_SPECS)
