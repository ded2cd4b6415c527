"""Unit tests for the Trace container."""

import pytest

from repro.common.types import BranchType
from repro.trace.trace import Trace

from tests.conftest import make_trace, straight


def test_append_and_len():
    tr = Trace()
    tr.append(pc=0x100)
    tr.append(pc=0x104, btype=BranchType.UNCOND_DIRECT, taken=True, target=0x200)
    assert len(tr) == 2
    assert tr.next_pc(0) == 0x104
    assert tr.next_pc(1) == 0x200


def test_validate_accepts_consistent_flow():
    tr = make_trace(
        straight(0x100, 3)
        + [(0x10C, BranchType.UNCOND_DIRECT, True, 0x200), 0x200]
    )
    tr.validate()


def test_validate_rejects_broken_flow():
    tr = Trace()
    tr.append(pc=0x100)
    tr.append(pc=0x200)  # not pc+4 and no branch
    with pytest.raises(ValueError):
        tr.validate()


def test_validate_rejects_taken_non_branch():
    tr = Trace()
    tr.pc = [0x100, 0x200]
    tr.btype = [0, 0]
    tr.taken = [1, 0]
    tr.target = [0x200, 0]
    for col in ("dst", "src1", "src2", "is_load", "is_store", "maddr"):
        setattr(tr, col, [0, 0])
    with pytest.raises(ValueError):
        tr.validate()


def test_validate_rejects_column_length_mismatch():
    tr = Trace()
    tr.append(pc=0x100)
    tr.maddr.append(0)  # now one column is longer
    with pytest.raises(ValueError):
        tr.validate()


def test_mean_basic_block_size():
    # 4 instructions per taken branch.
    steps = []
    pc = 0x100
    for _ in range(5):
        steps += straight(pc, 3)
        steps.append((pc + 12, BranchType.UNCOND_DIRECT, True, pc + 0x100))
        pc += 0x100
    tr = make_trace(steps + [pc])
    assert tr.mean_basic_block_size() == pytest.approx(21 / 5)


def test_mean_basic_block_size_no_taken():
    tr = make_trace(straight(0x100, 10))
    assert tr.mean_basic_block_size() == 10.0


def test_stats_counts_branch_kinds():
    tr = make_trace(
        [
            (0x100, BranchType.COND_DIRECT, False, 0),
            (0x104, BranchType.COND_DIRECT, True, 0x200),
            (0x200, BranchType.RETURN, True, 0x300),
            0x300,
        ]
    )
    st = tr.stats()
    assert st.get("branches") == 3
    assert st.get("taken_branches") == 2
    assert st.get("branches_cond_direct") == 2
    assert st.get("branches_return") == 1


def test_stats_never_taken_conditionals():
    # One conditional that is never taken (2 executions), one sometimes.
    tr = make_trace(
        [
            (0x100, BranchType.COND_DIRECT, False, 0),
            (0x104, BranchType.UNCOND_DIRECT, True, 0x100),
            (0x100, BranchType.COND_DIRECT, False, 0),
            0x104 + 0,
        ][:3]
        + [(0x104, BranchType.UNCOND_DIRECT, True, 0x200), 0x200]
    )
    st = tr.stats()
    assert st.get("never_taken_cond_dynamic") == 2


def test_slice_preserves_columns():
    tr = make_trace(straight(0x100, 8))
    sub = tr.slice(2, 5)
    assert len(sub) == 3
    assert sub.pc == [0x108, 0x10C, 0x110]


def test_save_load_roundtrip(tmp_path):
    tr = make_trace(
        straight(0x100, 3) + [(0x10C, BranchType.CALL_DIRECT, True, 0x500), 0x500]
    )
    tr.is_load[0] = 1
    tr.maddr[0] = 0xDEAD00
    path = str(tmp_path / "t.npz")
    tr.save(path)
    back = Trace.load(path)
    for col in Trace._COLUMNS:
        assert getattr(back, col) == getattr(tr, col), col
    back.validate()


def test_load_gives_equal_columns_of_python_ints(tmp_path):
    from repro.trace.workloads import get_trace

    tr = get_trace("web_frontend", 4_000)
    path = str(tmp_path / "t.npz")
    tr.save(path)
    back = Trace.load(path)
    assert back.name == tr.name
    for col in Trace._COLUMNS:
        values = getattr(back, col)
        assert values == getattr(tr, col), col
        assert all(type(v) is int for v in values), col


def test_line_index_matches_per_pc_division():
    from repro.common.types import LINE_BYTES
    from repro.trace.workloads import get_trace

    tr = get_trace("web_frontend", 4_000)
    lines = tr.line_index()
    assert lines == [pc // LINE_BYTES for pc in tr.pc]
    assert tr.line_index() is lines  # cached


def test_line_index_recomputes_after_append():
    tr = Trace(name="t")
    tr.append(pc=0x1000)
    first = tr.line_index()
    assert first == [0x1000 // 64]
    tr.append(pc=0x1040)
    assert tr.line_index() == [0x1000 // 64, 0x1040 // 64]
