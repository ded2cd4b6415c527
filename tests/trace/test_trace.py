"""Unit tests for the Trace container."""

import numpy as np
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


@pytest.mark.parametrize("column,value", [("dst", 32), ("src1", -2), ("src2", 40)])
def test_validate_rejects_register_outside_the_file(column, value):
    """Operands are -1 (none) or 0..31; the kernel reads sources one
    slot up, so -2 would read register 31 where the interpreter reads
    nothing."""
    tr = make_trace(straight(0x100, 3))
    getattr(tr, column)[1] = value
    with pytest.raises(ValueError, match=f"column {column} holds a register"):
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


# -- narrow stored columns -------------------------------------------------


def narrowest(values):
    """The narrowest signed type holding *values*, one value at a time."""
    for t in (np.int8, np.int16, np.int32):
        info = np.iinfo(t)
        if all(info.min <= v <= info.max for v in values):
            return t
    return np.int64


def wide_trace(n=300):
    """A trace whose PCs, targets and addresses sit above 2**40, as
    corpus traces' do: those columns need 64 bits."""
    tr = Trace(name="wide")
    pc = 2 ** 40
    for k in range(n):
        if k % 7 == 6:
            target = pc + 0x1000
            tr.append(pc, BranchType.UNCOND_DIRECT, True, target, dst=k % 32)
            pc = target
        else:
            tr.append(pc, dst=k % 32, src1=k % 5 - 1, src2=-1,
                      is_load=k % 3 == 0, maddr=2 ** 40 + 64 * k + k % 3)
            pc += 4
    return tr


def narrow_cases():
    from repro.trace.workloads import get_trace

    return {
        "synthetic": get_trace("web_frontend", 4_000),
        "empty": Trace(name="empty"),
        "wide": wide_trace(),
    }


@pytest.mark.parametrize("case", ["synthetic", "empty", "wide"])
def test_save_stores_narrow_columns_that_load_equal(case, tmp_path):
    tr = narrow_cases()[case]
    path = str(tmp_path / "t.npz")
    tr.save(path)
    back = Trace.load(path)
    assert back.name == tr.name
    for col in Trace._COLUMNS:
        values = getattr(back, col)
        assert values == getattr(tr, col), col
        assert all(type(v) is int for v in values), col
    with np.load(path) as data:
        stored = {col: data[col].dtype for col in Trace._COLUMNS}
    for col in Trace._COLUMNS:
        values = getattr(tr, col)
        assert stored[col] == (narrowest(values) if values else np.int64), col
    if case == "wide":
        for col in ("pc", "target", "maddr"):
            assert stored[col] == np.int64, col
    if case == "synthetic":
        for col in ("btype", "taken", "dst", "src1", "src2", "is_load", "is_store"):
            assert stored[col] == np.int8, col


@pytest.mark.parametrize("case", ["synthetic", "empty", "wide"])
def test_load_reads_int64_entries_written_before_narrowing(case, tmp_path):
    """Entries stored with every column widened to int64 (as stores did
    before columns were narrowed) still load equal."""
    tr = narrow_cases()[case]
    path = str(tmp_path / "old.npz")
    np.savez_compressed(
        path,
        name=np.array(tr.name),
        **{col: np.asarray(getattr(tr, col), dtype=np.int64) for col in Trace._COLUMNS},
    )
    back = Trace.load(path)
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
