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


# -- traces built from arrays ------------------------------------------------


def synthesized(length=3_000, seed=5):
    """A fresh synthesized trace (not the shared get_trace one, so a test
    may edit it)."""
    from repro.trace.synth import synthesize_trace
    from repro.trace.workloads import get_program

    return synthesize_trace(get_program("kv_store"), length, seed=seed, name="kv")


def made_lists(tr):
    return [col for col in Trace._COLUMNS if col in tr.__dict__]


def test_vectorized_readers_make_no_list(tmp_path):
    """Storing, lowering, planning and checking a synthesized trace read
    its arrays; a column becomes a list on its first read, once."""
    from repro.core.config import MachineConfig
    from repro.core.passes.kernel import batch_geometry
    from repro.trace.columnar import (
        build_batch_plan,
        build_plan_entry,
        data_accesses,
        lower_trace,
    )

    tr = synthesized()
    assert len(tr) == 3_000
    tr.save(str(tmp_path / "t.npz"))
    lower_trace(tr)
    data_accesses(tr)
    build_batch_plan(tr, batch_geometry(MachineConfig()))
    build_plan_entry(tr, batch_geometry(MachineConfig()))
    tr.check_registers()
    assert made_lists(tr) == []
    pcs = tr.pc
    assert made_lists(tr) == ["pc"] and tr.pc is pcs
    assert all(type(v) is int for v in pcs)
    loaded = Trace.load(str(tmp_path / "t.npz"))
    assert len(loaded) == 3_000 and made_lists(loaded) == []
    assert loaded.pc == pcs


def edit_in_place(tr):
    mem = next(j for j in range(10, len(tr)) if tr.is_load[j])
    branch = next(j for j in range(10, len(tr)) if tr.taken[j])
    tr.maddr[mem] = 0x5555_0000
    tr.target[branch] = 0x7777_0000
    tr.pc[branch + 1] = 0x7777_0000
    tr.is_store[3] = 1
    tr.src2[4] = -2


def edit_by_append(tr):
    tr.append(pc=tr.pc[-1] + 4, dst=3, is_store=True, maddr=0x9999_0000)


@pytest.mark.parametrize("edit", [edit_in_place, edit_by_append])
def test_edited_trace_is_stored_and_lowered_from_its_lists(edit, tmp_path):
    """After an edit, every reader sees the lists as edited: the stored
    entry, the lowering, the data-side accesses and the register check."""
    from repro.trace.columnar import data_accesses, lower_trace

    tr = synthesized()
    edit(tr)
    columns = {col: list(getattr(tr, col)) for col in Trace._COLUMNS}
    path = str(tmp_path / "t.npz")
    tr.save(path)
    back = Trace.load(path)
    for col in Trace._COLUMNS:
        assert getattr(back, col) == columns[col], col
    col = lower_trace(tr)
    assert col.n == len(columns["pc"])
    for name in ("pc", "btype", "taken", "target"):
        assert getattr(col, name).tolist() == columns[name], name
    mem_ops = [a or b for a, b in zip(columns["is_load"], columns["is_store"])]
    assert data_accesses(tr) == (
        [v for v, m in zip(columns["pc"], mem_ops) if m],
        [v for v, m in zip(columns["maddr"], mem_ops) if m],
    )
    if edit is edit_in_place:
        with pytest.raises(ValueError, match="column src2 holds a register"):
            tr.check_registers()


def test_stored_entry_does_not_depend_on_the_columns_form(tmp_path):
    """A trace stores the same entry, member for member and type for
    type, whether its columns are still arrays or already lists."""
    arrays, lists = synthesized(), synthesized()
    for col in Trace._COLUMNS:
        getattr(lists, col)
    assert made_lists(arrays) == [] and made_lists(lists) == list(Trace._COLUMNS)
    arrays.save(str(tmp_path / "a.npz"))
    lists.save(str(tmp_path / "l.npz"))
    back = Trace.load(str(tmp_path / "a.npz"))
    back.save(str(tmp_path / "again.npz"))  # from the arrays it loaded
    for other in ("l.npz", "again.npz"):
        with np.load(tmp_path / "a.npz") as a, np.load(tmp_path / other) as b:
            assert a.files == b.files
            for name in a.files:
                assert a[name].dtype == b[name].dtype, (other, name)
                assert np.array_equal(a[name], b[name]), (other, name)
    assert back == lists


def test_entries_keep_the_savez_layout(tmp_path):
    """``save_npz`` writes what ``np.savez_compressed`` writes, member
    names, order and dtypes, deflated at level 1; an entry written by
    ``np.savez_compressed`` loads equal."""
    import zipfile

    from repro.trace.trace import narrow_ints

    tr = synthesized()
    tr.save(str(tmp_path / "new.npz"))
    np.savez_compressed(
        str(tmp_path / "old.npz"),
        name=np.array(tr.name),
        **{col: narrow_ints(getattr(tr, col)) for col in Trace._COLUMNS},
    )
    with zipfile.ZipFile(tmp_path / "new.npz") as new, zipfile.ZipFile(tmp_path / "old.npz") as old:
        assert new.namelist() == old.namelist()
        assert {i.compress_type for i in new.infolist()} == {zipfile.ZIP_DEFLATED}
    with np.load(tmp_path / "new.npz") as new, np.load(tmp_path / "old.npz") as old:
        for name in old.files:
            assert new[name].dtype == old[name].dtype, name
            assert np.array_equal(new[name], old[name]), name
    back = Trace.load(str(tmp_path / "old.npz"))
    for col in Trace._COLUMNS:
        values = getattr(back, col)
        assert values == getattr(tr, col), col
        assert all(type(v) is int for v in values), col


def test_check_registers_runs_once_per_length(monkeypatch):
    """The register check is memoized like ``line_index``: once per
    trace, again after the trace grows."""
    tr = make_trace(straight(0x100, 4))
    checked = []
    real = Trace._check_registers
    monkeypatch.setattr(
        Trace, "_check_registers", lambda self: (checked.append(len(self)), real(self))
    )
    tr.check_registers()
    tr.check_registers()
    assert checked == [4]
    tr.append(pc=0x110, src1=40)
    with pytest.raises(ValueError, match="column src1 holds a register"):
        tr.check_registers()
    assert checked == [4, 5]


def test_from_arrays_rejects_ragged_columns():
    columns = {col: np.zeros(3, dtype=np.int8) for col in Trace._COLUMNS}
    columns["maddr"] = np.zeros(2, dtype=np.int8)
    with pytest.raises(ValueError, match="differ in length"):
        Trace.from_arrays("ragged", columns)


def test_threads_reading_one_trace_share_each_list():
    """Threads that read an array-backed trace's columns at once all get
    the one list made per column, equal to the array it came from."""
    import os
    import sys
    import threading
    import time

    workers = 2 * (os.cpu_count() or 1) + 2
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 2.0
        rounds = 0
        while rounds < 3 or (time.monotonic() < deadline and rounds < 40):
            tr = synthesized(600, seed=rounds)
            expected = {col: tr.array(col).tolist() for col in Trace._COLUMNS}
            got = [[] for _ in range(workers)]
            start = threading.Barrier(workers)

            def read(k):
                start.wait()
                shift = k % len(Trace._COLUMNS)
                for col in Trace._COLUMNS[shift:] + Trace._COLUMNS[:shift]:
                    got[k].append((col, getattr(tr, col)))

            threads = [threading.Thread(target=read, args=(k,)) for k in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            for col in Trace._COLUMNS:
                lists = [lst for reads in got for name, lst in reads if name == col]
                assert len(lists) == workers
                assert all(lst is lists[0] for lst in lists), col
                assert lists[0] == expected[col] and lists[0] is getattr(tr, col), col
            rounds += 1
    finally:
        sys.setswitchinterval(old)
