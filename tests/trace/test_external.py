"""Unit tests for the external CSV trace format."""

import pytest

from repro.common.types import BranchType
from repro.trace.external import (
    TraceFormatError,
    load_trace_csv,
    save_trace_csv,
)
from repro.trace.workloads import get_trace

from tests.conftest import make_trace, straight


def write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_minimal_roundtrip(tmp_path):
    path = write(
        tmp_path,
        "pc,btype,taken,target\n"
        "0x100,NONE,0,0\n"
        "0x104,UNCOND_DIRECT,1,0x200\n"
        "0x200,NONE,0,0\n",
    )
    trace = load_trace_csv(path)
    assert trace.pc == [0x100, 0x104, 0x200]
    assert trace.btype[1] == BranchType.UNCOND_DIRECT
    assert trace.taken == [0, 1, 0]


def test_numeric_btype_and_decimal_pcs(tmp_path):
    path = write(
        tmp_path,
        "pc,btype,taken,target\n"
        f"256,0,0,0\n"
        f"260,{int(BranchType.COND_DIRECT)},1,512\n"
        "512,0,0,0\n",
    )
    trace = load_trace_csv(path)
    assert trace.btype[1] == BranchType.COND_DIRECT
    assert trace.target[1] == 512


def test_optional_columns_parsed(tmp_path):
    path = write(
        tmp_path,
        "pc,btype,taken,target,dst,src1,src2,is_load,is_store,maddr\n"
        "0x100,NONE,0,0,3,1,2,1,0,0x9000\n",
        )
    trace = load_trace_csv(path, validate=False)
    assert trace.dst[0] == 3 and trace.src1[0] == 1
    assert trace.is_load[0] == 1
    assert trace.maddr[0] == 0x9000


@pytest.mark.parametrize("column,value", [("dst", 32), ("src1", -2), ("src2", 99)])
def test_register_outside_the_file_raises_with_line_number(tmp_path, column, value):
    """A register operand is -1 (none) or one of the 32 registers: the
    simulators index the scoreboard with it (the kernel one slot up, so
    -2 would read register 31 where the interpreter reads nothing)."""
    fields = {"dst": -1, "src1": 1, "src2": -1}
    fields[column] = value
    path = write(
        tmp_path,
        "pc,btype,taken,target,dst,src1,src2\n"
        "0x100,NONE,0,0,3,1,2\n"
        f"0x104,NONE,0,0,{fields['dst']},{fields['src1']},{fields['src2']}\n",
    )
    with pytest.raises(TraceFormatError, match=f"line 3: register {value} in column '{column}'"):
        load_trace_csv(path)


def test_missing_required_column_raises(tmp_path):
    path = write(tmp_path, "pc,btype,taken\n0x100,NONE,0\n")
    with pytest.raises(TraceFormatError, match="missing required"):
        load_trace_csv(path)


def test_bad_integer_raises_with_line_number(tmp_path):
    path = write(tmp_path, "pc,btype,taken,target\nzzz,NONE,0,0\n")
    with pytest.raises(TraceFormatError, match="line 2"):
        load_trace_csv(path)


def test_unknown_btype_name_raises(tmp_path):
    path = write(tmp_path, "pc,btype,taken,target\n0x100,FROB,0,0\n")
    with pytest.raises(TraceFormatError, match="unknown btype"):
        load_trace_csv(path)


def test_blank_and_comment_lines_skipped(tmp_path):
    path = write(
        tmp_path,
        "# hand-annotated trace\n"
        "\n"
        "pc,btype,taken,target\n"
        "0x100,NONE,0,0\n"
        "   \n"
        "# hot loop below\n"
        "0x104,UNCOND_DIRECT,1,0x200\n"
        "0x200,NONE,0,0\n"
        "\n",
    )
    trace = load_trace_csv(path)
    assert trace.pc == [0x100, 0x104, 0x200]


def test_error_line_numbers_account_for_skipped_lines(tmp_path):
    path = write(
        tmp_path,
        "# comment\n"
        "pc,btype,taken,target\n"
        "0x100,NONE,0,0\n"
        "\n"
        "zzz,NONE,0,0\n",  # physical line 5
    )
    with pytest.raises(TraceFormatError, match="line 5"):
        load_trace_csv(path)


def test_comment_only_file_raises(tmp_path):
    path = write(tmp_path, "# nothing but commentary\n\n# more\n")
    with pytest.raises(TraceFormatError, match="missing header"):
        load_trace_csv(path)


def test_empty_file_raises(tmp_path):
    path = write(tmp_path, "")
    with pytest.raises(TraceFormatError):
        load_trace_csv(path)


def test_inconsistent_control_flow_rejected(tmp_path):
    path = write(
        tmp_path,
        "pc,btype,taken,target\n0x100,NONE,0,0\n0x900,NONE,0,0\n",
    )
    with pytest.raises(TraceFormatError, match="inconsistent"):
        load_trace_csv(path)
    # ... unless validation is explicitly disabled.
    trace = load_trace_csv(path, validate=False)
    assert len(trace) == 2


def test_save_load_roundtrip_preserves_everything(tmp_path):
    original = make_trace(
        straight(0x100, 3)
        + [(0x10C, BranchType.CALL_DIRECT, True, 0x500)]
        + straight(0x500, 2)
    )
    original.is_load[1] = 1
    original.maddr[1] = 0xBEEF0
    path = str(tmp_path / "round.csv")
    save_trace_csv(original, path)
    back = load_trace_csv(path)
    for col in type(original)._COLUMNS:
        assert getattr(back, col) == getattr(original, col), col


def test_synthetic_workload_roundtrips_and_simulates(tmp_path):
    """End-to-end: export a synthetic trace, re-import it as 'external',
    and run it through the simulator."""
    from repro.core.config import build_simulator, ibtb

    original = get_trace("db_oltp", 4000)
    path = str(tmp_path / "wl.csv")
    save_trace_csv(original, path)
    back = load_trace_csv(path, name="imported")
    result = build_simulator(ibtb(16), back).run(warmup=1000)
    reference = build_simulator(ibtb(16), original).run(warmup=1000)
    assert result.cycles == reference.cycles


# -- header edge cases --------------------------------------------------------


def test_duplicated_header_column_raises_naming_path(tmp_path):
    path = write(tmp_path, "pc,btype,taken,target,pc\n0x100,NONE,0,0,0x100\n")
    with pytest.raises(TraceFormatError) as info:
        load_trace_csv(path)
    assert "duplicated column" in str(info.value)
    assert "pc" in str(info.value)
    assert str(path) in str(info.value)


def test_unknown_extra_column_raises_naming_path(tmp_path):
    """A typo'd column must not be silently ignored (its values would be
    defaulted); the error lists the known columns."""
    path = write(
        tmp_path, "pc,btype,taken,target,is_laod\n0x100,NONE,0,0,1\n"
    )
    with pytest.raises(TraceFormatError) as info:
        load_trace_csv(path)
    assert "unknown column" in str(info.value)
    assert "is_laod" in str(info.value)
    assert "known columns" in str(info.value)
    assert str(path) in str(info.value)


def test_header_only_file_raises_naming_path(tmp_path):
    path = write(tmp_path, "pc,btype,taken,target\n")
    with pytest.raises(TraceFormatError) as info:
        load_trace_csv(path)
    assert "no instructions" in str(info.value)
    assert str(path) in str(info.value)


# -- transparent compression --------------------------------------------------


def test_gzip_save_load_roundtrip(tmp_path):
    import gzip

    original = make_trace(
        straight(0x100, 2) + [(0x108, BranchType.COND_DIRECT, True, 0x300)]
        + straight(0x300, 1)
    )
    path = str(tmp_path / "t.csv.gz")
    save_trace_csv(original, path)
    # Really gzip on disk, not plain text with a flattering name.
    with open(path, "rb") as fh:
        assert fh.read(2) == b"\x1f\x8b"
    with gzip.open(path, "rt") as fh:
        assert fh.readline().startswith("pc,btype")
    back = load_trace_csv(path)
    for col in type(original)._COLUMNS:
        assert getattr(back, col) == getattr(original, col), col


def test_xz_save_load_roundtrip(tmp_path):
    original = make_trace(straight(0x100, 3))
    path = str(tmp_path / "t.csv.xz")
    save_trace_csv(original, path)
    back = load_trace_csv(path)
    assert back.pc == original.pc


def test_gzip_parse_error_names_path_and_line(tmp_path):
    import gzip

    path = str(tmp_path / "bad.csv.gz")
    with gzip.open(path, "wt") as fh:
        fh.write("pc,btype,taken,target\nzzz,NONE,0,0\n")
    with pytest.raises(TraceFormatError) as info:
        load_trace_csv(path)
    assert path in str(info.value)
    assert "line 2" in str(info.value)


def test_corrupt_gzip_raises_trace_format_error_with_path(tmp_path):
    path = tmp_path / "junk.csv.gz"
    path.write_bytes(b"this is not a gzip stream")
    with pytest.raises(TraceFormatError) as info:
        load_trace_csv(str(path))
    assert str(path) in str(info.value)


def test_truncated_gzip_raises_trace_format_error_with_path(tmp_path):
    import gzip

    good = tmp_path / "good.csv.gz"
    with gzip.open(str(good), "wt") as fh:
        fh.write("pc,btype,taken,target\n" + "0x100,NONE,0,0\n" * 500)
    data = good.read_bytes()
    bad = tmp_path / "trunc.csv.gz"
    bad.write_bytes(data[: len(data) // 2])
    with pytest.raises(TraceFormatError) as info:
        load_trace_csv(str(bad))
    assert str(bad) in str(info.value)


def test_corrupt_xz_raises_trace_format_error_with_path(tmp_path):
    path = tmp_path / "junk.csv.xz"
    path.write_bytes(b"definitely not xz")
    with pytest.raises(TraceFormatError) as info:
        load_trace_csv(str(path))
    assert str(path) in str(info.value)


# -- every error names the file path -----------------------------------------


def test_parse_error_message_includes_path(tmp_path):
    path = write(tmp_path, "pc,btype,taken,target\nzzz,NONE,0,0\n")
    with pytest.raises(TraceFormatError) as info:
        load_trace_csv(path)
    assert str(path) in str(info.value)
    assert "line 2" in str(info.value)


def test_validation_error_message_includes_path(tmp_path):
    path = write(
        tmp_path,
        "pc,btype,taken,target\n"
        "0x100,COND_DIRECT,1,0x200\n"
        "0x999,NONE,0,0\n",
    )
    with pytest.raises(TraceFormatError) as info:
        load_trace_csv(path)
    assert str(path) in str(info.value)


def test_missing_file_raises_trace_format_error_with_path(tmp_path):
    path = str(tmp_path / "nope.csv")
    with pytest.raises(TraceFormatError) as info:
        load_trace_csv(path)
    assert path in str(info.value)


def test_unreadable_directory_raises_trace_format_error(tmp_path):
    with pytest.raises(TraceFormatError) as info:
        load_trace_csv(str(tmp_path))
    assert str(tmp_path) in str(info.value)
