"""Import/export dynamic traces in a simple documented text format.

The synthetic workload suite stands in for CVP-1, but users with real
traces (e.g. converted from ChampSim's format) can feed the simulator
through this module. The format is CSV with a header; required columns::

    pc, btype, taken, target

optional columns (default 0 / -1 for registers)::

    dst, src1, src2, is_load, is_store, maddr

A register operand is -1 (none) or 0..31; any other value is rejected.

``pc``/``target``/``maddr`` accept decimal or 0x-prefixed hex. ``btype``
accepts the numeric :class:`~repro.common.types.BranchType` value or its
name (``COND_DIRECT``, ``RETURN``, ...; case-insensitive). Blank lines
and comment lines (first non-space character ``#``) are skipped anywhere
in the file — before the header, between records, or trailing — so
hand-annotated or tool-generated traces load as-is; error messages still
report physical line numbers. The header may not repeat a column or name
columns outside the set above (a typo'd column would otherwise be
silently ignored and its values defaulted). Loaded traces are validated
for control-flow consistency (each instruction's successor must be the
next record).

Paths ending in ``.gz`` or ``.xz`` are transparently (de)compressed on
both load and save, so ``trace.csv.gz`` works anywhere ``trace.csv``
does. Bulk ingestion of big traces belongs to :mod:`repro.corpus`, which
streams this same format (plus ChampSim-like and CVP-1-like records)
into a sharded on-disk store instead of Python lists.
"""

from __future__ import annotations

import csv
import gzip
import lzma
from typing import Dict, Iterator, Optional, Tuple

from repro.common.types import BranchType
from repro.trace.trace import NO_REG, NUM_REGS, Trace

REQUIRED_COLUMNS = ("pc", "btype", "taken", "target")
OPTIONAL_DEFAULTS: Dict[str, int] = {
    "dst": NO_REG,
    "src1": NO_REG,
    "src2": NO_REG,
    "is_load": 0,
    "is_store": 0,
    "maddr": 0,
}

#: One parsed instruction record, in :attr:`repro.trace.trace.Trace._COLUMNS`
#: order: (pc, btype, taken, target, dst, src1, src2, is_load, is_store,
#: maddr). The streaming corpus ingester consumes these directly.
Record = Tuple[int, int, int, int, int, int, int, int, int, int]


class TraceFormatError(ValueError):
    """Raised for malformed trace files."""


def open_trace_text(path, mode: str = "r"):
    """Open *path* for text I/O, decompressing ``.gz``/``.xz`` transparently.

    *mode* is ``"r"`` or ``"w"``; compressed paths are detected purely by
    suffix, matching how they were (or will be) written.
    """
    p = str(path)
    if p.endswith(".gz"):
        return gzip.open(p, mode + "t", newline="")
    if p.endswith(".xz"):
        return lzma.open(p, mode + "t", newline="")
    return open(p, mode, newline="")


class _LineFilter:
    """Line iterator that drops blank and ``#`` comment lines.

    Feeds :class:`csv.DictReader` while remembering the *physical* line
    number of the last line yielded, so diagnostics point at the real
    location in the file even when lines were skipped before it.
    """

    def __init__(self, handle) -> None:
        self._numbered = enumerate(handle, start=1)
        self.line_no = 0

    def __iter__(self) -> "_LineFilter":
        return self

    def __next__(self) -> str:
        for no, line in self._numbered:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            self.line_no = no
            return line
        raise StopIteration


def _parse_int(text: str, line_no: int, column: str) -> int:
    text = text.strip()
    if not text:
        raise TraceFormatError(f"line {line_no}: empty value for {column!r}")
    try:
        return int(text, 0)  # handles decimal and 0x-prefixed hex
    except ValueError:
        raise TraceFormatError(
            f"line {line_no}: bad integer {text!r} in column {column!r}"
        ) from None


def _parse_btype(text: str, line_no: int) -> int:
    text = text.strip()
    if text.lstrip("-").isdigit():
        value = int(text)
        try:
            return BranchType(value)
        except ValueError:
            raise TraceFormatError(
                f"line {line_no}: unknown btype value {value}"
            ) from None
    try:
        return BranchType[text.upper()]
    except KeyError:
        raise TraceFormatError(
            f"line {line_no}: unknown btype name {text!r}"
        ) from None


def _check_header(fields) -> None:
    """Reject missing, duplicated, or unknown header columns."""
    known = set(REQUIRED_COLUMNS) | set(OPTIONAL_DEFAULTS)
    missing = [c for c in REQUIRED_COLUMNS if c not in fields]
    if missing:
        raise TraceFormatError(f"missing required columns: {', '.join(missing)}")
    seen = set()
    dupes = []
    for f in fields:
        if f in seen and f not in dupes:
            dupes.append(f)
        seen.add(f)
    if dupes:
        raise TraceFormatError(
            f"duplicated column(s) in header: {', '.join(dupes)}"
        )
    unknown = [f for f in fields if f not in known]
    if unknown:
        raise TraceFormatError(
            f"unknown column(s) in header: {', '.join(unknown)}; "
            f"known columns: {', '.join(list(REQUIRED_COLUMNS) + list(OPTIONAL_DEFAULTS))}"
        )


def iter_csv_records(handle) -> Iterator[Record]:
    """Stream :data:`Record` tuples from an open canonical-CSV handle.

    This is the bounded-memory core shared by :func:`load_trace_csv` and
    the corpus ingestion pipeline: one record is parsed and yielded at a
    time, nothing is accumulated. Raises :class:`TraceFormatError`
    (without a path prefix — callers attach it) on malformed input.
    """
    source = _LineFilter(handle)
    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        raise TraceFormatError("empty trace file (missing header)")
    fields = [f.strip() for f in reader.fieldnames]
    _check_header(fields)
    for row in reader:
        line_no = source.line_no
        row = {k.strip(): (v or "") for k, v in row.items() if k}
        optional = {}
        for column, default in OPTIONAL_DEFAULTS.items():
            raw = row.get(column, "")
            optional[column] = (
                _parse_int(raw, line_no, column) if raw.strip() else default
            )
        for column in ("dst", "src1", "src2"):
            if not NO_REG <= optional[column] < NUM_REGS:
                raise TraceFormatError(
                    f"line {line_no}: register {optional[column]} in column "
                    f"{column!r} is not {NO_REG} (none) or 0..{NUM_REGS - 1}"
                )
        yield (
            _parse_int(row["pc"], line_no, "pc"),
            int(_parse_btype(row["btype"], line_no)),
            1 if _parse_int(row["taken"], line_no, "taken") else 0,
            _parse_int(row["target"], line_no, "target"),
            optional["dst"],
            optional["src1"],
            optional["src2"],
            1 if optional["is_load"] else 0,
            1 if optional["is_store"] else 0,
            optional["maddr"],
        )


def load_trace_csv(path: str, name: Optional[str] = None, validate: bool = True) -> Trace:
    """Load a trace from *path*; see module docstring for the format.

    ``.csv.gz`` / ``.csv.xz`` paths are decompressed transparently.
    Every raised :class:`TraceFormatError` — parse errors, validation
    failures, and unreadable files alike — names *path*, so a failing
    point in a big sweep is attributable without a traceback.
    """
    try:
        return _load_trace_csv(path, name, validate)
    except TraceFormatError as exc:
        raise TraceFormatError(f"{path}: {exc}") from None
    except (OSError, EOFError) as exc:
        # gzip.BadGzipFile is an OSError; a truncated gzip stream raises
        # EOFError mid-iteration.
        reason = getattr(exc, "strerror", None) or str(exc) or type(exc).__name__
        raise TraceFormatError(f"{path}: {reason}") from None
    except lzma.LZMAError as exc:
        raise TraceFormatError(f"{path}: {exc}") from None


def _load_trace_csv(path: str, name: Optional[str], validate: bool) -> Trace:
    trace = Trace(name=name or str(path))
    with open_trace_text(path) as handle:
        for record in iter_csv_records(handle):
            trace.append(
                pc=record[0],
                btype=record[1],
                taken=bool(record[2]),
                target=record[3],
                dst=record[4],
                src1=record[5],
                src2=record[6],
                is_load=bool(record[7]),
                is_store=bool(record[8]),
                maddr=record[9],
            )
    if not len(trace):
        raise TraceFormatError("trace file contains no instructions")
    if validate:
        try:
            trace.validate()
        except ValueError as exc:
            raise TraceFormatError(f"inconsistent control flow: {exc}") from exc
    return trace


def save_trace_csv(trace: Trace, path: str) -> None:
    """Write *trace* to *path* in the format :func:`load_trace_csv` reads.

    ``.csv.gz`` / ``.csv.xz`` paths are compressed transparently.
    """
    columns = list(REQUIRED_COLUMNS) + list(OPTIONAL_DEFAULTS)
    with open_trace_text(path, "w") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for i in range(len(trace)):
            writer.writerow(
                [
                    f"{trace.pc[i]:#x}",
                    BranchType(trace.btype[i]).name,
                    trace.taken[i],
                    f"{trace.target[i]:#x}",
                    trace.dst[i],
                    trace.src1[i],
                    trace.src2[i],
                    trace.is_load[i],
                    trace.is_store[i],
                    f"{trace.maddr[i]:#x}",
                ]
            )
