"""Dynamic instruction trace container.

A :class:`Trace` is a column-oriented record of retired instructions, the
same abstraction level as the CVP-1 traces the paper uses: for every
dynamic instruction we know its PC, branch kind, outcome and target, plus
register operands and memory address so a timing model can reconstruct
data-flow and drive the data-side cache hierarchy.

Columns are plain Python lists of ints (fastest to iterate in pure
Python); :meth:`Trace.save` / :meth:`Trace.load` round-trip through
compressed ``.npz`` for persistence. A trace built from numpy arrays
(:meth:`Trace.from_arrays`: synthesis and :meth:`Trace.load`) makes
each column a list on its first read, once; until then the vectorized
readers (:meth:`Trace.array`) take the array as it is.
"""

from __future__ import annotations

import io
import os
import zipfile
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.common.stats import Stats
from repro.common.types import ILEN, LINE_BYTES, BranchType, is_branch, line_of

#: Number of architectural integer registers modelled.
NUM_REGS = 32

#: Sentinel for "no register operand".
NO_REG = -1

#: The signed integer types a stored column narrows to, narrowest first,
#: with the range each holds.
_NARROW_TYPES = tuple(
    (np.iinfo(t).min, np.iinfo(t).max, t) for t in (np.int8, np.int16, np.int32)
)


def narrow_ints(values, empty=np.int64) -> np.ndarray:
    """*values* as an array of the narrowest signed integer type that
    holds them all: int8, int16 or int32, else int64. An empty column
    keeps the type *empty*.

    Stored columns are narrowed because compressing them costs more than
    anything else in a store, and less data compresses faster; loads
    read them back through ``tolist()``, which yields the same Python
    ints whatever the stored type. An integer array is narrowed as it
    is, without a pass through int64.
    """
    if isinstance(values, np.ndarray):
        arr = values
    else:
        arr = np.asarray(values, dtype=np.int64)
    if not arr.size:
        return arr.astype(empty)
    lo, hi = int(arr.min()), int(arr.max())
    for tmin, tmax, t in _NARROW_TYPES:
        if tmin <= lo and hi <= tmax:
            return arr.astype(t, copy=False)
    return arr.astype(np.int64, copy=False)


#: zlib level of stored ``.npz`` entries. Level 1 deflates a trace or
#: plan entry in about half the time of the default 6; the entries come
#: out 1.3–1.6× larger at 10 k instructions, and 160 K plans 2.1–2.3×
#: (docs/performance.md).
NPZ_LEVEL = 1


def save_npz(file, **arrays) -> None:
    """``np.savez_compressed(file, **arrays)`` at zlib level
    :data:`NPZ_LEVEL`: the same zip layout, member names and dtypes, so
    ``np.load`` reads the entry whichever level wrote it.

    The archive is built in memory and written in one piece: the zip
    writer seeks back to finish each member's header, and on a file
    every seek is a flush and a system call."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED, allowZip64=True,
                         compresslevel=NPZ_LEVEL) as archive:
        for key, value in arrays.items():
            with archive.open(key + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(member, np.asanyarray(value),
                                          allow_pickle=False)
    if hasattr(file, "write"):
        file.write(buffer.getbuffer())
        return
    file = os.fspath(file)
    if not file.endswith(".npz"):
        file += ".npz"
    with open(file, "wb") as out:
        out.write(buffer.getbuffer())


@dataclass
class Trace:
    """Column-oriented dynamic instruction trace.

    All columns have identical length. ``target[i]`` is the *actual* next
    PC for taken branches and 0 otherwise; non-branches always fall
    through to ``pc[i] + 4``.

    A trace made by :meth:`from_arrays` holds each column as an integer
    array until the column is first read as an attribute: that read
    makes the list (``tolist()``, so every value is a Python int) and
    drops the array. The lists are the trace; an array only ever stands
    in for a list not made yet, so an edit (which needs the list) is
    seen by every reader.
    """

    name: str = "anon"
    pc: List[int] = field(default_factory=list)
    btype: List[int] = field(default_factory=list)
    taken: List[int] = field(default_factory=list)
    target: List[int] = field(default_factory=list)
    dst: List[int] = field(default_factory=list)
    src1: List[int] = field(default_factory=list)
    src2: List[int] = field(default_factory=list)
    is_load: List[int] = field(default_factory=list)
    is_store: List[int] = field(default_factory=list)
    maddr: List[int] = field(default_factory=list)

    _COLUMNS = (
        "pc",
        "btype",
        "taken",
        "target",
        "dst",
        "src1",
        "src2",
        "is_load",
        "is_store",
        "maddr",
    )

    @classmethod
    def from_arrays(cls, name: str, arrays: Mapping[str, np.ndarray]) -> "Trace":
        """A trace over one integer array per column (see the class
        docstring: each becomes a list on its first read)."""
        columns = {col: arrays[col] for col in cls._COLUMNS}
        if len({len(column) for column in columns.values()}) > 1:
            raise ValueError("columns differ in length")
        trace = cls.__new__(cls)
        trace.name = name
        trace.__dict__["_arrays"] = columns
        return trace

    def __getattr__(self, name: str):
        # Reached only for attributes not in the instance dict: here, a
        # column still held as an array. The list is set before the
        # array goes, and ``setdefault`` keeps the first list set, so
        # threads reading a column at once all get that one list. The
        # dict of arrays is replaced, never changed, so a copy of the
        # trace keeps its own.
        arrays = self.__dict__.get("_arrays")
        if arrays is not None and name in arrays:
            column = self.__dict__.setdefault(name, arrays[name].tolist())
            self.__dict__["_arrays"] = {
                col: arr for col, arr in arrays.items() if col != name
            }
            return column
        column = self.__dict__.get(name)  # made by another thread meanwhile
        if column is not None:
            return column
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _held(self, col: str):
        """Column *col* as the trace holds it, its list or the array
        standing in for it, without making a list."""
        column = self.__dict__.get(col)
        if column is None:
            column = self.__dict__.get("_arrays", {}).get(col)
            if column is None:  # made into a list meanwhile
                column = getattr(self, col)
        return column

    def array(self, col: str) -> np.ndarray:
        """Column *col* as an integer array, for vectorized readers: the
        array the trace holds while the column's list is not made (of
        whatever integer type it was given), else the list as int64.
        Read-only: the array may be the trace's own."""
        column = self._held(col)
        if isinstance(column, np.ndarray):
            return column
        return np.fromiter(column, np.int64, len(column))

    def take(self, col: str, rows: np.ndarray) -> List[int]:
        """Column *col* at the indices *rows* (an integer array), as
        Python ints, read from the array or the list the trace holds,
        neither made nor converted."""
        column = self._held(col)
        if isinstance(column, np.ndarray):
            return column[rows].tolist()
        return list(map(column.__getitem__, rows.tolist()))

    def __len__(self) -> int:
        return len(self._held("pc"))

    def line_index(self) -> List[int]:
        """Per-instruction cache-line index (``pc // LINE_BYTES``).

        Computed vectorized on first use and cached; the simulator hot
        loop indexes this instead of dividing per access. The cache is
        invalidated by length, so appending after the first call
        recomputes on the next call.
        """
        cached = self.__dict__.get("_line_index")
        if cached is not None and len(cached) == len(self):
            return cached
        lines = (self.array("pc") // LINE_BYTES).tolist()
        self.__dict__["_line_index"] = lines
        return lines

    def check_registers(self) -> None:
        """Raise ``ValueError`` when a register operand lies outside
        ``NO_REG..NUM_REGS - 1``: the kernel reads sources one slot up,
        so -2 would read register 31 there and nothing on the
        interpreter, and 32 indexes past the register file on both.

        Vectorized over the columns and memoized like
        :meth:`line_index` (by length), so the runs of one trace check
        it once; an operand edited in place after that is not checked.
        """
        n = len(self)
        if self.__dict__.get("_registers_checked") == n:
            return
        self._check_registers()
        self.__dict__["_registers_checked"] = n

    def _check_registers(self) -> None:
        for col in ("dst", "src1", "src2"):
            regs = self.array(col)
            if regs.size and not (NO_REG <= regs.min() and regs.max() < NUM_REGS):
                raise ValueError(
                    f"column {col} holds a register outside {NO_REG}..{NUM_REGS - 1}"
                )

    def append(
        self,
        pc: int,
        btype: int = BranchType.NONE,
        taken: bool = False,
        target: int = 0,
        dst: int = NO_REG,
        src1: int = NO_REG,
        src2: int = NO_REG,
        is_load: bool = False,
        is_store: bool = False,
        maddr: int = 0,
    ) -> None:
        """Append one dynamic instruction."""
        self.pc.append(pc)
        self.btype.append(int(btype))
        self.taken.append(1 if taken else 0)
        self.target.append(target)
        self.dst.append(dst)
        self.src1.append(src1)
        self.src2.append(src2)
        self.is_load.append(1 if is_load else 0)
        self.is_store.append(1 if is_store else 0)
        self.maddr.append(maddr)

    def next_pc(self, i: int) -> int:
        """Architectural successor PC of instruction *i*."""
        if self.taken[i]:
            return self.target[i]
        return self.pc[i] + ILEN

    def validate(self) -> None:
        """Check structural invariants; raise ValueError on violation."""
        n = len(self.pc)
        for col in self._COLUMNS:
            if len(getattr(self, col)) != n:
                raise ValueError(f"column {col} length mismatch")
        self._check_registers()
        for i in range(n - 1):
            if self.next_pc(i) != self.pc[i + 1]:
                raise ValueError(
                    f"control-flow break at index {i}: "
                    f"next_pc={self.next_pc(i):#x} but pc[{i + 1}]={self.pc[i + 1]:#x}"
                )
            if self.taken[i] and not is_branch(self.btype[i]):
                raise ValueError(f"non-branch marked taken at index {i}")

    # -- workload statistics (paper §2 / §4) --------------------------------

    def stats(self) -> Stats:
        """Workload characterization mirroring the paper's reported stats."""
        st = Stats()
        n = len(self.pc)
        st.set("instructions", n)
        lines = set()
        never_taken_pcs: Dict[int, bool] = {}
        run = 0
        runs: List[int] = []
        for i in range(n):
            lines.add(line_of(self.pc[i]))
            bt = self.btype[i]
            run += 1
            if bt:
                st.add("branches")
                st.add(f"branches_{BranchType(bt).name.lower()}")
                if self.taken[i]:
                    st.add("taken_branches")
                    runs.append(run)
                    run = 0
                if bt == BranchType.COND_DIRECT:
                    prev = never_taken_pcs.get(self.pc[i], True)
                    never_taken_pcs[self.pc[i]] = prev and not self.taken[i]
            if self.is_load[i]:
                st.add("loads")
            if self.is_store[i]:
                st.add("stores")
        st.set("code_footprint_bytes", len(lines) * 64)
        if runs:
            st.set("mean_dynamic_bb_size", sum(runs) / len(runs))
        # Dynamic share of never-taken conditional branches, as in §2.
        nt_dyn = 0
        for i in range(n):
            if self.btype[i] == BranchType.COND_DIRECT and never_taken_pcs.get(
                self.pc[i]
            ):
                nt_dyn += 1
        st.set("never_taken_cond_dynamic", nt_dyn)
        return st

    def mean_basic_block_size(self) -> float:
        """Mean number of instructions between taken branches."""
        taken = sum(self.taken)
        if not taken:
            return float(len(self.pc))
        return len(self.pc) / taken

    # -- persistence ---------------------------------------------------------

    def save(self, path: str) -> None:
        """Serialize to a compressed ``.npz`` (:func:`save_npz`), each
        column in the narrowest integer type that holds it
        (:func:`narrow_ints`), narrowed from :meth:`array`."""
        arrays = {col: narrow_ints(self.array(col)) for col in self._COLUMNS}
        save_npz(path, name=np.array(self.name), **arrays)

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Load a trace previously written with :meth:`save`, over the
        arrays read (:meth:`from_arrays`)."""
        with np.load(path, allow_pickle=False) as data:
            return cls.from_arrays(
                str(data["name"]), {col: data[col] for col in cls._COLUMNS}
            )

    def slice(self, start: int, stop: Optional[int] = None) -> "Trace":
        """Return a sub-trace covering indices [start, stop)."""
        stop = len(self.pc) if stop is None else stop
        out = Trace(name=f"{self.name}[{start}:{stop}]")
        for col in self._COLUMNS:
            setattr(out, col, getattr(self, col)[start:stop])
        return out
