"""Dynamic instruction trace container.

A :class:`Trace` is a column-oriented record of retired instructions, the
same abstraction level as the CVP-1 traces the paper uses: for every
dynamic instruction we know its PC, branch kind, outcome and target, plus
register operands and memory address so a timing model can reconstruct
data-flow and drive the data-side cache hierarchy.

Columns are plain Python lists of ints (fastest to iterate in pure
Python); :meth:`Trace.save` / :meth:`Trace.load` round-trip through
compressed ``.npz`` for persistence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

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
    ints whatever the stored type.
    """
    arr = np.asarray(values, dtype=np.int64)
    if not arr.size:
        return arr.astype(empty)
    lo, hi = arr.min(), arr.max()
    for tmin, tmax, t in _NARROW_TYPES:
        if tmin <= lo and hi <= tmax:
            return arr.astype(t)
    return arr


@dataclass
class Trace:
    """Column-oriented dynamic instruction trace.

    All columns have identical length. ``target[i]`` is the *actual* next
    PC for taken branches and 0 otherwise; non-branches always fall
    through to ``pc[i] + 4``.
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

    def __len__(self) -> int:
        return len(self.pc)

    def line_index(self) -> List[int]:
        """Per-instruction cache-line index (``pc // LINE_BYTES``).

        Computed vectorized on first use and cached; the simulator hot
        loop indexes this instead of dividing per access. The cache is
        invalidated by length, so appending after the first call
        recomputes on the next call.
        """
        cached = self.__dict__.get("_line_index")
        if cached is not None and len(cached) == len(self.pc):
            return cached
        if self.pc:
            lines = (np.asarray(self.pc, dtype=np.int64) // LINE_BYTES).tolist()
        else:
            lines = []
        self.__dict__["_line_index"] = lines
        return lines

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
        for col in ("dst", "src1", "src2"):
            regs = getattr(self, col)
            if regs and not (NO_REG <= min(regs) and max(regs) < NUM_REGS):
                raise ValueError(
                    f"column {col} holds a register outside {NO_REG}..{NUM_REGS - 1}"
                )
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
        """Serialize to a compressed ``.npz``, each column in the
        narrowest integer type that holds it (:func:`narrow_ints`)."""
        arrays = {col: narrow_ints(getattr(self, col)) for col in self._COLUMNS}
        np.savez_compressed(path, name=np.array(self.name), **arrays)

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Load a trace previously written with :meth:`save`."""
        with np.load(path, allow_pickle=False) as data:
            trace = cls(name=str(data["name"]))
            for col in cls._COLUMNS:
                # tolist() yields Python ints, like the columns synthesis builds.
                setattr(trace, col, data[col].tolist())
        return trace

    def slice(self, start: int, stop: Optional[int] = None) -> "Trace":
        """Return a sub-trace covering indices [start, stop)."""
        stop = len(self.pc) if stop is None else stop
        out = Trace(name=f"{self.name}[{start}:{stop}]")
        for col in self._COLUMNS:
            setattr(out, col, getattr(self, col)[start:stop])
        return out
