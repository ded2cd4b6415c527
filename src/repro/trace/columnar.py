"""Decode-once columnar trace plans for the simulation kernel.

A sweep runs the *same* workload trace through many machine configs, yet
every per-config engine walks the Python-object :class:`~repro.trace.trace.Trace`
from scratch: re-deriving cache-line indices, scanning forward for the
next branch one instruction at a time, and — most expensively — replaying
the prediction engine (hashed perceptron, folded global history, indirect
table, RAS) whose state provably never depends on the BTB organization
(it trains on trace outcomes only; see ``PredictionEngine.resolve``).

This module pays those costs once per workload:

* :class:`ColumnarTrace` lowers a ``Trace`` into typed numpy arrays —
  PCs, targets, taken bits, branch kinds, fall-through/next-PC — plus
  three derived plans computed with vectorized numpy ops:

  - ``next_br[i]``: index of the first branch at or after ``i`` (``n``
    when none remain), i.e. inter-branch instruction counts; lets a
    scan loop jump over non-branch runs instead of testing each one;
  - ``run_end[i]``: exclusive end of the cache-line run containing
    ``i``; replaces the per-instruction line-segmentation loop;
  - ``line_ix[i]``: per-instruction cache-line index
    (``pc // LINE_BYTES``), shared across configs instead of being
    recomputed per simulator via ``Trace.line_index``.

* :class:`PredictorPlan` replays the prediction engine once and records,
  per branch, exactly the values a per-config kernel needs:
  ``pt`` (perceptron direction prediction), ``ras_ok`` (RAS pop matched
  the return target) and ``ind_pred`` (raw indirect-table read, 0 when
  cold). The replica below mirrors ``PredictionEngine.resolve`` /
  ``HashedPerceptron`` / ``FoldedRegister`` decision-for-decision, so
  kernels consuming the plan stay bit-identical to the interpreter
  (enforced by differential goldens in ``tests/kernel/``).

* :func:`build_data_plan` replays the two d-side structures whose
  evolution depends on the load/store stream alone, in program order:
  the DTLB (``TLB.translate`` reads no cycle, and only loads and stores
  touch it) and the L1D's IP-stride prefetcher table. It records, per
  load or store, ``dtlb_miss`` (the DTLB missed: the kernel calls the
  shared L2 TLB, whose state the ITLB also moves) and ``dstride`` (the
  stride the prefetcher fetches ``degree`` lines along, 0 when it
  fetches nothing).

Plans are cached on disk as ``.npz`` through the :class:`DiskCache`
``plans`` tier, keyed by trace content hash (and predictor geometry for
:class:`PredictorPlan`), and pruned by ``repro-sim corpus gc`` when the
backing corpus entry disappears.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import getitem
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.branch.indirect import IndirectPredictor
from repro.branch.perceptron import HISTORY_LENGTHS
from repro.common.types import ILEN, LINE_BYTES
from repro.memory.hierarchy import MemoryConfig
from repro.memory.prefetch import IPStridePrefetcher
from repro.memory.tlb import PAGE_BYTES
from repro.trace.trace import narrow_ints

#: Version of the columnar/predictor-plan layout *and* of the replica
#: semantics. Bump whenever the derivation or the prediction engine
#: changes so stale cached plans become unreachable.
COLUMNAR_SCHEMA = 2

#: ``repro.common.rng.mix_hash`` constants.
_HASH_K = 0x9E3779B97F4A7C15
_HASH_MUL = 0xBF58476D1CE4E5B9


# ---------------------------------------------------------------------------
# Columnar lowering
# ---------------------------------------------------------------------------


@dataclass
class ColumnarTrace:
    """Typed-array view of a trace plus vectorized derived plans.

    All arrays have one entry per instruction.
    """

    n: int
    pc: np.ndarray
    btype: np.ndarray
    taken: np.ndarray
    target: np.ndarray
    next_pc: np.ndarray
    next_br: np.ndarray
    run_end: np.ndarray
    line_ix: np.ndarray


def _derive(pc: np.ndarray, btype: np.ndarray, taken: np.ndarray,
            target: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized next-branch / line-run / line-index derivations."""
    n = len(pc)
    line_ix = pc // LINE_BYTES
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), line_ix
    idx = np.arange(n, dtype=np.int64)
    # next_br[i] = min index j >= i with btype[j] != 0, else n.
    nb = np.where(btype != 0, idx, np.int64(n))
    next_br = np.minimum.accumulate(nb[::-1])[::-1]
    # run_end[i] = exclusive end of the cache-line run containing i.
    chg = np.nonzero(np.diff(line_ix))[0] + 1
    bounds = np.concatenate((chg, [n])).astype(np.int64)
    run_end = bounds[np.searchsorted(bounds, idx, side="right")]
    return next_br, run_end, line_ix


def lower_trace(trace) -> ColumnarTrace:
    """Lower a :class:`~repro.trace.trace.Trace` into columnar form, from
    its arrays (:meth:`~repro.trace.trace.Trace.array`)."""
    pc, btype, taken, target = (
        trace.array(col).astype(np.int64, copy=False)
        for col in ("pc", "btype", "taken", "target")
    )
    next_pc = np.where(taken != 0, target, pc + ILEN)
    next_br, run_end, line_ix = _derive(pc, btype, taken, target)
    return ColumnarTrace(
        n=len(pc), pc=pc, btype=btype, taken=taken, target=target,
        next_pc=next_pc, next_br=next_br, run_end=run_end, line_ix=line_ix,
    )


# ---------------------------------------------------------------------------
# Predictor geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredictorGeometry:
    """The structural knobs the prediction-engine replay depends on.

    Everything else about a :class:`MachineConfig` (BTB kind/geometry,
    backend, caches) is invisible to the prediction engine — its state
    evolves from trace outcomes only — so one plan serves every config
    sharing this geometry.
    """

    ptable_mask: int
    theta: int
    ind_mask: int
    ras_depth: int

    def key_fields(self) -> Dict[str, int]:
        return {
            "ptable_mask": self.ptable_mask,
            "theta": self.theta,
            "ind_mask": self.ind_mask,
            "ras_depth": self.ras_depth,
        }


# ---------------------------------------------------------------------------
# Predictor plan
# ---------------------------------------------------------------------------


@dataclass
class PredictorPlan:
    """Per-branch prediction outcomes shared by every config of one
    predictor geometry: ``pt[i]`` (cond direction prediction, 0/1),
    ``ras_ok[i]`` (return target matched the RAS pop, 0/1) and
    ``ind_pred[i]`` (raw indirect-table read at predict time; 0 = cold).
    Entries for non-branches (and for kinds a field does not apply to)
    are zero and never read."""

    geometry: PredictorGeometry
    pt: np.ndarray
    ras_ok: np.ndarray
    ind_pred: np.ndarray


def _folds(bits: np.ndarray, width: int,
           lengths: Sequence[int]) -> List[np.ndarray]:
    """Every value a ``FoldedRegister(length, width)`` takes as *bits*
    are pushed, for each of *lengths*: ``folds[i][k]`` is the fold after
    the first ``k`` pushes.

    The register's circular-shift update unrolls to a closed form: the
    history bit pushed ``i`` pushes ago sits at position ``i % width``.
    So a fold is the XOR of the history's ``width``-bit chunks, newest
    first, with the oldest chunk cut at ``length``.
    """
    n = len(bits)
    lead = max(lengths, default=0) + width
    padded = np.zeros(lead + n, dtype=np.uint64)
    padded[lead:] = bits
    # chunk[lead + k]: the newest `width` bits after k pushes (newest at
    # bit 0); the leading zeros stand for the empty history.
    chunk = np.zeros(lead + n + 1, dtype=np.uint64)
    for r in range(width):
        chunk[1 + r:] |= padded[:lead + n - r] << np.uint64(r)
    folds = []
    for length in lengths:
        fold = np.zeros(n + 1, dtype=np.uint64)
        for start in range(0, length, width):
            keep = np.uint64((1 << min(width, length - start)) - 1)
            fold ^= chunk[lead - start:lead - start + n + 1] & keep
        folds.append(fold)
    return folds


def build_predictor_plan(col: ColumnarTrace,
                         geometry: PredictorGeometry) -> PredictorPlan:
    """Replay the prediction engine once over the trace.

    A decision-for-decision replica of ``PredictionEngine.resolve``
    restricted to the state that evolves independently of the BTB:
    perceptron tables, folded global history, indirect table and RAS.
    The global history depends on the trace alone (a conditional pushes
    its outcome, every other branch a 1), so the folds and every table
    index are computed up front, vectorized; only the perceptron
    training, the indirect table and the RAS run branch by branch.
    Ordering subtleties preserved exactly:

    * conditional branches predict/update the perceptron *before* their
      history push, so they index with the folds of the earlier pushes;
    * every other branch kind pushes history *first*, so the indirect
      index is computed with the post-push fold;
    * the indirect table is read (plan value), then updated, and only
      then does an indirect call push the RAS.
    """
    mask = geometry.ptable_mask
    theta = geometry.theta
    ras_depth = geometry.ras_depth
    index_width = (mask + 1).bit_length() - 1
    ind_width = (geometry.ind_mask + 1).bit_length() - 1

    branches = np.nonzero(col.btype)[0]
    kinds = col.btype[branches]
    is_cond = kinds == 1
    conds = np.nonzero(is_cond)[0]  # branch ordinals of the conditionals
    bits = np.where(is_cond, col.taken[branches], 1)
    # mix_hash of each branch PC (uint64 arithmetic wraps like & 2**64-1).
    h = np.uint64(_HASH_K) ^ col.pc[branches].astype(np.uint64)
    h *= np.uint64(_HASH_MUL)
    h ^= h >> np.uint64(29)

    # Perceptron indices, one row per conditional (HashedPerceptron._indices).
    lengths = [length for length in HISTORY_LENGTHS if length]
    folds = iter(_folds(bits, index_width, lengths))
    hc = h[conds]
    columns = []
    for t, length in enumerate(HISTORY_LENGTHS):
        ix = hc if not length else hc ^ next(folds)[conds] ^ np.uint64(t << 3)
        columns.append(ix & np.uint64(mask))
    rows = iter(np.stack(columns, axis=1).tolist())
    # Indirect-table index of every branch, after its own push.
    (ifold,) = _folds(bits, ind_width, [IndirectPredictor.HISTORY_BITS])
    ind_ix = ((h ^ ifold[1:]) & np.uint64(geometry.ind_mask)).tolist()

    tables = [[0] * (mask + 1) for _ in HISTORY_LENGTHS]
    itab = [0] * (geometry.ind_mask + 1)
    ras: List[int] = []
    taken_at = bits.tolist()
    pcs = col.pc[branches].tolist()
    targets = col.target[branches].tolist()
    cond_pt: List[bool] = []
    ras_ok = np.zeros(col.n, dtype=np.uint8)
    ind_pred = np.zeros(col.n, dtype=np.int64)
    for k, bt in enumerate(kinds.tolist()):
        if bt == 1:
            # predict, then train (classic margin rule, 8-bit weights:
            # a step past either bound leaves the weight where it is).
            row = next(rows)
            total = sum(map(getitem, tables, row))
            predicted = total >= 0
            cond_pt.append(predicted)
            took = taken_at[k] == 1
            if predicted != took or -theta <= total <= theta:
                delta = 1 if took else -1
                for table, ix in zip(tables, row):
                    w = table[ix] + delta
                    if -128 <= w <= 127:
                        table[ix] = w
        elif bt == 4:  # RETURN
            # An empty RAS pops None in the reference engine: never equal.
            if ras:
                ras_ok[branches[k]] = ras.pop() == targets[k]
        else:
            if bt >= 5:  # INDIRECT / CALL_INDIRECT
                ii = ind_ix[k]
                ind_pred[branches[k]] = itab[ii]
                itab[ii] = targets[k]
            if bt == 3 or bt == 6:  # calls push their return address
                if len(ras) >= ras_depth:
                    del ras[0]
                ras.append(pcs[k] + ILEN)

    pt = np.zeros(col.n, dtype=np.uint8)
    pt[branches[conds]] = cond_pt
    return PredictorPlan(geometry=geometry, pt=pt, ras_ok=ras_ok,
                         ind_pred=ind_pred)


# ---------------------------------------------------------------------------
# Data-side plan: DTLB misses and IP-stride prefetches per load and store
# ---------------------------------------------------------------------------

#: ``(DTLB sets, DTLB ways, stride-table entries)`` of every hierarchy a
#: ``MachineConfig`` builds (``scale`` shrinks only the instruction side),
#: so the data-side columns need no key of their own.
DATA_GEOMETRY = (MemoryConfig.dtlb_sets, MemoryConfig.dtlb_ways,
                 IPStridePrefetcher().table_entries)


def data_accesses(trace) -> Tuple[List[int], List[int]]:
    """PCs and addresses of *trace*'s loads and stores, in program order
    (the order the back end admits them, and so the order they reach
    the DTLB and the stride prefetcher)."""
    mem_op = np.flatnonzero(trace.array("is_load") | trace.array("is_store"))
    return trace.take("pc", mem_op), trace.take("maddr", mem_op)


def stride_step(table: Dict, entries: int, pc: int, addr: int) -> int:
    """``IPStridePrefetcher.on_access`` on *table*: the stride the access
    prefetches along, else 0. (:func:`build_data_plan` inlines it.)"""
    state = table.get(pc)
    if state is None:
        if len(table) >= entries:
            del table[next(iter(table))]
        table[pc] = (addr, 0, 0)
        return 0
    last_addr, last_stride, conf = state
    stride = addr - last_addr
    if stride != 0 and stride == last_stride:
        if conf < 3:
            conf += 1
    elif conf:
        conf -= 1
    table[pc] = (addr, stride, conf)
    return stride if conf >= 2 else 0


def build_data_plan(pcs: List[int], addrs: List[int], dtlb=None,
                    stride=None) -> Tuple[List[int], List[int]]:
    """``(dtlb_miss, dstride)`` for the loads and stores *pcs*/*addrs*.

    Replays a DTLB and a stride table of :data:`DATA_GEOMETRY`, both
    empty, or, given the live *dtlb* (a ``TLB``) and *stride* (an
    ``IPStridePrefetcher``), of their geometry from their current state
    (which the replay leaves untouched).

    The DTLB keeps each set's pages in LRU order as dict insertion order
    (ticks are unique, so that order is the reference's). An access to
    the page the access before it touched hits and leaves every set's
    order as it was, so only page changes are replayed.
    """
    if dtlb is None:
        sets, ways, entries = DATA_GEOMETRY
        lru = [{} for _ in range(sets)]
        table: Dict = {}
    else:
        sets, ways, entries = dtlb.array.sets, dtlb.array.ways, stride.table_entries
        lru = [dict.fromkeys(sorted(b, key=lambda t, b=b: b[t][1]))
               for b in dtlb.array._sets]
        table = dict(stride._table)
    mask = sets - 1
    miss = [0] * len(pcs)
    strides = [0] * len(pcs)
    last_page = None
    k = 0
    for pc, addr in zip(pcs, addrs):
        page = addr // PAGE_BYTES
        if page != last_page:
            last_page = page
            lru_set = lru[page & mask]
            if page in lru_set:
                del lru_set[page]
            else:
                miss[k] = 1
                if len(lru_set) >= ways:
                    del lru_set[next(iter(lru_set))]
            lru_set[page] = None
        state = table.get(pc)
        if state is None:
            if len(table) >= entries:
                del table[next(iter(table))]
            table[pc] = (addr, 0, 0)
        else:
            last_addr, last_stride, conf = state
            delta = addr - last_addr
            if delta != 0 and delta == last_stride:
                if conf < 3:
                    conf += 1
            elif conf:
                conf -= 1
            table[pc] = (addr, delta, conf)
            if conf >= 2 and delta:
                strides[k] = delta
        k += 1
    return miss, strides


def stride_table(trace, stride, count: int) -> Dict:
    """The stride table the live *stride* prefetcher would hold after
    *trace*'s first *count* loads and stores, replayed from its current
    state (left untouched)."""
    table = dict(stride._table)
    pcs, addrs = data_accesses(trace)
    for pc, addr in zip(pcs[:count], addrs[:count]):
        stride_step(table, stride.table_entries, pc, addr)
    return table


def data_columns(plan, dtlb, stride, trace) -> Tuple[List[int], List[int]]:
    """The ``(dtlb_miss, dstride)`` columns a kernel run on the live
    *dtlb* and *stride* objects consumes: *plan*'s own, when they were
    replayed for this geometry from the empty state these objects are
    in, else a replay for this run alone."""
    arr = dtlb.array
    if (arr._tick == 0 and not stride._table
            and (arr.sets, arr.ways, stride.table_entries) == tuple(plan.dgeom)):
        return plan.dtlb_miss, plan.dstride
    pcs, addrs = data_accesses(trace)
    return build_data_plan(pcs, addrs, dtlb, stride)


# ---------------------------------------------------------------------------
# Batch plan: what a generated kernel binds in its prelude
# ---------------------------------------------------------------------------


class BatchPlan:
    """Bundle handed to a kernel: the runtime arrays of a columnar trace
    + predictor plan + data-side plan, exposed as plain lists (list
    indexing beats numpy scalar indexing in CPython hot loops). Built
    once per (workload, geometry) and shared by every config in the
    batch; persistable as an ``.npz`` payload through the disk cache's
    ``plans`` tier.

    ``next_br`` and ``run_end`` are held as offsets from their own index
    (``j + next_br[j]`` is the next branch, ``i + run_end[i]`` the end of
    the line run): the offsets are small, and CPython shares one object
    per small int where absolute indices would each cost one.
    ``dtlb_miss`` and ``dstride`` have one entry per load or store, in
    program order, replayed for ``dgeom`` (:data:`DATA_GEOMETRY`)."""

    __slots__ = ("geometry", "line_ix", "next_br", "run_end",
                 "pt", "ras_ok", "ind_pred", "dtlb_miss", "dstride", "dgeom")

    #: Arrays persisted per plan (everything a kernel reads).
    PAYLOAD_KEYS = ("line_ix", "next_br", "run_end", "pt", "ras_ok",
                    "ind_pred", "dtlb_miss", "dstride", "dgeom")

    #: The type an empty payload array keeps (:func:`narrow_ints`).
    _EMPTY = {"pt": np.uint8, "ras_ok": np.uint8, "dtlb_miss": np.uint8}

    def __init__(self, geometry: PredictorGeometry, line_ix, next_br,
                 run_end, pt, ras_ok, ind_pred, dtlb_miss, dstride,
                 dgeom) -> None:
        self.geometry = geometry
        self.line_ix = line_ix
        self.next_br = next_br
        self.run_end = run_end
        self.pt = pt
        self.ras_ok = ras_ok
        self.ind_pred = ind_pred
        self.dtlb_miss = dtlb_miss
        self.dstride = dstride
        self.dgeom = dgeom

    @classmethod
    def from_parts(cls, col: ColumnarTrace, plan: PredictorPlan,
                   data: Tuple[List[int], List[int]]
                   ) -> Tuple["BatchPlan", Dict[str, np.ndarray]]:
        """The plan, and the numpy arrays its first six columns were
        made from (:func:`build_plan_entry` stores those)."""
        idx = np.arange(col.n, dtype=np.int64)
        derived = {
            "line_ix": col.line_ix, "next_br": col.next_br - idx,
            "run_end": col.run_end - idx, "pt": plan.pt,
            "ras_ok": plan.ras_ok, "ind_pred": plan.ind_pred,
        }
        out = cls(plan.geometry, *(a.tolist() for a in derived.values()),
                  *data, list(DATA_GEOMETRY))
        return out, derived

    @classmethod
    def from_payload(cls, geometry: PredictorGeometry,
                     arrays: Dict[str, np.ndarray]) -> "BatchPlan":
        cols = [np.asarray(arrays[k]).tolist() for k in cls.PAYLOAD_KEYS]
        return cls(geometry, *cols)

    @classmethod
    def narrow(cls, columns) -> Dict[str, np.ndarray]:
        """*columns* (lists or arrays, by payload key) as the payload
        stores them: each in the narrowest integer type that holds it
        (:func:`~repro.trace.trace.narrow_ints`); an empty one keeps the
        type it always had."""
        return {
            k: narrow_ints(columns[k], cls._EMPTY.get(k, np.int64))
            for k in cls.PAYLOAD_KEYS
        }

    def payload(self) -> Dict[str, np.ndarray]:
        """The persisted arrays, narrowed from the plan's lists."""
        return self.narrow({k: getattr(self, k) for k in self.PAYLOAD_KEYS})


def _build(trace, geometry: PredictorGeometry
           ) -> Tuple[BatchPlan, Dict[str, np.ndarray]]:
    col = lower_trace(trace)
    return BatchPlan.from_parts(col, build_predictor_plan(col, geometry),
                                build_data_plan(*data_accesses(trace)))


def build_batch_plan(trace, geometry: PredictorGeometry) -> BatchPlan:
    """Lower *trace*, replay the predictors for *geometry* and the
    data side for :data:`DATA_GEOMETRY`."""
    return _build(trace, geometry)[0]


def build_plan_entry(trace, geometry: PredictorGeometry
                     ) -> Tuple[BatchPlan, Dict[str, np.ndarray]]:
    """:func:`build_batch_plan`, and the payload to store, narrowed from
    the arrays the build derived: equal to the plan's
    :meth:`~BatchPlan.payload`, without converting its lists back."""
    plan, derived = _build(trace, geometry)
    return plan, BatchPlan.narrow({
        **derived, "dtlb_miss": plan.dtlb_miss, "dstride": plan.dstride,
        "dgeom": plan.dgeom,
    })
