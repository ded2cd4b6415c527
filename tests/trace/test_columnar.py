"""Property tests for the columnar trace lowering and predictor plans.

The contract (docs/kernels.md): :func:`lower_trace`'s derived
arrays round-trip *exactly* against reference iteration over the
:class:`Trace` — ``line_ix`` vs ``Trace.line_index``, ``next_pc`` vs
``Trace.next_pc``, ``next_br``/``run_end`` vs naive per-instruction
scans — for synthetic traces, for traces materialized from every corpus
ingestion format (CSV, ChampSim, CVP-1, gzip/xz-compressed), and for
empty/one-branch edge cases. :func:`build_predictor_plan` must match
the live :class:`PredictionEngine` decision-for-decision, and
:func:`build_data_plan`'s replay loop (with :func:`stride_step` and
:func:`stride_table`) the reference :class:`TLB` and
:class:`IPStridePrefetcher` access for access.
"""

import gzip
import lzma

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.history import GlobalHistory
from repro.common.types import ILEN, BranchType
from repro.core.config import MachineConfig
from repro.core.passes.kernel import batch_geometry
from repro.corpus import configure_corpus, load_corpus_trace
from repro.frontend.engine import PredictionEngine
from repro.memory.prefetch import IPStridePrefetcher
from repro.memory.tlb import TLB, PageWalker
from repro.trace.columnar import (
    DATA_GEOMETRY,
    BatchPlan,
    _folds,
    build_batch_plan,
    build_data_plan,
    build_plan_entry,
    build_predictor_plan,
    data_accesses,
    lower_trace,
    stride_step,
    stride_table,
)
from repro.trace.external import save_trace_csv
from repro.trace.trace import Trace
from repro.trace.workloads import get_trace

from tests.trace.test_trace import narrowest, wide_trace


@pytest.fixture
def store(tmp_path, monkeypatch):
    """An isolated corpus store that ``corpus:`` names resolve against."""
    root = tmp_path / "corpus"
    monkeypatch.setenv("REPRO_CORPUS_DIR", str(root))
    return configure_corpus(root)


@pytest.fixture
def trace_csv(tmp_path):
    trace = get_trace("web_frontend", 9_000)
    path = tmp_path / "web_frontend.csv"
    save_trace_csv(trace, str(path))
    return trace, str(path)


# -- reference derivations (naive per-instruction scans) ---------------------


def _ref_next_br(trace):
    n = len(trace)
    out = [n] * n
    nxt = n
    for i in range(n - 1, -1, -1):
        if trace.btype[i]:
            nxt = i
        out[i] = nxt
    return out


def _ref_run_end(trace):
    lines = trace.line_index()
    n = len(trace)
    out = [0] * n
    i = 0
    while i < n:
        j = i
        while j < n and lines[j] == lines[i]:
            j += 1
        for k in range(i, j):
            out[k] = j
        i = j
    return out


def _assert_roundtrip(trace):
    col = lower_trace(trace)
    n = len(trace)
    assert col.n == n
    assert col.line_ix.tolist() == trace.line_index()
    assert col.next_pc.tolist() == [trace.next_pc(i) for i in range(n)]
    assert col.next_br.tolist() == _ref_next_br(trace)
    assert col.run_end.tolist() == _ref_run_end(trace)
    assert col.pc.tolist() == list(trace.pc)
    assert col.btype.tolist() == list(trace.btype)
    assert col.taken.tolist() == list(trace.taken)
    assert col.target.tolist() == list(trace.target)


# -- synthetic workloads -----------------------------------------------------


@pytest.mark.parametrize("name", ["web_frontend", "db_oltp", "gc_runtime"])
def test_roundtrip_synthetic(name):
    _assert_roundtrip(get_trace(name, 8_000))


def test_roundtrip_empty_trace():
    _assert_roundtrip(Trace(name="empty"))


def test_roundtrip_single_instruction():
    trace = Trace(name="one")
    trace.append(0x1000)
    _assert_roundtrip(trace)


def test_roundtrip_single_branch():
    trace = Trace(name="onebr")
    trace.append(0x1000, btype=BranchType.UNCOND_DIRECT, taken=True,
                 target=0x2000)
    _assert_roundtrip(trace)
    col = lower_trace(trace)
    assert col.next_br.tolist() == [0]
    assert col.next_pc.tolist() == [0x2000]


def test_roundtrip_trailing_nonbranch_run():
    trace = Trace(name="tail")
    pc = 0x40  # crosses a line boundary mid-run
    for _ in range(20):
        trace.append(pc)
        pc += ILEN
    _assert_roundtrip(trace)
    col = lower_trace(trace)
    assert all(v == 20 for v in col.next_br.tolist())


# -- corpus ingestion formats ------------------------------------------------

CHAMPSIM_TEXT = (
    "0x100 N\n"
    "0x104 B 1 0x200\n"
    "0x200 J 1 0x300\n"
    "0x300 C 1 0x400\n"
    "0x400 R 1 0x304\n"
    "0x304 I 1 0x500\n"
    "0x500 X 1 0x600\n"
)

CVP1_TEXT = (
    "0x100 aluInstClass\n"
    "0x104 loadInstClass 0x9000\n"
    "0x108 condBranchInstClass 1 0x200\n"
    "0x200 uncondDirectBranchInstClass 1 0x300\n"
    "0x300 uncondIndirectBranchInstClass 1 0x400\n"
)


def _write(tmp_path, name, text, opener=None):
    path = tmp_path / name
    if opener is None:
        path.write_text(text)
    else:
        with opener(str(path), "wt") as fh:
            fh.write(text)
    return str(path)


@pytest.mark.parametrize(
    "name,text,opener",
    [
        ("t.champsim", CHAMPSIM_TEXT, None),
        ("t.champsim.gz", CHAMPSIM_TEXT, gzip.open),
        ("t.champsim.xz", CHAMPSIM_TEXT, lzma.open),
        ("t.cvp1", CVP1_TEXT, None),
        ("t.cvp1.xz", CVP1_TEXT, lzma.open),
    ],
)
def test_roundtrip_corpus_formats(store, tmp_path, name, text, opener):
    path = _write(tmp_path, name, text, opener)
    store.ingest(path, name="fmt")
    _assert_roundtrip(load_corpus_trace("corpus:fmt"))


def test_roundtrip_corpus_csv(store, trace_csv):
    _, path = trace_csv
    store.ingest(path, shard_insts=2_000)
    corpus = load_corpus_trace("corpus:web_frontend")
    _assert_roundtrip(corpus)


# -- predictor plan vs the live engine ---------------------------------------


def _reference_plan_values(trace, bp_size_kb):
    """Drive the real PredictionEngine sub-predictors in exactly the
    order ``PredictionEngine.resolve`` does, recording the decisions."""
    eng = PredictionEngine(bp_size_kb=bp_size_kb)
    n = len(trace)
    pt = [0] * n
    ras_ok = [0] * n
    ind_pred = [0] * n
    for i in range(n):
        bt = trace.btype[i]
        if not bt:
            continue
        pc, taken, target = trace.pc[i], bool(trace.taken[i]), trace.target[i]
        if bt == BranchType.COND_DIRECT:
            predicted, total, idxs = eng.perceptron.predict(pc)
            pt[i] = 1 if predicted else 0
            eng.perceptron.update(taken, total, idxs)
            eng.history.push(taken)
            continue
        eng.history.push(True)
        if bt in (BranchType.UNCOND_DIRECT, BranchType.CALL_DIRECT):
            if bt == BranchType.CALL_DIRECT:
                eng.ras.push(pc + ILEN)
        elif bt == BranchType.RETURN:
            ras_ok[i] = 1 if eng.ras.pop() == target else 0
        else:
            pred = eng.indirect.predict(pc)
            ind_pred[i] = pred if pred is not None else 0
            eng.indirect.update(pc, target)
            if bt == BranchType.CALL_INDIRECT:
                eng.ras.push(pc + ILEN)
    return pt, ras_ok, ind_pred


@pytest.mark.parametrize("length,width", [(3, 12), (12, 12), (18, 12), (232, 12), (232, 7)])
def test_folds_match_the_live_folded_register(length, width):
    """The closed-form folds equal the incrementally updated register
    after every push, including before the history fills up."""
    bits = np.random.default_rng(length + width).integers(0, 2, 600)
    history = GlobalHistory()
    fold = history.register_fold(length, width)
    values = [fold.value]
    for bit in bits.tolist():
        history.push(bit == 1)
        values.append(fold.value)
    (got,) = _folds(bits, width, [length])
    assert got.tolist() == values


@pytest.mark.parametrize("name,size", [("web_frontend", 64), ("db_oltp", 2)])
def test_predictor_plan_matches_live_engine(name, size):
    trace = get_trace(name, 8_000)
    geometry = batch_geometry(MachineConfig(bp_size_kb=size))
    plan = build_predictor_plan(lower_trace(trace), geometry)
    pt, ras_ok, ind_pred = _reference_plan_values(trace, size)
    assert plan.pt.tolist() == pt
    assert plan.ras_ok.tolist() == ras_ok
    assert plan.ind_pred.tolist() == ind_pred


def test_batch_plan_payload_roundtrip():
    trace = get_trace("web_frontend", 4_000)
    geom = batch_geometry(MachineConfig(bp_size_kb=64))
    plan = build_batch_plan(trace, geom)
    clone = BatchPlan.from_payload(geom, plan.payload())
    for key in BatchPlan.PAYLOAD_KEYS:
        assert getattr(clone, key) == getattr(plan, key)
    assert clone.geometry == geom


#: Payload columns stored as uint8 before columns were narrowed (an
#: empty one still is).
BYTE_COLUMNS = ("pt", "ras_ok", "dtlb_miss")


def _case_traces():
    return {
        "synthetic": get_trace("web_frontend", 4_000),
        "empty": Trace(name="empty"),
        "wide": wide_trace(),
    }


def _plan_cases():
    geom = batch_geometry(MachineConfig(bp_size_kb=64))
    return geom, {case: build_batch_plan(t, geom) for case, t in _case_traces().items()}


def _assert_same_plan(clone, plan, geom):
    assert clone.geometry == geom
    for key in BatchPlan.PAYLOAD_KEYS:
        values = getattr(clone, key)
        assert values == getattr(plan, key), key
        assert all(type(v) is int for v in values), key


@pytest.mark.parametrize("case", ["synthetic", "empty", "wide"])
def test_batch_plan_payload_is_narrow_and_loads_equal(case, tmp_path):
    """Each payload column is stored in the narrowest signed type that
    holds it (an empty one keeps its old type) and loads back equal, as
    Python ints, also through the disk cache's plans tier."""
    from repro.core.exec.diskcache import DiskCache

    geom, plans = _plan_cases()
    plan = plans[case]
    payload = plan.payload()
    for key in BatchPlan.PAYLOAD_KEYS:
        values = getattr(plan, key)
        if values:
            expected = narrowest(values)
        else:
            expected = np.uint8 if key in BYTE_COLUMNS else np.int64
        assert payload[key].dtype == expected, key
    if case == "wide":
        assert payload["line_ix"].dtype == np.int64
    _assert_same_plan(BatchPlan.from_payload(geom, payload), plan, geom)
    disk = DiskCache(tmp_path / "cache")
    disk.store_plan("k", payload, {"case": case})
    arrays, meta = disk.load_plan("k")
    assert meta == {"case": case}
    assert {k: a.dtype for k, a in arrays.items()} == {k: a.dtype for k, a in payload.items()}
    _assert_same_plan(BatchPlan.from_payload(geom, arrays), plan, geom)


@pytest.mark.parametrize("case", ["synthetic", "empty", "wide"])
def test_batch_plan_loads_int64_payloads_written_before_narrowing(case, tmp_path):
    """A plan entry written the old way (int64 columns, uint8 flags)
    still loads equal."""
    from repro.core.exec.diskcache import DiskCache

    geom, plans = _plan_cases()
    plan = plans[case]
    old = {
        key: np.asarray(getattr(plan, key),
                        dtype=np.uint8 if key in BYTE_COLUMNS else np.int64)
        for key in BatchPlan.PAYLOAD_KEYS
    }
    _assert_same_plan(BatchPlan.from_payload(geom, old), plan, geom)
    disk = DiskCache(tmp_path / "cache")
    disk.store_plan("k", old, {})
    arrays, _meta = disk.load_plan("k")
    _assert_same_plan(BatchPlan.from_payload(geom, arrays), plan, geom)


@pytest.mark.parametrize("case", ["synthetic", "empty", "wide"])
def test_batch_plan_payload_from_the_build_equals_the_lists(case):
    """The payload ``build_plan_entry`` narrows from the arrays the build
    derived equals the one ``payload()`` narrows from the plan's lists:
    name for name, type for type; and the plan equals
    ``build_batch_plan``'s."""
    geom, plans = _plan_cases()
    plan, built = build_plan_entry(_case_traces()[case], geom)
    _assert_same_plan(plan, plans[case], geom)
    from_lists = plan.payload()
    assert list(built) == list(from_lists) == list(BatchPlan.PAYLOAD_KEYS)
    for key in BatchPlan.PAYLOAD_KEYS:
        assert built[key].dtype == from_lists[key].dtype, key
        assert np.array_equal(built[key], from_lists[key]), key


@pytest.mark.parametrize("case", ["synthetic", "wide"])
def test_batch_plan_loads_entries_written_by_savez(case, tmp_path):
    """A plan entry written by ``np.savez_compressed`` (as stores did
    before entries were deflated at level 1) loads equal."""
    import json

    from repro.core.exec.diskcache import DiskCache

    geom, plans = _plan_cases()
    plan = plans[case]
    disk = DiskCache(tmp_path / "cache")
    path = disk.plan_path("k")
    path.parent.mkdir(parents=True)
    payload = plan.payload()
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **payload, __meta__=np.array(json.dumps({"case": case})))
    arrays, meta = disk.load_plan("k")
    assert meta == {"case": case}
    assert {k: a.dtype for k, a in arrays.items()} == {k: a.dtype for k, a in payload.items()}
    _assert_same_plan(BatchPlan.from_payload(geom, arrays), plan, geom)


def test_batch_plan_holds_offsets():
    """The plan keeps ``next_br``/``run_end`` as offsets from their own
    index; adding the index back gives the columnar derivations."""
    trace = get_trace("db_oltp", 4_000)
    col = lower_trace(trace)
    plan = build_batch_plan(trace, batch_geometry(MachineConfig()))
    assert [i + off for i, off in enumerate(plan.next_br)] == col.next_br.tolist()
    assert [i + off for i, off in enumerate(plan.run_end)] == col.run_end.tolist()
    assert min(plan.run_end, default=1) >= 1  # a run always covers its index


# -- the data-side plan vs the reference TLB and stride prefetcher -----------


class _Recorder:
    """A cache stand-in that records the prefetches it is asked for."""

    def __init__(self):
        self.addrs = []

    def prefetch(self, addr, cycle):
        self.addrs.append(addr)


def _reference_data_plan(pcs, addrs, dtlb, stride):
    """Drive the reference objects: a DTLB miss costs the walk, and the
    prefetcher's first request is one stride past the access."""
    miss, strides = [], []
    for pc, addr in zip(pcs, addrs):
        miss.append(int(dtlb.translate(addr, 0) != dtlb.latency))
        probe = _Recorder()
        stride.observe_pc(pc)
        stride.on_access(probe, addr, 0, hit=True)
        strides.append(probe.addrs[0] - addr if probe.addrs else 0)
        assert probe.addrs == [addr + strides[-1] * d
                               for d in range(1, len(probe.addrs) + 1)]
    return miss, strides


def _live(sets, ways, entries):
    return (TLB("DTLB", sets, ways, 1, PageWalker(latency=60)),
            IPStridePrefetcher(table_entries=entries))


@st.composite
def data_streams(draw):
    """Loads and stores of a few PCs, each mostly walking its own stride
    over a few pages, so TLB sets conflict and strides gain confidence."""
    pcs = draw(st.lists(st.integers(0, 1 << 12), min_size=1, max_size=8, unique=True))
    strides = {pc: draw(st.sampled_from([0, 4, 64, -64, 4096, -8192])) for pc in pcs}
    last = {pc: draw(st.integers(0, 1 << 16)) for pc in pcs}
    out_pcs, out_addrs = [], []
    for _ in range(draw(st.integers(0, 200))):
        pc = draw(st.sampled_from(pcs))
        if draw(st.integers(0, 3)):
            last[pc] += strides[pc]
        else:
            last[pc] = draw(st.integers(0, 1 << 16))
        out_pcs.append(pc)
        out_addrs.append(last[pc])
    return out_pcs, out_addrs


@settings(max_examples=150, deadline=None)
@given(
    stream=data_streams(),
    sets=st.sampled_from([1, 2, 4, 32]),
    ways=st.integers(1, 4),
    entries=st.integers(1, 6),
    warm=st.integers(0, 30),
)
def test_data_plan_matches_reference_tlb_and_prefetcher(stream, sets, ways, entries, warm):
    """From empty or from warm live state (the first *warm* accesses run
    through the live objects first), the replay equals the reference
    objects access for access, and leaves the live objects untouched."""
    pcs, addrs = stream
    warm = min(warm, len(pcs))
    ref_tlb, ref_stride = _live(sets, ways, entries)
    expected = _reference_data_plan(pcs, addrs, ref_tlb, ref_stride)
    live_tlb, live_stride = _live(sets, ways, entries)
    _reference_data_plan(pcs[:warm], addrs[:warm], live_tlb, live_stride)
    before = (repr(live_tlb.array._sets), live_tlb.array._tick, dict(live_stride._table))
    miss, strides = build_data_plan(pcs[warm:], addrs[warm:], live_tlb, live_stride)
    assert (miss, strides) == (expected[0][warm:], expected[1][warm:])
    assert before == (repr(live_tlb.array._sets), live_tlb.array._tick,
                      dict(live_stride._table))
    table = {}
    assert [stride_step(table, entries, pc, a) for pc, a in zip(pcs, addrs)] == expected[1]
    assert table == ref_stride._table
    assert list(table) == list(ref_stride._table)  # eviction order too


def test_data_plan_defaults_to_the_hierarchy_geometry():
    """Without live objects the replay is for :data:`DATA_GEOMETRY`, the
    DTLB and stride table every ``MachineConfig``'s hierarchy builds."""
    from repro.memory.hierarchy import MemoryConfig, MemoryHierarchy

    mem = MemoryHierarchy(MemoryConfig(scale=0.25))
    assert DATA_GEOMETRY == (mem.dtlb.array.sets, mem.dtlb.array.ways,
                             mem.dstride.table_entries)
    trace = get_trace("kv_store", 4_000)
    pcs, addrs = data_accesses(trace)
    assert len(pcs) == sum(1 for a, b in zip(trace.is_load, trace.is_store) if a or b)
    assert build_data_plan(pcs, addrs) == _reference_data_plan(
        pcs, addrs, mem.dtlb, mem.dstride
    )
    plan = build_batch_plan(trace, batch_geometry(MachineConfig()))
    assert (plan.dtlb_miss, plan.dstride) == build_data_plan(pcs, addrs)
    assert sum(plan.dtlb_miss) and sum(1 for s in plan.dstride if s)


def test_stride_table_replays_a_prefix():
    """The stride guard's table: the live prefetcher's table after the
    first *count* loads and stores, insertion (eviction) order included."""
    trace = get_trace("db_oltp", 4_000)
    pcs, addrs = data_accesses(trace)
    for count in (0, 1, 700, len(pcs)):
        reference = IPStridePrefetcher(table_entries=64)
        _reference_data_plan(pcs[:count], addrs[:count], _live(1, 1, 1)[0], reference)
        table = stride_table(trace, IPStridePrefetcher(table_entries=64), count)
        assert table == reference._table
        assert list(table) == list(reference._table)
