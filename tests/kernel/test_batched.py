"""Differential golden tests: the kernel on shared plans vs the interpreter.

Sweeps hand every config of one predictor geometry the same
:class:`~repro.trace.columnar.BatchPlan` (docs/kernels.md). These tests
build one plan per geometry of the golden matrix (goldens.py) and assert
that the kernel consuming it is an *exact* semantic copy of the
reference interpreter — same SimResult, same Stats counters, same
structure samples — that a run without a plan builds it inline with the
same result, that the interpreter still serves unsupported configs, and
that a plan for the wrong geometry or trace slice is refused. A
hand-built simulator whose memory differs from its config's runs on the
kernel too, stride guard included.
"""

import pytest

import repro.trace.columnar as columnar
from repro.core.config import build_simulator, hetero_btb, ibtb, mbbtb
from repro.core.passes.kernel import KERNEL_ENV, batch_geometry, kernel_cache_clear
from repro.memory.hierarchy import MemoryConfig
from repro.trace.columnar import build_batch_plan
from repro.trace.trace import Trace
from repro.trace.workloads import get_trace

from tests.kernel.goldens import (
    CONFIGS,
    L,
    assert_identical,
    golden_trace,
    interp_reference,
    run_engine,
)
from tests.kernel.test_fuzz import hand_built

IDEAL_BACKEND = mbbtb(2, "allbr", block_insts=64, ideal_btb=True, ideal_backend=True)


@pytest.fixture(scope="module")
def trace():
    return golden_trace()


@pytest.fixture(scope="module")
def plan_for(trace):
    """The shared plan of a config's geometry family, built once."""
    plans = {}

    def get(config):
        geometry = batch_geometry(config)
        if geometry not in plans:
            plans[geometry] = build_batch_plan(trace, geometry)
        return plans[geometry]

    return get


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.label)
def test_batched_matches_interp(config, trace, plan_for, monkeypatch):
    engine, batched = run_engine(
        config, trace, "batched", monkeypatch, plan=plan_for(config)
    )
    assert engine == "batched"
    assert_identical(batched, interp_reference(config))


@pytest.mark.parametrize("config", CONFIGS[:4], ids=lambda c: c.label)
def test_batched_matches_interp_with_warmup(config, trace, plan_for, monkeypatch):
    _, batched = run_engine(
        config, trace, "batched", monkeypatch, warmup=L // 4, plan=plan_for(config)
    )
    assert_identical(batched, interp_reference(config, L // 4))


def test_batched_without_plan_builds_it_inline(trace, plan_for, monkeypatch):
    """With no plan handed to ``run``, the kernel builds one for this run
    alone — bit-identical to the run on the shared plan."""
    config = ibtb(16)
    _, shared = run_engine(config, trace, "batched", monkeypatch, plan=plan_for(config))
    engine, inline = run_engine(config, trace, "batched", monkeypatch, plan=None)
    assert engine == "batched"  # eligibility is config-level
    assert_identical(inline, shared)
    assert_identical(inline, interp_reference(config))


def test_batched_hetero_falls_back_to_interp(trace, monkeypatch):
    config = hetero_btb(1, 2)
    engine_b, batched = run_engine(config, trace, "batched", monkeypatch)
    assert engine_b == "interp"
    _, interp = run_engine(config, trace, "interp", monkeypatch)
    assert_identical(batched, interp)


def test_geometry_mismatch_raises(trace, monkeypatch):
    """A plan built for a different predictor geometry is rejected by
    the kernel prelude instead of silently corrupting results."""
    wrong = build_batch_plan(trace.slice(0, 500), batch_geometry(ibtb(16, bp_size_kb=2)))
    monkeypatch.setenv(KERNEL_ENV, "batched")
    sim = build_simulator(ibtb(16), trace)
    with pytest.raises(RuntimeError, match="geometry"):
        sim.run(batch_plan=wrong)


def test_plan_length_mismatch_raises(trace, monkeypatch):
    """A plan built over a different trace slice is rejected too."""
    short = build_batch_plan(trace.slice(0, 500), batch_geometry(ibtb(16)))
    monkeypatch.setenv(KERNEL_ENV, "batched")
    sim = build_simulator(ibtb(16), trace)
    with pytest.raises(RuntimeError, match="trace length"):
        sim.run(batch_plan=short)


# -- hand-built memory: any geometry runs on the kernel ------------------------


def _both_engines(config, trace, memory_config, monkeypatch, **kw):
    results = {}
    for mode in ("interp", "batched"):
        monkeypatch.setenv(KERNEL_ENV, mode)
        sim = hand_built(config, trace, memory_config, **kw)
        results[mode] = (sim.kernel_engine(), sim.run(warmup=L // 4))
    return results["interp"], results["batched"]


def test_hand_built_memory_runs_on_the_kernel(trace, monkeypatch):
    """A simulator over a memory hierarchy its config would not build
    (a smaller L1D with two MSHRs) runs on the kernel, which reads the
    geometry off the live hierarchy, and equals the interpreter."""
    config = ibtb(16)
    memory_config = MemoryConfig(scale=config.scale, l1d_sets=16, l1d_mshrs=2)
    (_, interp), (engine, batched) = _both_engines(
        config, trace, memory_config, monkeypatch
    )
    assert engine == "batched"
    assert_identical(batched, interp)
    assert batched != interp_reference(config, L // 4)  # the memory mattered


def test_backend_without_memory_falls_back_to_interp(trace, monkeypatch):
    """An OoO backend that does not load through the simulator's memory
    (it charges a flat latency) is not what the kernel models."""
    config = ibtb(16)
    (_, interp), (engine, batched) = _both_engines(
        config, trace, MemoryConfig(scale=config.scale), monkeypatch,
        backend_memory=False,
    )
    assert engine == "interp"
    assert_identical(batched, interp)


@pytest.mark.parametrize(
    "ideal,backend_kw",
    [
        (False, dict(alu_latency=2, branch_latency=3)),
        (False, dict(rob_size=128)),
        (True, dict(window=64)),
    ],
    ids=["latencies", "rob", "ideal-window"],
)
def test_backend_off_the_plan_falls_back_to_interp(trace, monkeypatch, ideal, backend_kw):
    """The kernel bakes in the stock backend's ring sizes and latencies:
    a hand-built backend with other ones runs on the interpreter (it used
    to run on the kernel with the stock latencies, or to raise
    ``kernel/config mismatch: backend`` on a ring size)."""
    config = IDEAL_BACKEND if ideal else ibtb(16)
    (_, interp), (engine, batched) = _both_engines(
        config, trace, MemoryConfig(scale=config.scale), monkeypatch, **backend_kw
    )
    assert engine == "interp"
    assert_identical(batched, interp)
    assert interp != interp_reference(config, L // 4)  # the backend mattered


def test_kernel_leaves_reference_memory_methods_alone(trace, plan_for, monkeypatch):
    """The kernel's misses run the flat miss paths, and the plan stands
    in for the DTLB and the stride table: no reference cache or TLB
    method runs, and the DTLB, the stride table and every memory
    ``Stats`` are left as they were (docs/kernels.md, cold objects)."""
    from repro.memory.cache import Cache
    from repro.memory.tlb import TLB

    def refuse(*args, **kwargs):
        raise AssertionError("the kernel called a reference memory method")

    config = ibtb(16)
    reference = interp_reference(config)
    for cls, name in ((Cache, "access"), (Cache, "prefetch"), (TLB, "translate")):
        monkeypatch.setattr(cls, name, refuse)
    monkeypatch.setenv(KERNEL_ENV, "batched")
    sim = build_simulator(config, trace)
    assert_identical(sim.run(batch_plan=plan_for(config)), reference)
    mem = sim.memory
    assert mem.l2.array._tick > 0  # the hierarchy did run
    assert mem.dtlb.array._tick == 0 and not mem.dstride._table
    for part in (mem.l1i, mem.l1d, mem.l2, mem.llc, mem.dram,
                 mem.itlb, mem.dtlb, mem.l2tlb):
        assert not part.stats.as_dict()


def test_stride_guard_fires_and_stays_exact(monkeypatch):
    """On a one-way L1D with a slow DRAM, loads merge with the in-flight
    fill of a line evicted before it arrived. ``Cache.access`` returns
    before the stride prefetcher's hook there, so the plan's stride
    column stops being exact: the kernel switches to a table it rebuilds
    by replaying the earlier accesses, and still equals the interpreter."""
    calls = []

    def spy(trace, stride, count):
        calls.append(count)
        return stride_table(trace, stride, count)

    stride_table = columnar.stride_table
    monkeypatch.setattr(columnar, "stride_table", spy)
    kernel_cache_clear()  # the next kernel binds the spy
    try:
        trace = get_trace("kv_store", 3_000, seed=3)
        memory_config = MemoryConfig(l1d_sets=1, l1d_ways=1, dram_latency=400)
        (_, interp), (engine, batched) = _both_engines(
            ibtb(16), trace, memory_config, monkeypatch
        )
    finally:
        kernel_cache_clear()
    assert engine == "batched"
    assert len(calls) == 1 and calls[0] > 0  # fired once, mid-run
    assert_identical(batched, interp)


# -- degenerate slices: both engines agree exactly ----------------------------


def _tiny_trace(n):
    trace = Trace(name=f"tiny{n}")
    pc = 0x1000
    for _ in range(n):
        trace.append(pc)
        pc += 4
    return trace


#: (REPRO_KERNEL value, hand the run a shared plan?) per case: the
#: interpreter, the kernel on a shared plan ("batched") and the kernel
#: compiling a run with no plan handed in, which builds one inline
#: ("compiled").
ENGINE_CASES = [
    pytest.param("interp", False, id="interp"),
    pytest.param("batched", True, id="batched"),
    pytest.param("batched", False, id="compiled"),
]


@pytest.mark.parametrize("mode,shared_plan", ENGINE_CASES)
@pytest.mark.parametrize("n,warmup", [(0, 0), (1, 1), (5, 5), (5, 7)])
def test_warmup_not_below_trace_raises_everywhere(
    mode, shared_plan, n, warmup, monkeypatch
):
    """Zero-instruction and warmup-consumes-everything slices raise the
    same ValueError under every engine, with a shared plan or an inline
    one (no div-by-zero, no divergence)."""
    trace = _tiny_trace(n)
    config = ibtb(16)
    plan = None
    if shared_plan:
        plan = build_batch_plan(trace, batch_geometry(config))
    monkeypatch.setenv(KERNEL_ENV, mode)
    sim = build_simulator(config, trace)
    with pytest.raises(ValueError, match="warmup"):
        sim.run(warmup=warmup, batch_plan=plan)


@pytest.mark.parametrize("n,warmup", [(1, 0), (8, 7)])
def test_warmup_only_slices_bit_identical(n, warmup, monkeypatch):
    """A measured region of a single instruction produces identical
    Stats under the interpreter and the kernel, with a shared plan or an
    inline one (cycle clamp included)."""
    trace = _tiny_trace(n)
    config = ibtb(16)
    plan = build_batch_plan(trace, batch_geometry(config))
    _, interp = run_engine(config, trace, "interp", monkeypatch, warmup=warmup)
    for bp in (plan, None):
        _, batched = run_engine(
            config, trace, "batched", monkeypatch, warmup=warmup, plan=bp
        )
        assert_identical(batched, interp)
    assert interp.cycles >= 1
