"""Fuzzed engine differential: the kernel vs the interpreter on any
valid config.

The golden matrix (goldens.py) pins fifteen hand-picked configs on one
trace. Here Hypothesis draws valid :class:`MachineConfig`\\ s across every
knob the kernel specializes on — BTB kind, slots, region size, 2L1
interleave, splitting, MB-BTB pull policy, block reach, ideal or OoO
back end, early resteer, predictor size — pairs each with a short trace
from a random program (the CFG strategy of the property tests) and
asserts that the interpreter and the kernel return equal
:class:`SimResult`\\ s — also after the kernel's result crosses the dist
wire (``result_to_wire``, one frame over a socket pair,
``result_from_wire``), the way a remote worker's result reaches the
coordinator. A shrunk counterexample belongs in ``CONFIGS``.

A second fuzzer hands both engines a hand-built :class:`Simulator` over a
drawn :class:`MemoryConfig` — sets and ways down to 1, MSHRs down to 1,
DRAM latency up to 400 — so prefetches are dropped on full MSHRs, lines
are evicted while their fills are in flight, and the kernel's flat miss
paths, its per-run data-side columns and its stride guard all run. The
smallest hierarchies can thrash past the wedge guard's cycle budget;
both engines must then trip it at the same cycle.
"""

import socket

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend.scoreboard import IdealBackend, OoOBackend
from repro.core.config import MachineConfig, build_simulator
from repro.core.passes.kernel import KERNEL_ENV
from repro.core.simulator import FrontendConfig, Simulator
from repro.dist import recv_frame, result_from_wire, result_to_wire, send_frame
from repro.frontend.engine import PredictionEngine
from repro.memory.hierarchy import MemoryConfig, MemoryHierarchy
from repro.trace.cfg import build_program
from repro.trace.synth import synthesize_trace

from tests.trace.test_cfg_properties import specs


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(["ibtb", "rbtb", "bbtb", "mbbtb"]))
    fields = dict(
        btb_kind=kind,
        block_insts=draw(st.sampled_from([4, 8, 16, 32])),
        ideal_backend=draw(st.booleans()),
        early_resteer=draw(st.booleans()),
        bp_size_kb=draw(st.sampled_from([1, 8, 64])),
        l1_taken_bubble=draw(st.integers(0, 2)),
        ideal_btb=draw(st.booleans()),
    )
    if kind == "ibtb":
        fields.update(
            width=draw(st.sampled_from([1, 2, 4, 8, 16])),
            skip_taken=draw(st.booleans()),
        )
    else:
        fields["slots"] = draw(st.integers(1, 4))
    if kind == "rbtb":
        fields.update(
            region_bytes=draw(st.sampled_from([32, 64, 128])),
            interleaved=draw(st.booleans()),
            overflow_entries=draw(st.sampled_from([0, 4, 16])),
        )
    if kind == "bbtb":
        fields["splitting"] = draw(st.booleans())
    if kind == "mbbtb":
        fields.update(
            pull_policy=draw(st.sampled_from(["allbr", "uncond", "calldir"])),
            pull_last_slot=draw(st.booleans()),
            immediate_downgrade=draw(st.booleans()),
        )
    if kind in ("bbtb", "mbbtb"):
        fields["split_bubble"] = draw(st.integers(0, 2))
    return MachineConfig(label=f"fuzz {kind}", **fields)


def _run(config, trace, warmup, mode, monkeypatch):
    monkeypatch.setenv(KERNEL_ENV, mode)
    sim = build_simulator(config, trace)
    assert sim.kernel_engine() == mode
    return sim.run(warmup=warmup)


def _over_the_wire(result):
    a, b = socket.socketpair()
    with a, b:
        send_frame(a, result_to_wire(result))
        msg, _blob = recv_frame(b)
    return result_from_wire(msg)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    config=configs(),
    spec=specs(),
    length=st.integers(200, 2_500),
    warmup_share=st.sampled_from([0, 4, 2]),
    seed=st.integers(0, 2 ** 16),
)
def test_kernel_matches_interp_on_any_config(
    config, spec, length, warmup_share, seed, monkeypatch
):
    trace = synthesize_trace(build_program(spec), length, seed=seed)
    warmup = length // warmup_share if warmup_share else 0
    interp = _run(config, trace, warmup, "interp", monkeypatch)
    kernel = _run(config, trace, warmup, "batched", monkeypatch)
    assert kernel == interp
    assert _over_the_wire(kernel) == interp


@st.composite
def memories(draw):
    """A :class:`MemoryConfig` from Table 1 down to one set, one way and
    one MSHR per structure."""
    sets = st.sampled_from([1, 2, 4, 16, 64])
    ways = st.integers(1, 4)
    mshrs = st.integers(1, 4)
    return MemoryConfig(
        scale=draw(st.sampled_from([1.0, 0.25])),
        l1i_sets=draw(sets), l1i_ways=draw(ways), l1i_mshrs=draw(mshrs),
        l1i_latency=draw(st.integers(1, 4)),
        l1d_sets=draw(sets), l1d_ways=draw(ways), l1d_mshrs=draw(mshrs),
        l1d_latency=draw(st.integers(1, 6)),
        l2_sets=draw(st.sampled_from([1, 8, 64, 1024])), l2_ways=draw(ways),
        l2_mshrs=draw(mshrs), l2_latency=draw(st.integers(5, 20)),
        llc_sets=draw(st.sampled_from([1, 16, 2048])), llc_ways=draw(ways),
        llc_mshrs=draw(mshrs), llc_latency=draw(st.integers(20, 40)),
        itlb_sets=draw(sets), itlb_ways=draw(ways),
        dtlb_sets=draw(sets), dtlb_ways=draw(ways),
        l2tlb_sets=draw(st.sampled_from([1, 4, 128])), l2tlb_ways=draw(ways),
        l2tlb_latency=draw(st.integers(1, 10)),
        dram_latency=draw(st.integers(40, 400)),
        walk_latency=draw(st.integers(10, 100)),
    )


def hand_built(config, trace, memory_config, backend_memory=True, **backend_kw):
    """A simulator over a hierarchy of *memory_config*, wired as
    ``build_simulator`` wires one (an OoO backend loads through it unless
    *backend_memory* is false); *backend_kw* go to the backend."""
    memory = MemoryHierarchy(memory_config)
    if config.ideal_backend:
        backend = IdealBackend(**backend_kw)
    else:
        backend = OoOBackend(memory=memory if backend_memory else None, **backend_kw)
    return Simulator(
        trace=trace,
        btb=config.build_btb(),
        engine=PredictionEngine(bp_size_kb=config.bp_size_kb),
        backend=backend,
        memory=memory,
        frontend=FrontendConfig(early_resteer=config.early_resteer),
        config=config,
    )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    config=configs(),
    memory=memories(),
    spec=specs(),
    length=st.integers(200, 2_500),
    warmup_share=st.sampled_from([0, 4, 2]),
    seed=st.integers(0, 2 ** 16),
)
def test_kernel_matches_interp_on_any_memory(
    config, memory, spec, length, warmup_share, seed, monkeypatch
):
    trace = synthesize_trace(build_program(spec), length, seed=seed)
    warmup = length // warmup_share if warmup_share else 0
    results = {}
    for mode in ("interp", "batched"):
        monkeypatch.setenv(KERNEL_ENV, mode)
        sim = hand_built(config, trace, memory)
        assert sim.kernel_engine() == mode
        try:
            results[mode] = sim.run(warmup=warmup)
        except RuntimeError as exc:
            if "wedged" not in str(exc):
                raise
            results[mode] = str(exc)
    assert results["batched"] == results["interp"]
