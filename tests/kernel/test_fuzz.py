"""Fuzzed engine differential: the kernel vs the interpreter on any
valid config.

The golden matrix (goldens.py) pins fifteen hand-picked configs on one
trace. Here Hypothesis draws valid :class:`MachineConfig`\\ s across every
knob the kernel specializes on — BTB kind, slots, region size, 2L1
interleave, splitting, MB-BTB pull policy, block reach, ideal or OoO
back end, early resteer, predictor size — pairs each with a short trace
from a random program (the CFG strategy of the property tests) and
asserts that the interpreter and the kernel return equal
:class:`SimResult`\\ s. A shrunk counterexample belongs in ``CONFIGS``.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import MachineConfig, build_simulator
from repro.core.passes.kernel import KERNEL_ENV
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
