"""Differential golden tests: the kernel vs the interpreter.

The pass pipeline's contract (docs/kernels.md): for every supported
configuration the compiled kernel is an *exact* semantic copy of the
reference interpreter — same SimResult, same Stats counters, same obs
event streams on the instrumented fallback path. These tests run the
golden matrix (goldens.py) through ``Simulator.run`` with no plan, so
the kernel builds its plan inline (the path a single run takes), and
assert bit-identity against the interpreter. test_batched.py covers the
shared-plan path sweeps take.
"""

import pytest

from repro.core.config import build_simulator, hetero_btb, ibtb, mbbtb
from repro.core.passes.kernel import KERNEL_ENV
from repro.obs import Observer
from repro.obs.export import observation_to_json

from tests.kernel.goldens import (
    CONFIGS,
    L,
    assert_identical,
    golden_trace,
    interp_reference,
    run_engine,
)


@pytest.fixture(scope="module")
def trace():
    return golden_trace()


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.label)
def test_compiled_matches_interp(config, trace, monkeypatch):
    engine, kernel = run_engine(config, trace, "batched", monkeypatch)
    assert engine == "batched"
    assert_identical(kernel, interp_reference(config))


@pytest.mark.parametrize("config", CONFIGS[:4], ids=lambda c: c.label)
def test_compiled_matches_interp_with_warmup(config, trace, monkeypatch):
    _, kernel = run_engine(config, trace, "batched", monkeypatch, warmup=L // 4)
    assert_identical(kernel, interp_reference(config, L // 4))


def test_hetero_falls_back_to_interp(trace, monkeypatch):
    """Unsupported kinds run the reference engine even when the kernel
    is requested — and still match an explicit interp run exactly."""
    config = hetero_btb(1, 2)
    engine, kernel = run_engine(config, trace, "batched", monkeypatch)
    assert engine == "interp"
    _, interp = run_engine(config, trace, "interp", monkeypatch)
    assert_identical(kernel, interp)


def test_obs_streams_identical_across_engines(trace, monkeypatch):
    """Instrumented runs force the interp fallback under both modes, so
    the obs event stream is engine-independent — and the probed result
    still equals the uninstrumented kernel run."""
    config = mbbtb(2, "allbr")
    payloads = {}
    for mode in ("interp", "batched"):
        obs = Observer(events=True, interval=500)
        engine, result = run_engine(config, trace, mode, monkeypatch, probe=obs)
        assert engine == "interp"  # probe disables the kernel
        payloads[mode] = (result, observation_to_json(obs.observation()))
    result_i, obs_i = payloads["interp"]
    result_k, obs_k = payloads["batched"]
    assert result_k.stats == result_i.stats
    assert obs_k == obs_i
    _, plain = run_engine(config, trace, "batched", monkeypatch)
    assert plain.stats == result_i.stats


def test_warmup_validation_matches_interp(trace, monkeypatch):
    config = ibtb(16)
    for mode in ("interp", "batched"):
        monkeypatch.setenv(KERNEL_ENV, mode)
        sim = build_simulator(config, trace)
        with pytest.raises(ValueError, match="warmup"):
            sim.run(warmup=len(trace))


# -- re-running one Simulator ------------------------------------------------


def test_second_run_after_kernel_run_raises(monkeypatch):
    """The kernel leaves the predictor objects cold, so a second run on
    the same simulator (which the warm stats bag would send to the
    interpreter) must refuse instead of mixing cold predictors with a
    warm BTB."""
    monkeypatch.setenv(KERNEL_ENV, "batched")
    sim = build_simulator(ibtb(16), golden_trace().slice(0, 2_000))
    sim.run()
    with pytest.raises(RuntimeError, match="build a new one"):
        sim.run()


def test_interp_reruns_keep_working(monkeypatch):
    """Interpreter re-runs continue from the warm state, as before."""
    monkeypatch.setenv(KERNEL_ENV, "interp")
    sim = build_simulator(ibtb(16), golden_trace().slice(0, 2_000))
    first = sim.run()
    second = sim.run()
    assert second.instructions == first.instructions
    # One counter bag across both runs; each result measures its own.
    accesses = first.stats["btb_accesses"] + second.stats["btb_accesses"]
    assert sim.stats.as_dict()["btb_accesses"] == accesses
