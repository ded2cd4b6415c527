"""The differential golden matrix shared by the engine tests.

One list of configs, one trace and one cached interpreter reference per
(config, warmup): the interpreter is the executable specification, and
every test in this package compares the plan-consuming kernel against
it. Both ways the kernel gets its plan are covered — built inline by
``Simulator.run`` (test_differential.py) and shared across a predictor
geometry family, the way sweeps run it (test_batched.py).
"""

from functools import lru_cache

import pytest

from repro.core.config import (
    IDEAL_IBTB16,
    bbtb,
    build_simulator,
    ibtb,
    ibtb_skp,
    mbbtb,
    rbtb,
)
from repro.core.passes.kernel import KERNEL_ENV
from repro.trace.workloads import get_trace

L = 8_000

#: Every kernel config family exercised by the fig benchmarks, plus one
#: off the default predictor size (its own plan geometry).
CONFIGS = [
    ibtb(16),
    ibtb(4),
    ibtb_skp(),
    rbtb(3),
    rbtb(3, overflow=4),
    rbtb(2, interleaved=True),
    bbtb(1, splitting=True),
    bbtb(2),
    mbbtb(2, "allbr"),
    mbbtb(2, "uncond"),
    mbbtb(2, "calldir"),
    IDEAL_IBTB16,
    ibtb(16, ideal_backend=True),
    ibtb(16, early_resteer=True),
    bbtb(2, bp_size_kb=2).with_(label="B-BTB 2BS BP2K"),
]


def golden_trace():
    return get_trace("web_frontend", L)


def run_engine(config, trace, mode, monkeypatch, warmup=0, plan=None, probe=None):
    """Build under ``REPRO_KERNEL=mode``, snapshot the engine choice
    (before the run: a finished run has populated stats, which
    disqualifies the kernel), then run."""
    monkeypatch.setenv(KERNEL_ENV, mode)
    sim = build_simulator(config, trace, probe=probe)
    engine = sim.kernel_engine()
    return engine, sim.run(warmup=warmup, batch_plan=plan)


@lru_cache(maxsize=None)
def interp_reference(config, warmup=0):
    """The interpreter's result for *config* on the golden trace."""
    with pytest.MonkeyPatch.context() as mp:
        engine, result = run_engine(config, golden_trace(), "interp", mp, warmup)
    assert engine == "interp"
    return result


def assert_identical(a, b):
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.stats == b.stats
    assert a.structure == b.structure
