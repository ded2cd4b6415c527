"""Unit tests for the pass pipeline itself (DAG, schedule, codegen,
cache, mode selection) — the structural properties the differential
goldens can't see from the outside."""

import pytest

from repro.core.config import MachineConfig, hetero_btb, ibtb, rbtb
from repro.core.passes import (
    GenDAGPass,
    SchedulePass,
    get_kernel,
    kernel_mode,
    supports,
)
from repro.core.passes.components import elided_components, live_components
from repro.core.passes.kernel import (
    KERNEL_ENV,
    KERNEL_MODES,
    KernelConfigError,
    kernel_cache_clear,
    kernel_cache_info,
    kernel_key,
)


# -- mode selection ----------------------------------------------------------


def test_kernel_mode_defaults_to_batched(monkeypatch):
    monkeypatch.delenv(KERNEL_ENV, raising=False)
    assert kernel_mode() == "batched"
    assert KERNEL_MODES == ("batched", "interp")


@pytest.mark.parametrize("value", ["interp", "batched"])
def test_kernel_mode_accepts_documented_values(monkeypatch, value):
    monkeypatch.setenv(KERNEL_ENV, value)
    assert kernel_mode() == value


# "compiled" named the retired per-config engine: asking for it is a
# one-line configuration error, not a silent switch of engines.
@pytest.mark.parametrize("value", ["bogus", "jit", "compiled,interp", "compiled"])
def test_kernel_mode_rejects_malformed_values(monkeypatch, value):
    monkeypatch.setenv(KERNEL_ENV, value)
    with pytest.raises(KernelConfigError, match="REPRO_KERNEL"):
        kernel_mode()


def test_supports_covers_homogeneous_kinds_only():
    assert supports(ibtb(16))
    assert supports(rbtb(3, overflow=4))
    assert not supports(hetero_btb(1, 2))
    with pytest.raises(KernelConfigError, match="not compilable"):
        get_kernel(hetero_btb(1, 2))


# -- DAG + schedule ----------------------------------------------------------


def test_dead_components_are_elided_per_config():
    # The obs probe is always dead (kernels are uninstrumented); the
    # overflow pool exists only for R-BTB configs that enable it.
    assert "obs.probe" in elided_components(ibtb(16))
    assert "rbtb.overflow_pool" in elided_components(ibtb(16))
    assert "rbtb.overflow_pool" not in elided_components(rbtb(3, overflow=4))
    # The ideal BTB has no L2 level.
    assert "btb.l2_level" in elided_components(ibtb(16, ideal_btb=True))
    live = {c.name for c in live_components(ibtb(16))}
    assert "pcgen.btb_access" in live and "fetch.icache" in live


def test_schedule_is_topological_and_stable():
    plan = GenDAGPass()(ibtb(16))
    schedule = SchedulePass()(plan)
    names = schedule.names()
    pos = {name: i for i, name in enumerate(names)}
    for consumer, producers in plan.edges.items():
        for producer in producers:
            assert pos[producer] < pos[consumer], (producer, consumer)
    # Nested components never get their own main-loop dispatch.
    assert all(c.emitter for c in schedule.emitted)
    assert all(c.parent is None for c in schedule.emitted)


def test_generated_source_elides_dead_paths():
    compiled = get_kernel(ibtb(16))
    code_lines = [
        line
        for line in compiled.source.splitlines()
        if not line.lstrip().startswith("#")
    ]
    # Probe hooks vanish entirely (not even guarded no-op calls); the
    # only mention left is the elision comment itself.
    assert not any("probe" in line for line in code_lines)
    assert "obs.probe" in compiled.source
    ideal = get_kernel(MachineConfig(btb_kind="ibtb", width=16, ideal_btb=True))
    # The ideal BTB elides the whole L2 level from the generated tick.
    assert "btb.l2_level" in ideal.source  # named in the elision comment
    assert "lvl == 2" not in ideal.source
    assert "elif lvl == 2:" in compiled.source


def test_config_constants_are_hoisted_as_literals():
    source = get_kernel(ibtb(4)).source
    # The fetch width 4 appears as a literal; no MachineConfig attribute
    # reads survive into the generated tick.
    assert "config." not in source
    assert "kernel/config mismatch" in source  # geometry guard stays


# -- kernel cache ------------------------------------------------------------


def test_cache_hit_returns_same_object_and_label_is_ignored():
    kernel_cache_clear()
    a = get_kernel(ibtb(16))
    b = get_kernel(ibtb(16))
    assert a is b
    relabeled = ibtb(16).with_(label="renamed twin")
    assert get_kernel(relabeled) is a
    info = kernel_cache_info()
    assert info["entries"] == 1
    assert info["misses"] == 1 and info["hits"] == 2


def test_cache_key_distinguishes_structural_changes():
    assert kernel_key(ibtb(16)) != kernel_key(ibtb(4))
    assert kernel_key(rbtb(3)) != kernel_key(rbtb(3, overflow=4))
    assert kernel_key(ibtb(16)) == kernel_key(ibtb(16).with_(label="x"))
