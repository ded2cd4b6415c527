"""Kernel compilation, selection and the per-config kernel cache.

``get_kernel(config)`` runs the pass pipeline (GenDAG -> Schedule ->
Codegen), ``compile()``s the generated source and memoizes the result by
a content-hash of the kernel-relevant config fields — two configs built
independently with the same fields share one kernel, and re-running a
sweep over a config family compiles each distinct shape exactly once.
The kernel consumes a :class:`~repro.trace.columnar.BatchPlan` shared by
every config of one predictor geometry (:func:`batch_geometry`).

Engine selection is environment-driven: ``REPRO_KERNEL=batched``
(default) runs the kernel where supported and falls back to the
reference interpreter elsewhere; ``REPRO_KERNEL=interp`` forces the
interpreter everywhere. Results are bit-identical either way, so the
knob never enters result-cache keys (see ``repro.core.exec.cachekey``).
"""

from __future__ import annotations

import os
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

from repro.core.exec.cachekey import digest
from repro.core.passes.codegen import CodegenPass
from repro.core.passes.dag import GenDAGPass, KernelPlan
from repro.core.passes.schedule import Schedule, SchedulePass

#: Valid values of the ``REPRO_KERNEL`` environment variable.
KERNEL_MODES = ("batched", "interp")

#: Environment variable selecting the engine.
KERNEL_ENV = "REPRO_KERNEL"

#: Version of the codegen. Bumping it invalidates the in-process kernel
#: cache keys; it deliberately does NOT touch ``CACHE_SCHEMA`` because
#: kernels produce bit-identical results — persisted sweep results stay
#: valid across kernel changes.
KERNEL_SCHEMA = 3

#: BTB organizations the codegen knows how to specialize. The
#: heterogeneous hierarchy keeps its own storage scheme and stays on the
#: reference interpreter.
SUPPORTED_KINDS = ("ibtb", "rbtb", "bbtb", "mbbtb")


class KernelConfigError(ValueError):
    """Malformed engine selection (bad ``REPRO_KERNEL`` value)."""


def kernel_mode(env: Optional[Dict[str, str]] = None) -> str:
    """Resolve the engine mode from the environment.

    Raises :class:`KernelConfigError` on a malformed value so CLIs can
    exit with a one-line configuration error instead of silently running
    the wrong engine.
    """
    source = env if env is not None else os.environ
    raw = source.get(KERNEL_ENV)
    if raw is None or raw == "":
        return "batched"
    mode = raw.strip().lower()
    if mode not in KERNEL_MODES:
        choices = "|".join(KERNEL_MODES)
        raise KernelConfigError(
            f"invalid {KERNEL_ENV}={raw!r} (expected {choices})"
        )
    return mode


def supports(config) -> bool:
    """True when the pass pipeline can specialize *config*."""
    return (
        config is not None
        and getattr(config, "btb_kind", None) in SUPPORTED_KINDS
    )


@dataclass(frozen=True)
class CompiledKernel:
    """One compiled per-config run function plus its provenance."""

    key: str
    source: str
    fn: Callable
    plan: KernelPlan
    schedule: Schedule


_CACHE: Dict[str, CompiledKernel] = {}
_HITS = 0
_MISSES = 0


def kernel_key(config) -> str:
    """Content-hash key of the kernel *config* elaborates to.

    The label is excluded: it never reaches the generated code, so
    renamed-but-identical configs share one kernel.
    """
    return digest(
        {
            "kind": "kernel",
            "schema": KERNEL_SCHEMA,
            "config": replace(config, label=""),
        }
    )


def get_kernel(config) -> CompiledKernel:
    """Compiled kernel for *config*, building it on first use."""
    global _HITS, _MISSES
    if not supports(config):
        raise KernelConfigError(
            f"config {getattr(config, 'label', config)!r} is not compilable "
            f"(btb_kind must be one of {SUPPORTED_KINDS})"
        )
    key = kernel_key(config)
    kernel = _CACHE.get(key)
    if kernel is not None:
        _HITS += 1
        return kernel
    _MISSES += 1
    plan = GenDAGPass()(config)
    schedule = SchedulePass()(plan)
    source = CodegenPass()(plan, schedule)
    namespace = _exec_namespace()
    code = compile(source, f"<kernel:{config.label}>", "exec")
    exec(code, namespace)
    kernel = CompiledKernel(
        key=key,
        source=source,
        fn=namespace["kernel_run"],
        plan=plan,
        schedule=schedule,
    )
    _CACHE[key] = kernel
    return kernel


#: Former name of :func:`get_kernel`, kept for the benchmark's callers.
get_batch_kernel = get_kernel


_GEOMETRY_MEMO: Dict[int, object] = {}


def batch_geometry(config):
    """Predictor geometry of the batch family *config* belongs to.

    Derived through the same elaboration the kernel plan uses (so a plan
    built for this geometry is exact for every config mapping here) and
    memoized by the only config field the predictors depend on.
    """
    from repro.trace.columnar import PredictorGeometry

    geom = _GEOMETRY_MEMO.get(config.bp_size_kb)
    if geom is None:
        plan = GenDAGPass()(config)
        geom = PredictorGeometry(
            ptable_mask=plan.ptable_mask,
            theta=plan.theta,
            ind_mask=plan.ind_mask,
            ras_depth=plan.ras_depth,
        )
        _GEOMETRY_MEMO[config.bp_size_kb] = geom
    return geom


def _exec_namespace() -> Dict[str, object]:
    # Imported here (not at module top) to avoid a circular import:
    # repro.core.simulator lazily imports this package for dispatch.
    from repro.core.passes.misspath import miss_paths
    from repro.core.simulator import SimResult
    from repro.trace.columnar import data_columns, stride_step, stride_table

    return {
        "SimResult": SimResult,
        "deque": deque,
        "OrderedDict": OrderedDict,
        "miss_paths": miss_paths,
        "data_columns": data_columns,
        "stride_step": stride_step,
        "stride_table": stride_table,
    }


def kernel_cache_info() -> Dict[str, int]:
    """In-process kernel cache statistics (for benchmarks/diagnostics)."""
    return {"entries": len(_CACHE), "hits": _HITS, "misses": _MISSES}


def kernel_cache_clear() -> None:
    """Drop all compiled kernels (test/benchmark isolation)."""
    global _HITS, _MISSES
    _CACHE.clear()
    _HITS = 0
    _MISSES = 0
