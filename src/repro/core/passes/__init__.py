"""Pass pipeline that compiles specialized per-config simulation kernels.

The interpreter in :mod:`repro.core.simulator` re-branches on the full
:class:`~repro.core.config.MachineConfig` every cycle. This package
removes that overhead the way pymtl3's pass pipeline does for RTL
models — elaborate once, schedule statically, generate a specialized
tick — except the "tick" here is the whole cycle loop:

1. :class:`~repro.core.passes.dag.GenDAGPass` elaborates the config
   into a :class:`~repro.core.passes.dag.KernelPlan`: the component DAG
   (PC-gen/BTB access, FTQ push, FDIP prefetch, fetch, backend admit,
   d-side memory, obs probe) with dead components marked, plus every
   structural constant (masks, latencies, predictor geometry) hoisted
   out of the BTB, predictors and backend the config would build (the
   memory hierarchy's are read off the live one at run time).
2. :class:`~repro.core.passes.schedule.SchedulePass` topologically
   sorts the live components into the static per-cycle order.
3. :class:`~repro.core.passes.codegen.CodegenPass` walks the schedule
   and emits Python source for one specialized run function: config
   values become literals, attribute lookups become locals, probe hooks
   vanish entirely, and dead components contribute no code.
4. :mod:`~repro.core.passes.kernel` ``compile()``s the source and
   caches the kernel by config content-hash.

This is the one fast engine; the interpreter stays as the executable
specification. The kernel reads the branch predictors' decisions, the
DTLB's misses and the stride prefetcher's requests from a shared
:class:`~repro.trace.columnar.BatchPlan` (one per trace and predictor
geometry) and *reuses the reference hardware state objects* for
everything else (BTB stores, caches, backend rings), inlining only
their hot paths; rare mutations (allocate, L2 promote, split, pull) call
the reference methods on the same objects, and memory misses run
:mod:`~repro.core.passes.misspath`'s flat paths on the same state, so
results are bit-identical to the interpreter by construction — and the
differential golden tests (tests/kernel/) verify it.
"""

from repro.core.passes.dag import GenDAGPass, KernelPlan
from repro.core.passes.kernel import (
    CompiledKernel,
    KernelConfigError,
    KERNEL_MODES,
    get_kernel,
    kernel_cache_info,
    kernel_mode,
    supports,
)
from repro.core.passes.schedule import SchedulePass
from repro.core.passes.codegen import CodegenPass

__all__ = [
    "CodegenPass",
    "CompiledKernel",
    "GenDAGPass",
    "KERNEL_MODES",
    "KernelConfigError",
    "KernelPlan",
    "SchedulePass",
    "get_kernel",
    "kernel_cache_info",
    "kernel_mode",
    "supports",
]
