#!/usr/bin/env python
"""Print one sha256 per synthetic trace and one per its stored plan, so
two source trees can be compared with ``cmp``.

    PYTHONPATH=src python scripts/trace_digests.py [--length N] [--seeds S ...]

Builds every suite workload's program and walks it at each seed; a line
is ``<workload> seed=<seed> <sha256 of the trace's columns as int64>``,
followed by ``<workload> seed=<seed> plan <sha256>`` over the arrays the
tree stores for that trace's batch plan at the default predictor
geometry: each array's name, dtype and bytes, so a stored column that
changes type or value changes the digest. Only ``build_program``,
``synthesize_trace``, the suite's specs, ``build_batch_plan`` and
``batch_geometry`` are needed, so the script runs against older trees
too (point ``PYTHONPATH`` at their ``src``).
"""

from __future__ import annotations

import argparse
import hashlib

import numpy as np

from repro.trace.cfg import build_program
from repro.trace.synth import synthesize_trace
from repro.trace.workloads import SERVER_SUITE, WORKLOAD_SPECS

COLUMNS = ("pc", "btype", "taken", "target", "dst", "src1", "src2",
           "is_load", "is_store", "maddr")


def plan_digest(trace) -> str:
    """sha256 of the payload the tree stores for *trace*'s plan at the
    default predictor geometry."""
    from repro.core.config import MachineConfig
    from repro.core.passes.kernel import batch_geometry

    geometry = batch_geometry(MachineConfig())
    try:
        from repro.trace.columnar import build_plan_entry
    except ImportError:  # older trees store the plan's own payload()
        from repro.trace.columnar import build_batch_plan

        payload = build_batch_plan(trace, geometry).payload()
    else:
        payload = build_plan_entry(trace, geometry)[1]
    digest = hashlib.sha256()
    for name, array in payload.items():
        array = np.ascontiguousarray(array)
        digest.update(f"{name}:{array.dtype.str}:{array.size};".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=50_000)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 2 ** 63])
    args = parser.parse_args(argv)
    for name in SERVER_SUITE:
        program = build_program(WORKLOAD_SPECS[name])
        for seed in args.seeds:
            trace = synthesize_trace(program, args.length, seed=seed, name=name)
            # The plan first: built from the trace as synthesis left it,
            # before the digest below reads every column as a list.
            plan = plan_digest(trace)
            digest = hashlib.sha256()
            for column in COLUMNS:
                digest.update(np.asarray(getattr(trace, column), dtype=np.int64).tobytes())
            print(f"{name} seed={seed} {digest.hexdigest()}", flush=True)
            print(f"{name} seed={seed} plan {plan}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
