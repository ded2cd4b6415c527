#!/usr/bin/env python
"""Print one sha256 per synthetic trace, so two source trees can be
compared with ``cmp``.

    PYTHONPATH=src python scripts/trace_digests.py [--length N] [--seeds S ...]

Builds every suite workload's program and walks it at each seed; a line
is ``<workload> seed=<seed> <sha256 of the trace's columns as int64>``.
Only ``build_program``, ``synthesize_trace`` and the suite's specs are
used, so the script runs against older trees too (point ``PYTHONPATH``
at their ``src``).
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=50_000)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 2 ** 63])
    args = parser.parse_args(argv)
    for name in SERVER_SUITE:
        program = build_program(WORKLOAD_SPECS[name])
        for seed in args.seeds:
            trace = synthesize_trace(program, args.length, seed=seed, name=name)
            digest = hashlib.sha256()
            for column in COLUMNS:
                digest.update(np.asarray(getattr(trace, column), dtype=np.int64).tobytes())
            print(f"{name} seed={seed} {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
