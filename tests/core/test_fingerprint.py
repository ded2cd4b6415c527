"""The ``CACHE_SCHEMA`` rule, enforced: pinned fingerprints of what the
persistent caches store.

Every disk, service-journal and remote cache entry is keyed under
``CACHE_SCHEMA``. A change to the trace synthesizer or the simulator
that alters any trace or result must bump it, or the caches serve
entries made under the old semantics. These tests recompute digests of
every workload's trace and of a mini-matrix of results and compare them
with the ones pinned beside ``CACHE_SCHEMA`` in
:mod:`repro.core.exec.cachekey`. A failure names what changed.
"""

import hashlib

import numpy as np

from repro.cli import parse_config
from repro.core.config import build_simulator
from repro.core.exec.cachekey import (
    RESULT_FINGERPRINTS,
    TRACE_FINGERPRINTS,
    digest,
)
from repro.trace.trace import Trace
from repro.trace.workloads import SERVER_SUITE, get_trace

STALE = "simulation or synthesis semantics changed: bump CACHE_SCHEMA and re-pin"

#: Trace fingerprints: every workload at (length, seed).
TRACE_LENGTH, TRACE_SEED = 4_000, 7

#: Result fingerprints: the ideal I-BTB 16 baseline plus the CLI's
#: default configs, on two workloads, at (length, warmup).
CONFIG_SPECS = ["ibtb:16@ideal", "ibtb:16", "rbtb:3", "bbtb:1:split", "mbbtb:2:allbr"]
RESULT_WORKLOADS = ["web_frontend", "kv_store"]
RESULT_LENGTH, RESULT_WARMUP = 3_000, 750


def trace_fingerprint(trace):
    """sha256 over every column, as little-endian int64, in column order."""
    h = hashlib.sha256()
    for col in Trace._COLUMNS:
        h.update(col.encode("ascii"))
        h.update(np.asarray(getattr(trace, col), dtype="<i8").tobytes())
    return h.hexdigest()


def result_fingerprint(result):
    """sha256 of the canonical JSON of a result as the caches hold it."""
    return digest(
        {
            "instructions": int(result.instructions),
            "cycles": int(result.cycles),
            "stats": {k: float(v) for k, v in result.stats.items()},
            "structure": {k: float(v) for k, v in result.structure.items()},
        }
    )


def current_trace_fingerprints():
    return {
        name: trace_fingerprint(get_trace(name, TRACE_LENGTH, TRACE_SEED))
        for name in SERVER_SUITE
    }


def current_result_fingerprints():
    out = {}
    for workload in RESULT_WORKLOADS:
        trace = get_trace(workload, RESULT_LENGTH, TRACE_SEED)
        for spec in CONFIG_SPECS:
            result = build_simulator(parse_config(spec), trace).run(warmup=RESULT_WARMUP)
            out[f"{workload} {spec}"] = result_fingerprint(result)
    return out


def changed(current, pinned):
    return sorted(k for k in current.keys() | pinned.keys() if current.get(k) != pinned.get(k))


def test_trace_fingerprints_are_pinned():
    diff = changed(current_trace_fingerprints(), TRACE_FINGERPRINTS)
    assert not diff, f"trace of {', '.join(diff)}: {STALE}"


def test_result_fingerprints_are_pinned():
    diff = changed(current_result_fingerprints(), RESULT_FINGERPRINTS)
    assert not diff, f"result of {', '.join(diff)}: {STALE}"
