"""Named synthetic workload suite standing in for the CVP-1 server traces.

The paper evaluates 147 proprietary CVP-1 server traces. We cannot ship
those, so this module defines a suite of synthetic datacenter-style
workloads whose *aggregate* statistics bracket the ones the paper reports:
mean dynamic basic-block size around 9.4 (spanning ~7–15 across the suite,
which Fig. 11a needs), ~35 % never-taken conditionals, single-target
indirect branches, instruction footprints that stress a 32 KB L1I, and
conditional-branch predictability giving sub-1 geomean MPKI under the
64 KB perceptron.

Workloads are deterministic functions of their spec (seeded), generated
on first use and cached in-process for library callers. The sweep engine
builds its own and keeps only the trace group it is running
(:mod:`repro.core.exec.engine`).
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Dict, List

from repro.trace.cfg import ProgramSpec, build_program
from repro.trace.synth import synthesize_trace
from repro.trace.trace import Trace


def _spec(seed: int, **overrides) -> ProgramSpec:
    return replace(ProgramSpec(seed=seed), **overrides)


#: The server suite: name -> ProgramSpec. Footprints, block sizes and
#: branch mixes vary per workload, like heterogeneous datacenter binaries.
WORKLOAD_SPECS: Dict[str, ProgramSpec] = {
    # Web front-end: big footprint, small blocks, call-heavy.
    "web_frontend": _spec(
        11, n_functions=300, blocks_per_function_mean=16, block_body_mean=3.4,
        w_call=0.20, w_never_taken=0.40,
    ),
    # OLTP database: medium blocks, many guard branches.
    "db_oltp": _spec(
        23, n_functions=260, blocks_per_function_mean=15, block_body_mean=4.2,
        w_never_taken=0.44, w_random=0.12, random_bias=0.80,
    ),
    # Analytics column scan: long loops, bigger blocks.
    "db_analytics": _spec(
        37, n_functions=170, blocks_per_function_mean=12, block_body_mean=6.4,
        w_cond=0.46, w_plain=0.24, loop_trips_mean=18, w_never_taken=0.30,
    ),
    # Key-value store: small hot loop plus wide dispatch indirects.
    "kv_store": _spec(
        41, n_functions=240, blocks_per_function_mean=13, block_body_mean=4.0,
        w_indirect_jump=0.07, w_indirect_call=0.05, w_ind_round_robin=0.30,
    ),
    # HTTP proxy: pattern-heavy branches, medium footprint.
    "http_proxy": _spec(
        53, n_functions=250, blocks_per_function_mean=14, block_body_mean=3.8,
        w_pattern=0.26, w_never_taken=0.36,
    ),
    # Message broker: call-chains through many layers.
    "msg_broker": _spec(
        59, n_functions=280, blocks_per_function_mean=12, block_body_mean=4.6,
        n_levels=8, w_call=0.22,
    ),
    # Search ranking: bigger blocks, multiply-heavy.
    "search_rank": _spec(
        67, n_functions=190, blocks_per_function_mean=13, block_body_mean=5.8,
        p_mul=0.12, w_never_taken=0.28, loop_trips_mean=14,
    ),
    # Serialization/RPC marshalling: tiny blocks, branchy.
    "rpc_marshal": _spec(
        71, n_functions=300, blocks_per_function_mean=17, block_body_mean=3.0,
        w_cond=0.58, w_never_taken=0.42,
    ),
    # Garbage-collected runtime: loops with random exits.
    "gc_runtime": _spec(
        79, n_functions=230, blocks_per_function_mean=14, block_body_mean=4.4,
        w_loop=0.22, w_random=0.13, random_bias=0.85,
    ),
    # Template rendering: large straight-line sections.
    "template_render": _spec(
        83, n_functions=160, blocks_per_function_mean=11, block_body_mean=7.6,
        w_plain=0.28, w_cond=0.40, w_never_taken=0.26,
    ),
    # Compression service: tight loops, very predictable.
    "compress_svc": _spec(
        89, n_functions=140, blocks_per_function_mean=10, block_body_mean=6.8,
        loop_trips_mean=24, w_loop=0.24, w_random=0.05,
    ),
    # Ad-server feature lookup: indirect-heavy, random memory.
    "ad_server": _spec(
        97, n_functions=270, blocks_per_function_mean=15, block_body_mean=3.6,
        w_indirect_jump=0.06, w_ind_random=0.28, p_mem_random=0.18,
    ),
}

#: Default evaluation suite (ordering is stable).
SERVER_SUITE: List[str] = list(WORKLOAD_SPECS)

#: A small subset for fast tests / smoke benches.
SMOKE_SUITE: List[str] = ["web_frontend", "db_oltp", "kv_store", "template_render"]


def workload_spec(name: str) -> ProgramSpec:
    """The spec of workload *name* (``KeyError`` naming the suite if
    there is none)."""
    try:
        return WORKLOAD_SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {', '.join(SERVER_SUITE)}"
        ) from None


@lru_cache(maxsize=None)
def get_program(name: str):
    """Build (and cache) the static program of workload *name*."""
    return build_program(workload_spec(name))


@lru_cache(maxsize=None)
def get_trace(name: str, length: int, seed: int = 7) -> Trace:
    """Synthesize (and cache) a dynamic trace for workload *name*."""
    program = get_program(name)
    return synthesize_trace(program, length, seed=seed, name=name)


def suite_traces(length: int, names=None, seed: int = 7) -> List[Trace]:
    """Traces for every workload in *names* (default: full server suite)."""
    return [get_trace(name, length, seed) for name in (names or SERVER_SUITE)]
