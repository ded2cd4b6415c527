"""The kernel's memory side vs the reference ``MemoryHierarchy``.

Hypothesis draws a small hierarchy (see ``test_fuzz.memories``), a
stride table and prefetch degrees, and one random stream of loads,
stores, instruction fetches and FDIP prefetches at jittered cycles, so
fills are in flight when their lines are touched again, evicted early
or dropped on full MSHRs. The stream runs through the reference
hierarchy's ``load``/``store``/``ifetch``/``ifetch_prefetch`` and,
beside it, through what the kernel does instead: the hits inlined here
as codegen inlines them, the misses through ``miss_paths``, the DTLB and
the stride prefetcher read from ``build_data_plan``'s columns, and the
stride guard's switch to a replayed table at the first merge.
Every return value must match, and so must the final state of every
structure the kernel moves: each array's ``_sets`` and ``_tick``, each
cache's ``_pending`` and DRAM's ``_next_slot``.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.passes.misspath import miss_paths, supports
from repro.memory.hierarchy import MemoryHierarchy
from repro.trace.columnar import (
    build_data_plan,
    data_accesses,
    stride_step,
    stride_table,
)
from repro.trace.trace import Trace

from tests.kernel.test_fuzz import memories


@st.composite
def streams(draw):
    """Ops ``(kind, pc, addr, cycle)``; ``addr`` is a line for the
    instruction side. Each load/store PC walks its own stride most of
    the time, so the stride prefetcher gains confidence."""
    pcs = draw(st.lists(st.integers(0, 1 << 12), min_size=1, max_size=6, unique=True))
    strides = {pc: draw(st.sampled_from([0, 8, 64, -64, 200, 4096])) for pc in pcs}
    last = {pc: draw(st.integers(0, 1 << 14)) for pc in pcs}
    ops = []
    base = 0
    for _ in range(draw(st.integers(1, 300))):
        # Dense cycles, so ops land exactly on fill-completion cycles.
        base += draw(st.sampled_from([0, 0, 1, 1, 2, 30]))
        cycle = base + draw(st.integers(0, 3))
        kind = draw(st.sampled_from(["load", "load", "store", "ifetch", "fdip"]))
        if kind in ("load", "store"):
            pc = draw(st.sampled_from(pcs))
            if draw(st.integers(0, 3)):
                last[pc] += strides[pc]
            else:
                last[pc] = draw(st.integers(0, 1 << 14))
            ops.append((kind, pc, last[pc], cycle))
        else:
            ops.append((kind, 0, draw(st.integers(0, 255)), cycle))
    return ops


def _hierarchy(memory_config, entries, degree, next_line):
    mem = MemoryHierarchy(memory_config)
    mem.dstride.table_entries = entries
    mem.dstride.degree = degree
    mem.l2.prefetcher.degree = next_line
    return mem


def _reference(mem, ops):
    out = []
    for kind, pc, addr, cycle in ops:
        if kind == "load":
            out.append(mem.load(pc, addr, cycle))
        elif kind == "store":
            out.append(mem.store(pc, addr, cycle))
        elif kind == "ifetch":
            out.append(mem.ifetch(addr << 6, cycle))
        else:
            out.append(mem.ifetch_prefetch(addr << 6, cycle))
    return out


def _data_trace(ops):
    trace = Trace(name="stream")
    for kind, pc, addr, _cycle in ops:
        if kind in ("load", "store"):
            trace.append(pc, is_load=kind == "load", is_store=kind == "store",
                         maddr=addr)
    return trace


def _kernel_side(mem, ops):
    """The memory half of the generated kernel, written out by hand."""
    assert supports(mem)
    l1d_miss, l1d_prefetch, l1i_miss, l1i_prefetch, l2tlb, itlb_miss = miss_paths(mem)
    trace = _data_trace(ops)
    dtlb_miss, dstrides = build_data_plan(*data_accesses(trace), mem.dtlb, mem.dstride)
    l1d, l1i, itlb, dstride = mem.l1d, mem.l1i, mem.itlb, mem.dstride
    l1d_mask, l1i_mask = l1d.array.sets - 1, l1i.array.sets - 1
    itlb_mask = itlb.array.sets - 1

    def itlb_lookup(page, cycle):
        entry = itlb.array._sets[page & itlb_mask].get(page)
        if entry is None:
            return itlb_miss(page, cycle) - itlb.latency
        itlb.array._tick += 1
        entry[1] = itlb.array._tick
        return cycle

    live = None
    out = []
    k = 0
    for kind, pc, addr, cycle in ops:
        if kind in ("load", "store"):
            tlb_done = cycle + mem.dtlb.latency
            if dtlb_miss[k]:
                tlb_done = l2tlb(addr >> 12, tlb_done)
            line = addr >> 6
            entry = l1d.array._sets[line & l1d_mask].get(line)
            merged = False
            if entry is not None:
                l1d.array._tick += 1
                entry[1] = l1d.array._tick
                data_done = cycle + l1d.latency if entry[0] <= cycle else entry[0]
            else:
                data_done = l1d_miss(line, cycle)
                merged = line not in l1d.array._sets[line & l1d_mask]
                if merged and live is None:
                    live = stride_table(trace, dstride, k)
            stride = 0
            if live is None:
                stride = dstrides[k]
            elif not merged:
                stride = stride_step(live, dstride.table_entries, pc, addr)
            for d in range(1, dstride.degree + 1):
                pf = (addr + stride * d) >> 6
                if stride and pf not in l1d.array._sets[pf & l1d_mask] \
                        and pf not in l1d._pending:
                    l1d_prefetch(pf, cycle)
            out.append(max(tlb_done, data_done) if kind == "load" else None)
            k += 1
        elif kind == "ifetch":
            tlb_done = itlb_lookup(addr >> 6, cycle)
            entry = l1i.array._sets[addr & l1i_mask].get(addr)
            if entry is not None:
                l1i.array._tick += 1
                entry[1] = l1i.array._tick
                data_done = cycle if entry[0] <= cycle else entry[0] - l1i.latency
            else:
                data_done = l1i_miss(addr, cycle) - l1i.latency
            out.append(max(tlb_done, data_done, cycle))
        else:
            itlb_lookup(addr >> 6, cycle)
            if addr not in l1i.array._sets[addr & l1i_mask] and addr not in l1i._pending:
                l1i_prefetch(addr, cycle)
            out.append(None)
    return out


def _state(mem):
    caches = {
        c.name: (c.array._sets, c.array._tick, c._pending)
        for c in (mem.l1i, mem.l1d, mem.l2, mem.llc)
    }
    tlbs = {t.name: (t.array._sets, t.array._tick) for t in (mem.itlb, mem.l2tlb)}
    return caches, tlbs, mem.dram._next_slot


@settings(max_examples=200, deadline=None)
@given(
    memory_config=memories(),
    dram_latency=st.integers(1, 400),
    entries=st.integers(1, 4),
    degree=st.integers(1, 3),
    next_line=st.integers(1, 2),
    ops=streams(),
)
def test_miss_paths_match_the_reference_hierarchy(
    memory_config, dram_latency, entries, degree, next_line, ops
):
    memory_config = replace(memory_config, dram_latency=dram_latency)
    reference = _hierarchy(memory_config, entries, degree, next_line)
    flat = _hierarchy(memory_config, entries, degree, next_line)
    assert _kernel_side(flat, ops) == _reference(reference, ops)
    assert _state(flat) == _state(reference)
