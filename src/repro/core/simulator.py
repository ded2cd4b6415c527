"""Cycle-level decoupled-front-end simulator (the paper's Fig. 1/Fig. 3).

One-pass, timing-directed, trace-driven: the front end walks the correct
dynamic path; predictor and BTB state decide whether each control
transfer would have been followed correctly, and wrong speculation
charges the Fig.-3 penalties:

* L1 BTB hit, predicted-taken branch      -> 0 bubbles (configurable);
* L2 BTB hit, taken branch                -> 3 bubbles on the next PC;
* non-return indirect branch              -> +1 bubble;
* BTB miss on a decode-recoverable branch -> *misfetch*: PC generation
  stalls until the branch reaches decode;
* direction / indirect-target misprediction -> PC generation stalls
  until the branch executes.

Each cycle: PC generation performs one BTB access (if the FTQ has space
and no resteer is pending) and pushes cache-line-granular FTQ entries
(issuing FDIP prefetches); the fetch stage pops up to 8 lines / 16
instructions across distinct I-cache interleaves and admits them to the
back-end model, which returns complete/commit times.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.common.types import LINE_BYTES
from repro.btb.base import attach_probe
from repro.frontend.engine import MISFETCH, PredictionEngine
from repro.frontend.ftq import FetchTargetQueue
from repro.obs.events import ICACHE_WAIT, RESTEER
from repro.obs.probe import NULL_PROBE

#: Bound on the I-cache line availability map. Lines past this are
#: evicted least-recently-touched first; the map is never wholesale
#: cleared (which would force a re-miss of every hot line).
LINE_AVAIL_ENTRIES = 4096


@dataclass
class FrontendConfig:
    """Front-end shape per Table 1."""

    ftq_entries: int = 64
    fetch_width: int = 16
    fetch_lines: int = 8
    interleaves: int = 8
    #: Pipeline stages from fetch to decode (ITLB | I$1 | I$2 | I$3 | DEC
    #: with the ITLB overlapped: 4 cycles).
    decode_depth: int = 4
    #: Resteer misfetches from predecode (2 stages before decode) instead
    #: of decode — the early-resteer optimization of Ishii et al.
    early_resteer: bool = False


@dataclass
class SimResult:
    """Outcome of one simulation (measurement window only)."""

    name: str
    instructions: int
    cycles: int
    stats: Dict[str, float] = field(default_factory=dict)
    structure: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def branch_mpki(self) -> float:
        if not self.instructions:
            return 0.0
        return 1000.0 * self.stats.get("mispredicts", 0.0) / self.instructions

    @property
    def misfetch_pki(self) -> float:
        if not self.instructions:
            return 0.0
        return 1000.0 * self.stats.get("misfetches", 0.0) / self.instructions

    @property
    def fetch_pcs_per_access(self) -> float:
        accesses = self.stats.get("btb_accesses", 0.0)
        if not accesses:
            return 0.0
        return self.stats.get("fetch_pcs", 0.0) / accesses

    @property
    def l1_btb_hit_rate(self) -> float:
        lookups = self.stats.get("btb_taken_lookups", 0.0)
        if not lookups:
            return 0.0
        return self.stats.get("btb_taken_l1_hits", 0.0) / lookups

    @property
    def l2_btb_hit_rate(self) -> float:
        """Taken branches hitting L1 *or* L2 over all taken lookups."""
        lookups = self.stats.get("btb_taken_lookups", 0.0)
        if not lookups:
            return 0.0
        hits = self.stats.get("btb_taken_l1_hits", 0.0) + self.stats.get(
            "btb_taken_l2_hits", 0.0
        )
        return hits / lookups


class Simulator:
    """Ties trace, BTB organization, predictors, memory and back-end."""

    def __init__(
        self,
        trace,
        btb,
        engine: PredictionEngine,
        backend,
        memory=None,
        frontend: Optional[FrontendConfig] = None,
        probe=None,
        config=None,
    ) -> None:
        self.trace = trace
        self.btb = btb
        self.engine = engine
        self.backend = backend
        self.memory = memory
        self.fe = frontend if frontend is not None else FrontendConfig()
        self.stats = engine.stats  # one shared counter bag
        #: Observability probe (see :mod:`repro.obs`); the default
        #: :data:`NULL_PROBE` keeps the run uninstrumented.
        self.probe = probe if probe is not None else NULL_PROBE
        #: The MachineConfig this simulator elaborates (when known); the
        #: pass pipeline needs it to specialize a kernel.
        self.config = config
        self._kernel_ran = False

    def kernel_engine(self) -> str:
        """Engine :meth:`run` will use: ``"batched"`` or ``"interp"``.

        The plan-consuming kernel needs the elaborating config (for the
        pass pipeline), an uninstrumented run (probe call sites are
        elided, not guarded), the stock frontend and the stock backend
        ring sizes and latencies (which the kernel bakes in), a
        memory hierarchy wired the stock way (any geometry: the kernel
        reads it at run time) that an OoO backend loads through, and a
        fresh stats bag (the interpreter's warm-snapshot subtraction and
        the kernel's local counters only agree from zero). Anything else
        falls back to the reference interpreter — bit-identical, slower.
        """
        # Imported lazily: repro.core.passes.dag imports this module.
        from repro.core.passes.kernel import kernel_mode, supports
        from repro.core.passes.misspath import supports as memory_supported

        if kernel_mode() == "interp" or not supports(self.config):
            return "interp"
        if self.probe.enabled or not memory_supported(self.memory):
            return "interp"
        if self.fe != FrontendConfig(early_resteer=self.config.early_resteer):
            return "interp"
        from repro.backend.scoreboard import IdealBackend, OoOBackend

        expected = IdealBackend if self.config.ideal_backend else OoOBackend
        if type(self.backend) is not expected:
            return "interp"
        if self.backend.shape() != expected().shape():
            return "interp"
        if expected is OoOBackend and self.backend.memory is not self.memory:
            return "interp"
        if self.stats._counters:
            return "interp"
        return "batched"

    def run(
        self,
        warmup: int = 0,
        sample_structure: bool = True,
        batch_plan=None,
    ) -> SimResult:
        """Simulate the whole trace; measure after *warmup* instructions.

        Dispatches to the plan-consuming kernel when eligible (see
        :meth:`kernel_engine`), else to the reference interpreter below;
        both produce bit-identical results. The kernel reads
        *batch_plan*, the :class:`~repro.trace.columnar.BatchPlan` shared
        by this config's predictor-geometry family; without one, the
        plan is built here for this run alone.

        A simulator runs on the kernel at most once: the kernel leaves
        the predictor objects cold, so continuing from its state would
        pair cold predictors with a warm BTB.
        """
        if self._kernel_ran:
            raise RuntimeError(
                "Simulator already ran on the kernel, which leaves its "
                "predictors cold; build a new one to run again"
            )
        if self.kernel_engine() == "interp":
            return self._run_interp(warmup, sample_structure)
        from repro.core.passes.kernel import batch_geometry, get_kernel

        kernel = get_kernel(self.config)
        if batch_plan is None:
            from repro.trace.columnar import build_batch_plan

            batch_plan = build_batch_plan(self.trace, batch_geometry(self.config))
        self._kernel_ran = True
        return kernel.fn(self, batch_plan, warmup, sample_structure)

    def _run_interp(
        self, warmup: int = 0, sample_structure: bool = True
    ) -> SimResult:
        """Reference interpreter (the readable, always-correct engine)."""
        tr = self.trace
        n = len(tr.pc)
        if warmup >= n:
            raise ValueError("warmup must be smaller than the trace")
        fe = self.fe
        mem = self.memory
        backend = self.backend
        btb = self.btb
        engine = self.engine
        st = self.stats
        pcs = tr.pc
        btypes = tr.btype
        is_load = tr.is_load
        is_store = tr.is_store
        dsts = tr.dst
        src1s = tr.src1
        src2s = tr.src2
        maddrs = tr.maddr
        #: Per-instruction cache-line index, computed once per trace
        #: (vectorized) instead of dividing per access in the loop below.
        line_ix = tr.line_index()

        probe = self.probe
        probe_on = probe.enabled
        if probe_on:
            probe.begin(tr.name, n, warmup, st)
            attach_probe(btb, probe)
            engine.probe = probe
            if mem is not None:
                mem.set_probe(probe)

        ftq = FetchTargetQueue(fe.ftq_entries, probe if probe_on else None)
        line_avail: "OrderedDict[int, int]" = OrderedDict()

        # Hoist hot-path bound-method lookups out of the cycle loop.
        st_add = st.add
        btb_scan = btb.scan
        ftq_push = ftq.push
        ftq_head = ftq.head
        ftq_consume = ftq.consume
        ftq_has_space = ftq.has_space
        fetch_gate = backend.fetch_gate
        backend_admit = backend.admit
        line_avail_get = line_avail.get
        line_avail_touch = line_avail.move_to_end
        line_avail_evict = line_avail.popitem
        mem_prefetch = mem.ifetch_prefetch if mem is not None else None
        mem_ifetch = mem.ifetch if mem is not None else None

        cycle = 0
        i_pcgen = 0
        admitted = 0
        pcgen_ready = 0
        pcgen_stalled = False
        pending_events: Dict[int, str] = {}
        warm_commit = 0
        warm_snapshot: Optional[Dict[str, float]] = None
        if warmup == 0:
            # Measure from the very beginning (exact accounting).
            warm_snapshot = st.as_dict()
        last_commit = 0
        max_cycles = 1000 + n * 64
        interleave_mask = fe.interleaves - 1

        while admitted < n:
            if probe_on:
                probe.on_cycle(cycle, len(ftq), admitted)
            # ---- PC generation ------------------------------------------------
            if (
                i_pcgen < n
                and not pcgen_stalled
                and cycle >= pcgen_ready
                and ftq_has_space()
            ):
                access = btb_scan(pcs[i_pcgen], i_pcgen, tr, engine)
                if access.count > 0:
                    st_add("btb_accesses")
                    st_add("fetch_pcs", access.count)
                    st_add("blocks_per_access", access.blocks)
                    # Segment the covered indices into cache lines and
                    # issue FDIP prefetches.
                    seg_start = i_pcgen
                    seg_line = line_ix[seg_start]
                    seg_count = 1
                    for j in range(i_pcgen + 1, i_pcgen + access.count):
                        line = line_ix[j]
                        if line == seg_line:
                            seg_count += 1
                            continue
                        ftq_push(seg_line, seg_start, seg_count, cycle)
                        if mem_prefetch is not None:
                            mem_prefetch(seg_line * LINE_BYTES, cycle)
                        seg_start, seg_line, seg_count = j, line, 1
                    ftq_push(seg_line, seg_start, seg_count, cycle)
                    if mem_prefetch is not None:
                        mem_prefetch(seg_line * LINE_BYTES, cycle)
                    i_pcgen += access.count
                    if access.event is not None:
                        pending_events[access.event_index] = access.event
                        pcgen_stalled = True
                    else:
                        pcgen_ready = cycle + 1 + access.bubbles
                else:
                    i_pcgen = n  # trace exhausted mid-access

            # ---- Fetch --------------------------------------------------------
            lines_used = 0
            insts_used = 0
            interleaves_used = 0
            while lines_used < fe.fetch_lines and insts_used < fe.fetch_width:
                head = ftq_head()
                if head is None or not head.consumable(cycle):
                    break
                il_bit = 1 << (head.line & interleave_mask)
                if interleaves_used & il_bit:
                    break
                if fetch_gate(head.first_index) > cycle:
                    break
                avail = line_avail_get(head.line)
                if avail is None:
                    if mem_ifetch is not None:
                        avail = mem_ifetch(head.line * LINE_BYTES, cycle)
                    else:
                        avail = cycle
                    line_avail[head.line] = avail
                    if len(line_avail) > LINE_AVAIL_ENTRIES:
                        line_avail_evict(last=False)
                else:
                    line_avail_touch(head.line)
                if avail > cycle:
                    if probe_on:
                        probe.emit(ICACHE_WAIT, head.line, avail - cycle)
                    break
                take = min(head.count, fe.fetch_width - insts_used)
                decode_ready = cycle + fe.decode_depth
                first = head.first_index
                for k in range(take):
                    j = first + k
                    bt = btypes[j]
                    complete, commit = backend_admit(
                        j,
                        decode_ready,
                        pcs[j],
                        bt != 0,
                        is_load[j] == 1,
                        is_store[j] == 1,
                        dsts[j],
                        src1s[j],
                        src2s[j],
                        maddrs[j],
                    )
                    last_commit = commit
                    if pending_events:
                        kind = pending_events.pop(j, None)
                        if kind is not None:
                            if kind == MISFETCH:
                                resteer = decode_ready
                                if fe.early_resteer:
                                    resteer = max(cycle, decode_ready - 2)
                            else:
                                resteer = complete
                            resume = resteer + 1
                            if resume > pcgen_ready:
                                pcgen_ready = resume
                            pcgen_stalled = False
                            if probe_on:
                                probe.emit_at(
                                    resteer,
                                    RESTEER,
                                    j,
                                    0 if kind == MISFETCH else 1,
                                )
                admitted += take
                insts_used += take
                interleaves_used |= il_bit
                lines_used += 1
                ftq_consume(take)
                if admitted >= warmup and warm_snapshot is None:
                    warm_commit = last_commit
                    warm_snapshot = st.as_dict()

            cycle += 1
            if cycle > max_cycles:
                raise RuntimeError(
                    f"simulator wedged at cycle {cycle} "
                    f"(admitted {admitted}/{n}, ftq={len(ftq)})"
                )

        if probe_on:
            probe.finish(cycle, admitted)

        if warm_snapshot is None:
            warm_snapshot = {}
            warm_commit = 0
        final = st.as_dict()
        measured = {
            key: final[key] - warm_snapshot.get(key, 0.0) for key in final
        }
        structure: Dict[str, float] = {}
        if sample_structure and hasattr(btb, "slot_occupancy"):
            structure["l1_slot_occupancy"] = btb.slot_occupancy(1)
            structure["l1_redundancy"] = btb.redundancy_ratio(1)
            store = getattr(btb, "store", None)
            has_l2 = getattr(btb, "has_l2", store is not None and store.l2 is not None)
            if has_l2:
                structure["l2_slot_occupancy"] = btb.slot_occupancy(2)
                structure["l2_redundancy"] = btb.redundancy_ratio(2)
        return SimResult(
            name=tr.name,
            instructions=n - warmup,
            cycles=max(1, last_commit - warm_commit),
            stats=measured,
            structure=structure,
        )
