"""GenDAGPass: elaborate a MachineConfig into a kernel plan.

The pass instantiates the same BTB, prediction engine and backend
``build_simulator`` would create (throwaway copies), reads every
structural constant the generated code needs (set masks, index shifts,
predictor geometry, latencies, ring sizes), and builds the component
dependency DAG from the port declarations in
:mod:`repro.core.passes.components`. Reading constants off real objects
instead of re-deriving them keeps the codegen immune to drift in the
sizing formulas. The memory hierarchy is not among them: the kernel
reads its geometry and latencies off ``sim.memory`` at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.backend.scoreboard import IdealBackend, OoOBackend
from repro.core.passes.components import (
    Component,
    elided_components,
    live_components,
)
from repro.core.simulator import FrontendConfig, LINE_AVAIL_ENTRIES
from repro.frontend.engine import PredictionEngine


@dataclass
class KernelPlan:
    """Everything codegen needs, hoisted out of the hardware objects."""

    config: object
    # -- component DAG ---------------------------------------------------
    components: Tuple[Component, ...] = ()
    elided: Tuple[str, ...] = ()
    #: component name -> names it must run after (port-derived edges).
    edges: Dict[str, List[str]] = field(default_factory=dict)
    # -- BTB -------------------------------------------------------------
    btb_kind: str = "ibtb"
    index_shift: int = 2
    l1_set_mask: int = 0
    has_l2: bool = True
    rb_overflow_bubble: int = 1
    # -- prediction engine (the plan geometry the kernel accepts) --------
    ptable_mask: int = 0
    theta: int = 0
    ind_mask: int = 0
    ras_depth: int = 64
    # -- frontend --------------------------------------------------------
    ftq_entries: int = 64
    fetch_width: int = 16
    fetch_lines: int = 8
    interleave_mask: int = 7
    decode_depth: int = 4
    early_resteer: bool = False
    line_avail_entries: int = LINE_AVAIL_ENTRIES
    # -- backend ---------------------------------------------------------
    ideal_backend: bool = False
    bk_width: int = 16
    bk_rob: int = 352
    bk_fq: int = 128
    bk_load_ports: int = 3
    bk_store_ports: int = 2
    bk_branch_latency: int = 1
    bk_alu_latency: int = 1
    bk_window: int = 8192


class GenDAGPass:
    """Elaborate *config* into a :class:`KernelPlan`."""

    def __call__(self, config) -> KernelPlan:
        btb = config.build_btb()
        engine = PredictionEngine(bp_size_kb=config.bp_size_kb)
        backend = IdealBackend() if config.ideal_backend else OoOBackend()
        fe = FrontendConfig(early_resteer=config.early_resteer)

        components = live_components(config)
        plan = KernelPlan(
            config=config,
            components=components,
            elided=elided_components(config),
            edges=self._edges(components),
            btb_kind=config.btb_kind,
            index_shift=btb.store._shift,
            l1_set_mask=btb.store.l1.sets - 1,
            has_l2=btb.store.l2 is not None,
            ptable_mask=engine.perceptron._mask,
            theta=engine.perceptron.theta,
            ind_mask=engine.indirect._mask,
            ras_depth=engine.ras.depth,
            ftq_entries=fe.ftq_entries,
            fetch_width=fe.fetch_width,
            fetch_lines=fe.fetch_lines,
            interleave_mask=fe.interleaves - 1,
            decode_depth=fe.decode_depth,
            early_resteer=fe.early_resteer,
            ideal_backend=config.ideal_backend,
        )
        if config.btb_kind == "rbtb":
            plan.rb_overflow_bubble = btb.overflow_bubble
        if config.ideal_backend:
            plan.bk_window = backend.window
        else:
            plan.bk_width = backend.width
            plan.bk_rob = backend.rob_size
            plan.bk_fq = backend.frontend_queue
            plan.bk_load_ports = len(backend._load_ring)
            plan.bk_store_ports = len(backend._store_ring)
            plan.bk_branch_latency = backend.branch_latency
            plan.bk_alu_latency = backend.alu_latency
        return plan

    @staticmethod
    def _edges(components: Tuple[Component, ...]) -> Dict[str, List[str]]:
        """Producer -> consumer edges derived from the port declarations.

        A component that reads port P depends on every earlier-declared
        component that writes P (the declaration order encodes the
        reference interpreter's program order, which breaks write/write
        ties the same way the interpreter does). Nested components
        additionally depend on their parent.
        """
        by_name = {c.name: c for c in components}
        edges: Dict[str, List[str]] = {c.name: [] for c in components}
        for i, comp in enumerate(components):
            deps: List[str] = []
            for earlier in components[:i]:
                if set(comp.reads) & set(earlier.writes):
                    deps.append(earlier.name)
            if comp.parent and comp.parent in by_name:
                if comp.parent not in deps:
                    deps.append(comp.parent)
            edges[comp.name] = deps
        return edges
