"""CodegenPass: emit specialized Python source for one config's run loop.

The generated function reproduces :meth:`Simulator.run` exactly for one
:class:`MachineConfig`, with every configuration branch resolved at
generation time:

* config values are literals (masks, latencies, widths, thresholds);
  the memory hierarchy's are locals read off ``sim.memory``, so any
  hierarchy geometry runs on one kernel;
* attribute lookups are flattened to locals bound once in the prelude;
* the probe, the L2 BTB level (ideal configs), the R-BTB overflow pool,
  the d-side memory (ideal backend) and other dead components emit no
  code at all;
* the per-kind BTB scan is fully inlined.

The kernel consumes a :class:`~repro.trace.columnar.BatchPlan` — the
trace's derived arrays plus the prediction engine's per-branch outcomes,
built once per (trace, predictor geometry) and shared by every config of
that family. ``PredictionEngine.resolve`` trains on trace outcomes only,
never on BTB state, so the plan's direction/RAS/indirect reads replace
the predictor replay without changing a single decision. The plan's
``next_br`` and ``run_end`` offsets let the scan jump over non-branch
runs and the FTQ push jump between cache-line run boundaries; both
consume exactly the instructions the reference loops consume.

Bit-identity strategy: the kernel operates on the *same hardware state
objects* the interpreter would use (``sim.btb``, ``sim.memory``,
``sim.backend``). Hot paths are inlined against their internals
(set-dicts; the backend admits on per-run timelines that it writes
back into its rings at the end, see ``_emit_admit_ooo``); rare paths
(allocate, L2 promote, split/pull) call the reference methods on those
objects, and memory misses run the flat miss paths of
:mod:`repro.core.passes.misspath` on the same state. Inlined fast
paths are written so that a fall-through to a slow path re-executes
only side-effect-free probes (a failed ``dict.get`` has no LRU
effect), which keeps LRU tick sequencing and replacement decisions
identical to the interpreter. The predictor objects on ``sim.engine``,
the DTLB and the stride prefetcher's table are never touched: their
evolution lives in the plan.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.passes.dag import KernelPlan
from repro.core.passes.schedule import Schedule

#: (local suffix, stats counter name), in writeback order. The measured
#: dict includes a key iff its end-of-run total is > 0, matching the
#: interpreter (counters only ever increment).
COUNTERS = (
    ("acc", "btb_accesses"),
    ("fpc", "fetch_pcs"),
    ("bpa", "blocks_per_access"),
    ("dbr", "dyn_branches"),
    ("dtk", "dyn_taken_branches"),
    ("tlk", "btb_taken_lookups"),
    ("l1h", "btb_taken_l1_hits"),
    ("l2h", "btb_taken_l2_hits"),
    ("mp", "mispredicts"),
    ("mpc", "mispredicts_cond"),
    ("mpcu", "mispredicts_cond_untracked"),
    ("mf", "misfetches"),
    ("mpr", "mispredicts_return"),
    ("mpiu", "mispredicts_ind_untracked"),
    ("mpi", "mispredicts_indirect"),
)


class _Writer:
    """Tiny indented-source builder."""

    def __init__(self) -> None:
        self._lines: List[str] = []
        self._level = 0

    def line(self, text: str = "") -> None:
        self._lines.append(("    " * self._level + text) if text else "")

    def lines(self, *texts: str) -> None:
        for t in texts:
            self.line(t)

    def push(self) -> None:
        self._level += 1

    def pop(self) -> None:
        self._level -= 1

    def block(self, header: str) -> "_Block":
        self.line(header)
        return _Block(self)

    def source(self) -> str:
        return "\n".join(self._lines) + "\n"


class _Block:
    def __init__(self, writer: _Writer) -> None:
        self._w = writer

    def __enter__(self) -> "_Block":
        self._w.push()
        return self

    def __exit__(self, *exc) -> None:
        self._w.pop()


def _pow2(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


def _ring_index(expr: str, size: int) -> str:
    """Modulo by a ring size, strength-reduced for powers of two."""
    if _pow2(size):
        return f"{expr} & {size - 1}"
    return f"{expr} % {size}"


class CodegenPass:
    """Generate the specialized run-function source for one plan."""

    def __call__(self, plan: KernelPlan, schedule: Schedule) -> str:
        self.plan = plan
        w = _Writer()
        cfg = plan.config
        w.line(f"# kernel for config {cfg.label!r} (btb_kind={cfg.btb_kind})")
        w.line(f"# schedule: {' -> '.join(schedule.names())}")
        if plan.elided:
            w.line(f"# elided components: {', '.join(plan.elided)}")
        w.line()
        with w.block("def kernel_run(sim, bplan, warmup, sample_structure):"):
            self._emit_prelude(w)
            with w.block("while admitted < n:"):
                for comp in schedule.emitted:
                    w.line(f"# -- component: {comp.name} " + "-" * 20)
                    getattr(self, comp.emitter)(w)
                self._emit_cycle_advance(w)
            self._emit_finalize(w)
        return w.source()

    # -- prelude: bind everything to locals ------------------------------

    def _emit_prelude(self, w: _Writer) -> None:
        p = self.plan
        w.lines(
            "tr = sim.trace",
            "n = len(tr.pc)",
            "if warmup >= n:",
            "    raise ValueError(\"warmup must be smaller than the trace\")",
            "pcs = tr.pc",
            "btypes = tr.btype",
            "takens = tr.taken",
            "targets = tr.target",
            "dsts = tr.dst",
            "src1s = tr.src1",
            "src2s = tr.src2",
            "loads_col = tr.is_load",
            "stores_col = tr.is_store",
            "maddrs = tr.maddr",
            "btb = sim.btb",
            "st = sim.stats",
        )
        # The plan. The geometry guard catches a plan built for another
        # predictor family, the length guard one built from another
        # trace slice; the remaining guards catch a Simulator wired
        # with hardware that does not match its declared config.
        w.lines(
            "pg = bplan.geometry",
            f"if (pg.ptable_mask != {p.ptable_mask} or pg.theta != {p.theta}"
            f" or pg.ind_mask != {p.ind_mask}"
            f" or pg.ras_depth != {p.ras_depth}):",
            "    raise RuntimeError(\"kernel/plan mismatch: geometry\")",
            "line_ix = bplan.line_ix",
            "if len(line_ix) != n:",
            "    raise RuntimeError(\"kernel/plan mismatch: trace length\")",
            "next_br = bplan.next_br",
            "run_end = bplan.run_end",
            "pt_plan = bplan.pt",
            "rasok_plan = bplan.ras_ok",
            "ind_plan = bplan.ind_pred",
        )
        # BTB internals.
        w.lines(
            "store = btb.store",
            "l1arr = store.l1",
            f"if l1arr.sets != {p.l1_set_mask + 1}:",
            "    raise RuntimeError(\"kernel/config mismatch: btb geometry\")",
            "l1_sets = l1arr._sets",
        )
        if p.has_l2:
            w.line("store_lookup = store.lookup")
        kind = p.btb_kind
        if kind == "ibtb":
            w.line("ibtb_train = btb._train")
        elif kind == "rbtb":
            w.line("rb_train = btb._train")
            if self._rb_overflow():
                w.lines("ovf_arr = btb.overflow", "ovf_set = ovf_arr._sets[0]")
        elif kind == "bbtb":
            w.line("bb_train = btb._train_branch")
        elif kind == "mbbtb":
            w.lines("mb_train = btb._train_branch", "mb_update = btb._update_slot")
        # Memory internals (always present in kernel runs). Geometry and
        # latencies are read off the live hierarchy, so a hand-built one
        # runs here too; its slow paths are the flat miss paths.
        w.lines(
            "mem = sim.memory",
            "itlb_arr = mem.itlb.array",
            "itlb_sets = itlb_arr._sets",
            "itlb_mask = itlb_arr.sets - 1",
            "itlb_lat = mem.itlb.latency",
            "l1i = mem.l1i",
            "l1i_arr = l1i.array",
            "l1i_sets = l1i_arr._sets",
            "l1i_mask = l1i_arr.sets - 1",
            "l1i_lat = l1i.latency",
            "l1i_pending = l1i._pending",
            "l1d_miss, l1d_prefetch, l1i_miss, l1i_prefetch, l2tlb, itlb_miss"
            " = miss_paths(mem)",
        )
        # Backend internals.
        w.line("backend = sim.backend")
        if p.ideal_backend:
            w.lines(
                "reg_ready = backend._reg_ready",
                "commit_ring = backend._commit_ring",
                f"if len(commit_ring) != {p.bk_window}:",
                "    raise RuntimeError(\"kernel/config mismatch: backend\")",
                f"K = [-1] * (n + {p.bk_window})",
            )
        else:
            w.lines(
                "reg_ready = backend._reg_ready",
                "commit_ring = backend._commit_ring",
                "cw_ring = backend._commit_width_ring",
                "disp_ring = backend._dispatch_width_ring",
                "fq_ring = backend._fq_ring",
                "load_ring = backend._load_ring",
                "store_ring = backend._store_ring",
                "nloads = backend._loads",
                "nstores = backend._stores",
                f"if (len(commit_ring) != {p.bk_rob} or len(disp_ring) != {p.bk_width}"
                f" or len(fq_ring) != {p.bk_fq} or len(load_ring) != {p.bk_load_ports}"
                f" or len(store_ring) != {p.bk_store_ports}):",
                "    raise RuntimeError(\"kernel/config mismatch: backend\")",
                f"D = [-1] * (n + {max(p.bk_width, p.bk_fq)})",
                f"K = [-1] * (n + {max(p.bk_width, p.bk_rob)})",
                # d-side memory (live only with the OoO backend). The
                # plan's columns stand in for the DTLB and the stride
                # table, which the run leaves untouched; ``dlive`` is the
                # stride table the run keeps itself from the first merge
                # on (see _emit_dside).
                "l1d = mem.l1d",
                "l1d_arr = l1d.array",
                "l1d_sets = l1d_arr._sets",
                "l1d_mask = l1d_arr.sets - 1",
                "l1d_lat = l1d.latency",
                "l1d_pending = l1d._pending",
                "dtlb_lat = mem.dtlb.latency",
                "dstride = mem.dstride",
                "dstride_n = dstride.table_entries",
                "dstride_deg = range(dstride.degree)",
                "dtlb_miss, dstrides = data_columns(bplan, mem.dtlb, dstride, tr)",
                "dk = 0",
                "dlive = None",
                "dmerge = -1",
            )
        # Per-run queues and loop state. ``regs`` is the register
        # scoreboard behind a zero slot that a source of -1 reads.
        w.lines(
            "regs = [0] + reg_ready",
            "ftq = deque()",
            "ftq_append = ftq.append",
            "ftq_popleft = ftq.popleft",
            "line_avail = OrderedDict()",
            "line_avail_get = line_avail.get",
            "line_avail_touch = line_avail.move_to_end",
            "line_avail_evict = line_avail.popitem",
            "pend_j = -1",
            "pend_kind = 0",
            "cycle = 0",
            "i_pcgen = 0",
            "admitted = 0",
            "acc_cycle = -1",
            "pcgen_ready = 0",
            "pcgen_stalled = False",
            "last_commit = backend._last_commit",
            "warm_commit = 0",
            "warm_done = warmup == 0",
            "max_cycles = 1000 + n * 64",
        )
        for local, _name in COUNTERS:
            w.line(f"c_{local} = 0")
        for local, _name in COUNTERS:
            w.line(f"w_{local} = 0")

    def _rb_overflow(self) -> bool:
        cfg = self.plan.config
        return cfg.btb_kind == "rbtb" and cfg.overflow_entries > 0

    # -- shared emitters --------------------------------------------------

    def _emit_note_btb(self, w: _Writer, lvl_expr: str) -> None:
        """Inline PredictionEngine.note_btb (taken branches only)."""
        with w.block("if taken:"):
            w.line("c_tlk += 1")
            with w.block(f"if {lvl_expr} == 1:"):
                w.line("c_l1h += 1")
            if self.plan.has_l2:
                with w.block(f"elif {lvl_expr} == 2:"):
                    w.line("c_l2h += 1")

    def _emit_resolve(self, w: _Writer) -> None:
        """PredictionEngine.resolve, reading the predictors' decisions
        from the plan.

        Inputs: j, bt, taken, target, known, slot. Output: res with
        0=seq, 1=redirect, 2=misfetch, 3=mispredict. The perceptron
        direction, RAS match and indirect-table read come from the plan,
        which did all predictor training once; the only per-config
        piece left is the BTB-fallback indirect prediction
        (``predicted == 0 and known``), which reads this config's slot.
        """
        w.line("c_dbr += 1")
        with w.block("if taken:"):
            w.line("c_dtk += 1")
        with w.block("if bt == 1:"):  # COND_DIRECT
            w.line("pt = pt_plan[j] == 1")
            with w.block("if not known:"):
                with w.block("if taken:"):
                    w.lines("c_mp += 1", "c_mpcu += 1", "res = 3")
                with w.block("else:"):
                    w.line("res = 0")
            with w.block("elif pt != taken:"):
                w.lines("c_mp += 1", "c_mpc += 1", "res = 3")
            with w.block("else:"):
                w.line("res = 1 if taken else 0")
        with w.block("else:"):
            with w.block("if bt == 2 or bt == 3:"):  # UNCOND/CALL_DIRECT
                with w.block("if known:"):
                    w.line("res = 1")
                with w.block("else:"):
                    w.lines("c_mf += 1", "res = 2")
            with w.block("elif bt == 4:"):  # RETURN
                with w.block("if rasok_plan[j]:"):
                    with w.block("if known:"):
                        w.line("res = 1")
                    with w.block("else:"):
                        w.lines("c_mf += 1", "res = 2")
                with w.block("else:"):
                    w.lines("c_mp += 1", "c_mpr += 1", "res = 3")
            with w.block("else:"):  # INDIRECT / CALL_INDIRECT
                w.line("predicted = ind_plan[j]")
                with w.block("if predicted == 0 and known:"):
                    w.line("predicted = slot.target")
                with w.block("if not known:"):
                    w.lines("c_mp += 1", "c_mpiu += 1", "res = 3")
                with w.block("elif predicted != target:"):
                    w.lines("c_mp += 1", "c_mpi += 1", "res = 3")
                with w.block("else:"):
                    w.line("res = 1")

    def _emit_next_branch(
        self, w: _Writer, room_expr: str, exhausted: Tuple[str, ...] = ("break",)
    ) -> None:
        """Scan-loop head: advance ``j`` to the next branch in reach.

        ``room_expr`` is the number of instructions the enclosing loop
        could still consume (fetch width or region/block span);
        ``exhausted`` is emitted when the trace runs out. A run of
        non-branch instructions is consumed in one step via the plan's
        ``next_br`` offset — exactly what the reference one-at-a-time
        loop consumes: each non-branch advances ``pc`` by 4 and
        ``count`` by 1, capped by the room. ``continue`` re-checks the
        loop condition, so natural-exit ``else`` clauses (B-BTB/MB-BTB
        split bubbles) still fire.
        """
        w.line("j = i_pcgen + count")
        with w.block("if j >= n:"):
            w.lines(*exhausted)
        w.line("gap = next_br[j]")
        with w.block("if gap:"):
            w.line(f"room = {room_expr}")
            with w.block("if gap >= room:"):
                w.lines("pc += room << 2", "count += room", "continue")
            w.lines("pc += gap << 2", "count += gap", "j += gap")
            with w.block("if j >= n:"):
                w.line("continue")
        w.lines("bt = btypes[j]", "count += 1")

    def _emit_slot_search(
        self, w: _Writer, tick: str, on_miss: Optional[Callable[[], None]] = None
    ) -> None:
        """Find this PC's slot in a hit R-BTB/B-BTB entry, touching its
        LRU tick; ``on_miss`` emits the fallback for a hit entry that
        holds no slot for the PC (the R-BTB overflow pool)."""
        w.line("slot = None")
        with w.block("if entry is not None:"):
            w.line("spos = 0")
            with w.block("for s_ in entry.slots:"):
                with w.block("if s_.pc == pc:"):
                    w.lines("slot = s_", "break")
                w.line("spos += 1")
            with w.block("if slot is not None:"):
                w.line(f"entry.ticks[spos] = {tick}")
            if on_miss is not None:
                with w.block("else:"):
                    on_miss()

    def _emit_outcome(self, w: _Writer, slot_level: bool) -> None:
        """Read the branch's trace outcome, count the BTB lookup and
        resolve it (sets ``known``, ``taken``, ``target`` and ``res``).

        ``slot_level``: the entry holds several slots, so it can hit
        while this PC's slot misses — the lookup counts as a miss then.
        """
        w.lines("known = slot is not None", "taken = takens[j] == 1", "target = targets[j]")
        lvl = "lvl"
        if slot_level:
            w.line("nlvl = lvl if known else 0")
            lvl = "nlvl"
        self._emit_note_btb(w, lvl)
        self._emit_resolve(w)

    def _emit_store_lookup(self, w: _Writer, key_expr: str) -> None:
        """Inline TwoLevelStore.lookup -> (lvl, entry).

        L1 hit is inlined (touch included); L1 miss falls through to the
        reference method, whose internal L1 re-probe is a side-effect-free
        dict miss. Single-level stores elide the L2 path entirely.
        """
        p = self.plan
        w.line(f"sk = ({key_expr}) >> {p.index_shift}")
        w.line(f"se = l1_sets[sk & {p.l1_set_mask}].get(sk)")
        with w.block("if se is not None:"):
            w.lines(
                "l1arr._tick = stt = l1arr._tick + 1",
                "se[1] = stt",
                "lvl = 1",
                "entry = se[0]",
            )
        with w.block("else:"):
            if p.has_l2:
                w.line(f"lvl, entry = store_lookup({key_expr})")
            else:
                w.lines("lvl = 0", "entry = None")

    # -- cycle advance -----------------------------------------------------

    def _emit_cycle_advance(self, w: _Writer) -> None:
        """Advance time, skipping provably-idle cycles in one jump.

        A cycle where PC generation did not fire (``acc_cycle != cycle``)
        and fetch took nothing (``lines_used == 0``) changes no simulator
        state except an idempotent LRU touch of the blocked head line, so
        the interpreter's cycle-by-cycle spin through a stall is
        observationally a no-op until the earliest of: PC generation's
        resteer release (``pcgen_ready``), the FTQ head becoming
        consumable, its fetch-gate slot freeing, or its I-cache line
        arriving. All of those times are already known and none can move
        while the machine is idle, so jumping straight to the minimum is
        bit-identical to spinning — including the wedge diagnostic, which
        still fires at exactly ``max_cycles + 1``.
        """
        p = self.plan
        gate = self._fetch_gate("head[1]")
        with w.block("if lines_used or acc_cycle == cycle:"):
            w.line("cycle += 1")
        with w.block("else:"):
            w.line("nxt = max_cycles + 1")
            with w.block(
                f"if i_pcgen < n and pcgen_ready > cycle and not pcgen_stalled "
                f"and len(ftq) < {p.ftq_entries}:"
            ):
                w.line("nxt = pcgen_ready")
            with w.block("if ftq:"):
                w.line("head = ftq[0]")
                w.line("t = head[3]")
                with w.block("if not head[4]:"):
                    w.line("t += 1")
                w.line(f"g = {gate}")
                with w.block("if g > t:"):
                    w.line("t = g")
                w.line("av = line_avail_get(head[0])")
                with w.block("if av is not None and av > t:"):
                    w.line("t = av")
                with w.block("if t < nxt:"):
                    w.line("nxt = t")
            with w.block("if nxt > max_cycles:"):
                w.line("nxt = max_cycles + 1")
            w.line("cycle = nxt if nxt > cycle else cycle + 1")
        with w.block("if cycle > max_cycles:"):
            w.line("raise RuntimeError(")
            w.line("    f\"simulator wedged at cycle {cycle} \"")
            w.line("    f\"(admitted {admitted}/{n}, ftq={len(ftq)})\"")
            w.line(")")

    # -- PC generation ----------------------------------------------------

    def emit_pcgen(self, w: _Writer) -> None:
        p = self.plan
        with w.block(
            f"if i_pcgen < n and not pcgen_stalled and cycle >= pcgen_ready "
            f"and len(ftq) < {p.ftq_entries}:"
        ):
            w.line("acc_cycle = cycle")
            w.lines("count = 0", "blocks = 1", "acc_event = 0", "acc_ei = -1", "acc_bubbles = 0")
            getattr(self, f"_emit_scan_{p.btb_kind}")(w)
            w.line("# -- component: pcgen.ftq_push " + "-" * 20)
            self.emit_access_commit(w)

    def _redirect_bubbles(self, w: _Writer) -> None:
        """Common REDIRECT bubble computation (Fig. 3 penalties)."""
        p = self.plan
        if p.has_l2:
            w.line(f"bubbles = 3 if lvl == 2 else {p.config.l1_taken_bubble}")
        else:
            w.line(f"bubbles = {p.config.l1_taken_bubble}")
        with w.block("if bt == 5 or bt == 6:"):
            w.line("bubbles += 1")

    def _emit_scan_ibtb(self, w: _Writer) -> None:
        cfg = self.plan.config
        w.line("pc = pcs[i_pcgen]")
        with w.block(f"while count < {cfg.width}:"):
            self._emit_next_branch(w, f"{cfg.width} - count")
            self._emit_store_lookup(w, "pc")
            w.line("slot = entry")
            self._emit_outcome(w, slot_level=False)
            with w.block("if taken:"):
                with w.block("if slot is None:"):
                    w.line("ibtb_train(pc, bt, True, target, None)")
                with w.block("else:"):
                    w.line("slot.target = target")
            with w.block("if res == 0:"):
                w.lines("pc += 4", "continue")
            with w.block("if res == 1:"):
                self._redirect_bubbles(w)
                if cfg.skip_taken:
                    w.lines("pc = target", "blocks += 1", "continue")
                else:
                    w.lines("acc_bubbles = bubbles", "break")
            w.lines("acc_event = res", "acc_ei = j", "break")

    def _emit_scan_rbtb(self, w: _Writer) -> None:
        p = self.plan
        cfg = p.config
        rb = cfg.region_bytes
        overflow = self._rb_overflow()
        interleaved = cfg.interleaved
        # A 2L1 scan may continue into the next region; ``done`` tells
        # the outer loop that this region's scan ended the access.
        finish = ("done = True", "break") if interleaved else ("break",)
        w.line("pc = pcs[i_pcgen]")
        w.line("btb._tick = rb_tick = btb._tick + 1")
        if interleaved:
            w.line("done = False")
            outer = w.block("for _rno in range(2):")
            outer.__enter__()
        # pc & -region_bytes == pc & ~(region_bytes - 1)
        w.line(f"region = pc & -{rb}")
        if interleaved:
            with w.block("if _rno:"):
                w.line(f"pk = region >> {p.index_shift}")
                with w.block(f"if pk not in l1_sets[pk & {p.l1_set_mask}]:"):
                    w.line("break")
        self._emit_store_lookup(w, "region")
        w.line(f"region_end = region + {rb}")
        with w.block("while pc < region_end:"):
            self._emit_next_branch(w, "(region_end - pc) >> 2", finish)
            on_miss = None
            if overflow:
                w.line("from_overflow = False")

                def on_miss() -> None:
                    w.line("oe = ovf_set.get(pc)")
                    with w.block("if oe is not None:"):
                        w.lines(
                            "ovf_arr._tick = ovt = ovf_arr._tick + 1",
                            "oe[1] = ovt",
                            "slot = oe[0]",
                            "from_overflow = True",
                        )

            self._emit_slot_search(w, "rb_tick", on_miss)
            self._emit_outcome(w, slot_level=True)
            with w.block("if taken:"):
                with w.block("if slot is not None:"):
                    w.line("slot.target = target")
                with w.block("else:"):
                    w.line("rb_train(region, entry, pc, bt, True, target, None)")
            with w.block("if res == 0:"):
                w.lines("pc += 4", "continue")
            with w.block("if res == 1:"):
                self._redirect_bubbles(w)
                if overflow:
                    with w.block("if from_overflow:"):
                        w.line(f"bubbles += {p.rb_overflow_bubble}")
                w.lines("acc_bubbles = bubbles", *finish)
            w.lines("acc_event = res", "acc_ei = j", *finish)
        if interleaved:
            with w.block("if done:"):
                w.line("break")
            w.line("pc = region_end")
            outer.__exit__(None, None, None)

    def _emit_block_end(self, w: _Writer) -> None:
        """Natural scan exit of a B-BTB/MB-BTB block: charge the split
        bubble when the block's entry was split."""
        split_bubble = self.plan.config.split_bubble
        if split_bubble:
            with w.block("else:"):
                w.line(
                    f"acc_bubbles = {split_bubble} "
                    "if (entry is not None and entry.split) else 0"
                )

    def _emit_scan_bbtb(self, w: _Writer) -> None:
        cfg = self.plan.config
        w.line("pc = pcs[i_pcgen]")
        w.line("block_start = pc")
        self._emit_store_lookup(w, "pc")
        with w.block("if entry is not None:"):
            w.line("end_pc = entry.start + entry.length * 4")
        with w.block("else:"):
            w.line(f"end_pc = pc + {cfg.block_insts * 4}")
        w.line("btb._tick = bb_tick = btb._tick + 1")
        with w.block("while pc < end_pc:"):
            self._emit_next_branch(w, "(end_pc - pc) >> 2")
            self._emit_slot_search(w, "bb_tick")
            self._emit_outcome(w, slot_level=True)
            with w.block("if taken:"):
                with w.block("if slot is not None:"):
                    w.line("slot.target = target")
                with w.block("else:"):
                    w.line("entry = bb_train(entry, block_start, pc, bt, True, target, None)")
            with w.block("if res == 0:"):
                w.lines("pc += 4", "continue")
            with w.block("if res == 1:"):
                self._redirect_bubbles(w)
                w.lines("acc_bubbles = bubbles", "break")
            w.lines("acc_event = res", "acc_ei = j", "break")
        self._emit_block_end(w)

    def _emit_scan_mbbtb(self, w: _Writer) -> None:
        cfg = self.plan.config
        w.line("pc = pcs[i_pcgen]")
        w.line("block_start = pc")
        self._emit_store_lookup(w, "pc")
        w.line("blk = 0")
        with w.block("if entry is not None:"):
            w.lines("bs_, bl_ = entry.blocks[0]", "end_pc = bs_ + bl_ * 4")
        with w.block("else:"):
            w.line(f"end_pc = pc + {cfg.block_insts * 4}")
        with w.block("while pc < end_pc:"):
            self._emit_next_branch(w, "(end_pc - pc) >> 2")
            w.line("slot = None")
            with w.block("if entry is not None:"):
                with w.block("for s_ in entry.slots:"):
                    with w.block("if s_.blk_id == blk and s_.pc == pc:"):
                        w.lines("slot = s_", "break")
            self._emit_outcome(w, slot_level=True)
            with w.block("if taken:"):
                with w.block("if slot is not None:"):
                    with w.block("if slot.btype == 5 or slot.btype == 6:"):
                        w.line("mb_update(entry, slot, target)")
                    with w.block("else:"):
                        w.line("slot.target = target")
                with w.block("else:"):
                    w.line(
                        "entry = mb_train(entry, block_start, blk, pc, bt, True, target, None)"
                    )
            with w.block("else:"):
                with w.block("if slot is not None:"):
                    if cfg.immediate_downgrade:
                        # A follow slot downgrades via the reference method
                        # (truncate + follow clear + the stabl reset).
                        with w.block("if slot.follow:"):
                            w.line(
                                "mb_train(entry, block_start, blk, pc, bt, False, target, slot)"
                            )
                        with w.block("elif slot.btype == 1:"):
                            w.line("slot.stabl_ctr = -1")
                    else:
                        with w.block("if slot.btype == 1:"):
                            w.line("slot.stabl_ctr = -1")
            with w.block("if res == 0:"):
                w.lines("pc += 4", "continue")
            with w.block("if res == 1:"):
                with w.block(
                    "if (slot is not None and slot.follow and entry is not None "
                    "and slot.blk_id + 1 < len(entry.blocks) "
                    "and entry.blocks[slot.blk_id + 1][0] == target):"
                ):
                    w.lines(
                        "blk = slot.blk_id + 1",
                        "pc = target",
                        "bs_, bl_ = entry.blocks[blk]",
                        "end_pc = bs_ + bl_ * 4",
                        "blocks += 1",
                        "continue",
                    )
                self._redirect_bubbles(w)
                w.lines("acc_bubbles = bubbles", "break")
            w.lines("acc_event = res", "acc_ei = j", "break")
        self._emit_block_end(w)

    # -- FTQ push + FDIP prefetch ----------------------------------------

    def _emit_fdip_prefetch(self, w: _Writer, line_var: str) -> None:
        """Inline MemoryHierarchy.ifetch_prefetch (ITLB warm + L1I pf)."""
        w.line(f"pg = {line_var} >> 6")
        w.line("pe = itlb_sets[pg & itlb_mask].get(pg)")
        with w.block("if pe is not None:"):
            w.lines("itlb_arr._tick = ptt = itlb_arr._tick + 1", "pe[1] = ptt")
        with w.block("else:"):
            w.line("itlb_miss(pg, cycle)")
        with w.block(
            f"if {line_var} not in l1i_sets[{line_var} & l1i_mask] "
            f"and {line_var} not in l1i_pending:"
        ):
            w.line(f"l1i_prefetch({line_var}, cycle)")

    def emit_access_commit(self, w: _Writer) -> None:
        """Consume one Access: stats, line segmentation, FTQ pushes,
        FDIP prefetches and the pending-event / bubble bookkeeping.

        The covered indices are segmented into cache lines by jumping
        between the plan's ``run_end`` boundaries instead of comparing
        per-PC line indices."""
        with w.block("if count > 0:"):
            w.lines("c_acc += 1", "c_fpc += count", "c_bpa += blocks")
            w.lines("seg_start = i_pcgen", "end_ = i_pcgen + count")
            with w.block("while True:"):
                w.line("seg_line = line_ix[seg_start]")
                w.line("re_ = seg_start + run_end[seg_start]")
                w.line("nxt = re_ if re_ < end_ else end_")
                w.line("seg_count = nxt - seg_start")
                with w.block("if nxt >= end_:"):
                    w.line("break")
                w.line(
                    "ftq_append([seg_line, seg_start, seg_count, cycle, 0 if ftq else 1])"
                )
                self._emit_fdip_prefetch(w, "seg_line")
                w.line("seg_start = nxt")
            w.line(
                "ftq_append([seg_line, seg_start, seg_count, cycle, 0 if ftq else 1])"
            )
            self._emit_fdip_prefetch(w, "seg_line")
            w.line("i_pcgen += count")
            # PC generation stalls on an event until its branch is
            # admitted, so at most one resteer is ever pending.
            with w.block("if acc_event:"):
                w.lines("pend_j = acc_ei", "pend_kind = acc_event", "pcgen_stalled = True")
            with w.block("else:"):
                w.line("pcgen_ready = cycle + 1 + acc_bubbles")
        with w.block("else:"):
            w.line("i_pcgen = n")

    # -- fetch + backend admit + d-side memory ----------------------------

    def _fetch_gate(self, first: str) -> str:
        """Inline ``backend.fetch_gate(first)``: the dispatch cycle of the
        instruction a frontend queue earlier (OoO), the commit cycle of
        the one a window earlier (ideal). Before that instruction exists
        the index falls in the timeline's tail of -1, which no cycle is
        below, as the reference's ``index < size`` test returns 0."""
        p = self.plan
        if p.ideal_backend:
            return f"K[{first} - {p.bk_window}]"
        return f"D[{first} - {p.bk_fq}]"

    def _emit_ifetch(self, w: _Writer) -> None:
        """Inline MemoryHierarchy.ifetch -> avail for head line hline."""
        w.line("pg = hline >> 6")
        w.line("pe = itlb_sets[pg & itlb_mask].get(pg)")
        with w.block("if pe is not None:"):
            w.lines(
                "itlb_arr._tick = ptt = itlb_arr._tick + 1",
                "pe[1] = ptt",
                "tlb_done = cycle",
            )
        with w.block("else:"):
            w.line("tlb_done = itlb_miss(pg, cycle) - itlb_lat")
        w.line("ce = l1i_sets[hline & l1i_mask].get(hline)")
        with w.block("if ce is not None:"):
            w.lines(
                "l1i_arr._tick = ctt = l1i_arr._tick + 1",
                "ce[1] = ctt",
                "hr = ce[0]",
                "data_done = cycle if hr <= cycle else hr - l1i_lat",
            )
        with w.block("else:"):
            w.line("data_done = l1i_miss(hline, cycle) - l1i_lat")
        w.line("avail = tlb_done if tlb_done > data_done else data_done")
        with w.block("if avail < cycle:"):
            w.line("avail = cycle")

    def _emit_dside(self, w: _Writer, out: Optional[str]) -> None:
        """Inline MemoryHierarchy.load/store of ``a`` at ``issue``; a
        load leaves its data-ready cycle in *out*.

        The DTLB's hit/miss and the stride each access prefetches along
        come from the plan (``dk`` counts the run's loads and stores);
        a DTLB miss still walks the shared L2 TLB. The L1D hit is
        inlined, a miss takes the flat path. The stride column is exact
        until an L1D miss merges with the in-flight fill of an evicted
        line (the line stays absent): ``Cache.access`` returns before
        the prefetcher's hook there, so from that access on the run
        keeps its own table, rebuilt by replaying the earlier accesses.
        """
        w.line("a = maddrs[j2]")
        with w.block("if dtlb_miss[dk]:"):
            if out:
                w.line("tlb_done = l2tlb(a >> 12, issue + dtlb_lat)")
            else:
                w.line("l2tlb(a >> 12, issue + dtlb_lat)")
        if out:
            with w.block("else:"):
                w.line("tlb_done = issue + dtlb_lat")
        w.line("aline = a >> 6")
        w.line("le = l1d_sets[aline & l1d_mask].get(aline)")
        with w.block("if le is not None:"):
            w.lines("l1d_arr._tick = ldt = l1d_arr._tick + 1", "le[1] = ldt")
            if out:
                w.line("hr = le[0]")
                w.line(f"{out} = issue + l1d_lat if hr <= issue else hr")
        with w.block("else:"):
            w.line(f"{out} = l1d_miss(aline, issue)" if out else "l1d_miss(aline, issue)")
            with w.block("if aline not in l1d_sets[aline & l1d_mask]:"):
                w.line("dmerge = dk")
                with w.block("if dlive is None:"):
                    w.line("dlive = stride_table(tr, dstride, dk)")
        with w.block("if dlive is None:"):
            w.line("sd = dstrides[dk]")
        with w.block("elif dmerge == dk:"):
            w.line("sd = 0")
        with w.block("else:"):
            w.line("sd = stride_step(dlive, dstride_n, pcs[j2], a)")
        with w.block("if sd:"):
            w.line("pfa = a")
            with w.block("for _ in dstride_deg:"):
                w.lines("pfa += sd", "pfl = pfa >> 6")
                with w.block(
                    "if pfl not in l1d_sets[pfl & l1d_mask] and pfl not in l1d_pending:"
                ):
                    w.line("l1d_prefetch(pfl, issue)")
        w.line("dk += 1")

    def _emit_sources(self, w: _Writer) -> None:
        """Raise ``ready`` to both sources' ready cycles. ``regs`` sits
        one slot up from the register file, so a source of -1 reads its
        zero slot, which no ``ready`` (at least 1) is below."""
        w.line("r = regs[src1s[j2] + 1]")
        with w.block("if r > ready:"):
            w.line("ready = r")
        w.line("r = regs[src2s[j2] + 1]")
        with w.block("if r > ready:"):
            w.line("ready = r")

    def _emit_admit_ooo(self, w: _Writer) -> None:
        """Inline ``OoOBackend.admit`` on the run's timelines: ``D[j]``
        is instruction j's dispatch cycle and ``K[j]`` its commit cycle,
        so the dispatch-width and frontend-queue rings read ``D`` and the
        commit-width and ROB rings ``K``, one width, queue or ROB back.
        For the first instructions of the run the index falls in the
        tail of -1, which no cycle is below, as the reference's
        ``index >= size`` tests ignore its rings."""
        p = self.plan
        bw, rob = p.bk_width, p.bk_rob
        w.line("dispatch = decode_ready + 1")
        w.line(f"prevd = D[j2 - {bw}] + 1")
        with w.block("if prevd > dispatch:"):
            w.line("dispatch = prevd")
        w.line(f"rob_free = K[j2 - {rob}]")
        with w.block("if rob_free > dispatch:"):
            w.line("dispatch = rob_free")
        w.line("D[j2] = dispatch")
        w.line("ready = dispatch + 1")
        self._emit_sources(w)
        with w.block("if loads_col[j2]:"):
            w.line(f"lslot = nloads % {p.bk_load_ports}")
            w.line("lr = load_ring[lslot] + 1")
            w.line("issue = ready if ready > lr else lr")
            w.line("load_ring[lslot] = issue")
            w.line("nloads += 1")
            self._emit_dside(w, "data_done")
            w.line("complete = tlb_done if tlb_done > data_done else data_done")
        with w.block("elif stores_col[j2]:"):
            w.line(f"sslot = nstores % {p.bk_store_ports}")
            w.line("sr = store_ring[sslot] + 1")
            w.line("issue = ready if ready > sr else sr")
            w.line("store_ring[sslot] = issue")
            w.line("nstores += 1")
            self._emit_dside(w, None)
            w.line("complete = issue + 1")
        if p.bk_branch_latency == p.bk_alu_latency:
            with w.block("else:"):
                w.line(f"complete = ready + {p.bk_alu_latency}")
        else:
            with w.block("elif btypes[j2] != 0:"):
                w.line(f"complete = ready + {p.bk_branch_latency}")
            with w.block("else:"):
                w.line(f"complete = ready + {p.bk_alu_latency}")
        w.line("d = dsts[j2]")
        with w.block("if d >= 0:"):
            w.line("regs[d + 1] = complete")
        w.line("commit = complete if complete >= last_commit else last_commit")
        w.line(f"prevc = K[j2 - {bw}] + 1")
        with w.block("if prevc > commit:"):
            w.line("commit = prevc")
        w.line("K[j2] = commit")
        w.line("last_commit = commit")

    def _emit_admit_ideal(self, w: _Writer) -> None:
        """Inline ``IdealBackend.admit``; ``K[j]`` is instruction j's
        commit cycle (the window's ring, see :meth:`_fetch_gate`)."""
        w.line("ready = decode_ready + 1")
        self._emit_sources(w)
        w.line("complete = ready + 1")
        w.line("d = dsts[j2]")
        with w.block("if d >= 0:"):
            w.line("regs[d + 1] = complete")
        w.line("commit = complete if complete >= last_commit else last_commit")
        w.line("K[j2] = commit")
        w.line("last_commit = commit")

    def emit_fetch(self, w: _Writer) -> None:
        p = self.plan
        w.lines("lines_used = 0", "insts_used = 0", "il_used = 0")
        with w.block(
            f"while lines_used < {p.fetch_lines} and insts_used < {p.fetch_width}:"
        ):
            with w.block("if not ftq:"):
                w.line("break")
            w.line("head = ftq[0]")
            w.line("enq = head[3]")
            with w.block("if head[4]:"):
                with w.block("if enq > cycle:"):
                    w.line("break")
            with w.block("elif enq >= cycle:"):
                w.line("break")
            w.line("hline = head[0]")
            w.line(f"il_bit = 1 << (hline & {p.interleave_mask})")
            with w.block("if il_used & il_bit:"):
                w.line("break")
            w.line("first = head[1]")
            with w.block(f"if {self._fetch_gate('first')} > cycle:"):
                w.line("break")
            w.line("avail = line_avail_get(hline)")
            with w.block("if avail is None:"):
                self._emit_ifetch(w)
                w.line("line_avail[hline] = avail")
                with w.block(f"if len(line_avail) > {p.line_avail_entries}:"):
                    w.line("line_avail_evict(last=False)")
            with w.block("else:"):
                w.line("line_avail_touch(hline)")
            with w.block("if avail > cycle:"):
                w.line("break")
            w.line("hcount = head[2]")
            w.line(f"room = {p.fetch_width} - insts_used")
            w.line("take = hcount if hcount < room else room")
            w.line(f"decode_ready = cycle + {p.decode_depth}")
            with w.block("for j2 in range(first, first + take):"):
                if p.ideal_backend:
                    self._emit_admit_ideal(w)
                else:
                    self._emit_admit_ooo(w)
            # The pending resteer (see emit_access_commit): its branch
            # ends its FTQ entry, so the group that admits it ends with
            # it, and ``complete`` is still the branch's.
            with w.block("if j2 == pend_j:"):
                with w.block("if pend_kind == 2:"):
                    if p.early_resteer:
                        w.line("resteer = decode_ready - 2")
                        with w.block("if resteer < cycle:"):
                            w.line("resteer = cycle")
                    else:
                        w.line("resteer = decode_ready")
                with w.block("else:"):
                    w.line("resteer = complete")
                w.line("resume = resteer + 1")
                with w.block("if resume > pcgen_ready:"):
                    w.line("pcgen_ready = resume")
                w.line("pcgen_stalled = False")
            w.lines(
                "admitted += take",
                "insts_used += take",
                "il_used |= il_bit",
                "lines_used += 1",
            )
            with w.block("if take == hcount:"):
                w.line("ftq_popleft()")
            with w.block("else:"):
                w.lines("head[2] = hcount - take", "head[1] = first + take")
            with w.block("if not warm_done and admitted >= warmup:"):
                w.line("warm_commit = last_commit")
                for local, _name in COUNTERS:
                    w.line(f"w_{local} = c_{local}")
                w.line("warm_done = True")

    # -- finalization ------------------------------------------------------

    def _emit_ring_tail(self, w: _Writer, ring: str, timeline: str, size: int) -> None:
        """Store the last *size* entries of *timeline* in *ring* where
        the reference's ``ring[index % size]`` writes would have left
        them (a run shorter than the ring leaves the rest as it was)."""
        with w.block(f"for jr in range(n - {size} if n > {size} else 0, n):"):
            w.line(f"{ring}[{_ring_index('jr', size)}] = {timeline}[jr]")

    def _emit_finalize(self, w: _Writer) -> None:
        p = self.plan
        # Write the backend's run state back so a post-run inspection
        # sees what the interpreter leaves. The predictor objects are
        # left cold: their evolution lives in the plan.
        w.line("backend._last_commit = last_commit")
        w.line("reg_ready[:] = regs[1:]")
        if p.ideal_backend:
            self._emit_ring_tail(w, "commit_ring", "K", p.bk_window)
        else:
            w.lines(
                "backend._loads = nloads",
                "backend._stores = nstores",
                "backend._count += admitted",
            )
            self._emit_ring_tail(w, "disp_ring", "D", p.bk_width)
            self._emit_ring_tail(w, "fq_ring", "D", p.bk_fq)
            self._emit_ring_tail(w, "cw_ring", "K", p.bk_width)
            self._emit_ring_tail(w, "commit_ring", "K", p.bk_rob)
        w.line("sc = st._counters")
        w.line("measured = {}")
        for local, name in COUNTERS:
            if name == "btb_taken_l2_hits" and not p.has_l2:
                continue
            with w.block(f"if c_{local}:"):
                w.line(f'sc["{name}"] = sc.get("{name}", 0.0) + c_{local}')
                w.line(f'measured["{name}"] = float(c_{local} - w_{local})')
        w.line("structure = {}")
        with w.block("if sample_structure:"):
            w.line('structure["l1_slot_occupancy"] = btb.slot_occupancy(1)')
            w.line('structure["l1_redundancy"] = btb.redundancy_ratio(1)')
            if p.has_l2:
                w.line('structure["l2_slot_occupancy"] = btb.slot_occupancy(2)')
                w.line('structure["l2_redundancy"] = btb.redundancy_ratio(2)')
        # A warmup-only window leaves cyc == 0: clamp as the interpreter does.
        w.line("cyc = last_commit - warm_commit")
        with w.block("if cyc < 1:"):
            w.line("cyc = 1")
        w.line("return SimResult(")
        w.line("    name=tr.name,")
        w.line("    instructions=n - warmup,")
        w.line("    cycles=cyc,")
        w.line("    stats=measured,")
        w.line("    structure=structure,")
        w.line(")")
