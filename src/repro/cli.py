"""Command-line interface: ``repro-sim``.

Subcommands::

    repro-sim characterize [workloads...]      workload statistics table
    repro-sim run CONFIG WORKLOAD              one simulation, full metrics
    repro-sim trace WORKLOAD [CONFIG]          instrumented run (repro.obs):
                                               event trace, interval metrics,
                                               Chrome/Perfetto + CSV export
    repro-sim compare CONFIG [CONFIG...]       whisker table vs ideal I-BTB 16
    repro-sim sweep [CONFIG...] --jobs N       parallel, disk-cached sweep
    repro-sim sweep ... --dist HOST:PORT       drain the sweep onto a
                                               remote worker fleet
                                               (docs/distributed.md)
    repro-sim worker --connect tcp://H:P       dist sweep worker
    repro-sim serve --port N --jobs N          async simulation daemon
                                               (coalescing, admission
                                               control, NDJSON job events
                                               — docs/service.md)
    repro-sim cache stats|prune                persistent-cache maintenance
    repro-sim corpus ingest|ls|info|verify|gc  manage the trace corpus store
    repro-sim workloads                        synthetic + corpus workload names
    repro-sim list                             workloads and config syntax

Workload arguments accept synthetic suite names (``web_frontend``, ...),
trace files (``.csv`` / ``.csv.gz`` / ``.csv.xz``, where a file makes
sense), and ingested corpus entries as ``corpus:<name>[@<slice>]``
(e.g. ``corpus:srv01@skip=1000000,measure=5000000`` — docs/corpus.md).

Configurations are compact spec strings::

    ibtb:16            16-banked Instruction BTB
    ibtb:16:skp        ... the Fig.-4 "Skp" idealization
    rbtb:3             Region BTB, 3 branch slots
    rbtb:2:2l1         ... even/odd interleaved L1
    rbtb:4:128b        ... 128-byte regions
    bbtb:1:split       Block BTB, 1 slot, entry splitting
    bbtb:2:32          Block BTB, 2 slots, 32-instruction blocks
    mbbtb:2:allbr      MultiBlock BTB, 2 slots, AllBr pull policy
    mbbtb:3:calldir:64 ... 64-instruction blocks
    hetero:1:2         Heterogeneous: B-BTB(1) L1 over R-BTB(2) L2

A trailing ``@ideal`` switches to the huge single-level BTB (Fig. 4).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

from repro.analysis.report import format_table, whisker_table
from repro.core.config import (
    IDEAL_IBTB16,
    MachineConfig,
    bbtb,
    hetero_btb,
    ibtb,
    ibtb_skp,
    mbbtb,
    rbtb,
)
from repro.core.config import build_simulator
from repro.core.passes.kernel import KernelConfigError, kernel_mode
from repro.core.exec import (
    RetryPolicy,
    SweepError,
    SweepJournal,
    SweepPoint,
    configure_disk_cache,
    env_cache_root,
    point_key,
    resolve_jobs,
    sweep_key,
)
from repro.core.runner import (
    clear_cache,
    compare_to_baseline,
    run_one,
    sweep_compare,
    sweep_results_payload,
)
from repro.corpus import (
    DEFAULT_SHARD_INSTS,
    CorpusError,
    CorpusStore,
    configure_corpus,
    is_corpus_workload,
    load_corpus_trace,
)
from repro.trace.external import TraceFormatError, load_trace_csv
from repro.trace.workloads import SERVER_SUITE, get_trace

#: Suffixes `run`/`trace` treat as external CSV trace files.
TRACE_FILE_SUFFIXES = (".csv", ".csv.gz", ".csv.xz")


class ConfigSpecError(ValueError):
    """Raised for malformed configuration spec strings."""


def parse_config(spec: str) -> MachineConfig:
    """Parse a compact config spec string into a :class:`MachineConfig`."""
    spec = spec.strip().lower()
    ideal = spec.endswith("@ideal")
    if ideal:
        spec = spec[: -len("@ideal")]
    parts = [p for p in spec.split(":") if p]
    if not parts:
        raise ConfigSpecError("empty config spec")
    kind, args = parts[0], parts[1:]
    kw = {"ideal_btb": True} if ideal else {}
    try:
        if kind == "ibtb":
            width = int(args[0]) if args else 16
            if len(args) > 1 and args[1] == "skp":
                return ibtb_skp(**kw)
            return ibtb(width, **kw)
        if kind == "rbtb":
            slots = int(args[0]) if args else 2
            region = 64
            interleaved = False
            for extra in args[1:]:
                if extra == "2l1":
                    interleaved = True
                elif extra.endswith("b"):
                    region = int(extra[:-1])
                else:
                    raise ConfigSpecError(f"unknown rbtb option {extra!r}")
            return rbtb(slots, region_bytes=region, interleaved=interleaved, **kw)
        if kind == "bbtb":
            slots = int(args[0]) if args else 1
            splitting = False
            block = 16
            for extra in args[1:]:
                if extra == "split":
                    splitting = True
                else:
                    block = int(extra)
            return bbtb(slots, splitting=splitting, block_insts=block, **kw)
        if kind == "mbbtb":
            slots = int(args[0]) if args else 2
            policy = args[1] if len(args) > 1 else "allbr"
            block = int(args[2]) if len(args) > 2 else 16
            return mbbtb(slots, policy, block_insts=block, **kw)
        if kind == "hetero":
            l1s = int(args[0]) if args else 1
            l2s = int(args[1]) if len(args) > 1 else 2
            return hetero_btb(l1s, l2s, **kw)
    except (ValueError, KeyError, IndexError) as exc:
        if isinstance(exc, ConfigSpecError):
            raise
        raise ConfigSpecError(f"malformed config spec {spec!r}: {exc}") from exc
    raise ConfigSpecError(f"unknown organization {kind!r} in {spec!r}")


def _cmd_characterize(args) -> int:
    names = args.workloads or SERVER_SUITE
    rows = []
    for name in names:
        tr = get_trace(name, args.length)
        st = tr.stats()
        n, br = st.get("instructions"), st.get("branches")
        rows.append(
            (
                name,
                f"{tr.mean_basic_block_size():.2f}",
                f"{br / n * 100:.1f}%",
                f"{st.get('taken_branches') / br * 100:.1f}%",
                f"{st.get('code_footprint_bytes') / 1024:.1f}KB",
            )
        )
    print(format_table(("workload", "dynBB", "br%", "taken%", "footprint"), rows))
    return 0


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    if args.workload.endswith(TRACE_FILE_SUFFIXES) or is_corpus_workload(
        args.workload
    ):
        # External trace file (repro.trace.external) or ingested corpus
        # entry (repro.corpus). Both take the same default warmup, so a
        # trace simulates bit-identically whichever way it is fed in.
        if is_corpus_workload(args.workload):
            trace = load_corpus_trace(args.workload, args.length)
        else:
            trace = load_trace_csv(args.workload)
        sim = build_simulator(config, trace)
        result = sim.run(warmup=min(len(trace) // 4, args.length // 4))
    else:
        result = run_one(config, args.workload, length=args.length, warmup=args.length // 4)
    print(f"{config.label} on {args.workload}:")
    print(f"  IPC                {result.ipc:8.3f}")
    print(f"  branch MPKI        {result.branch_mpki:8.2f}")
    print(f"  misfetch PKI       {result.misfetch_pki:8.2f}")
    print(f"  L1 BTB hit rate    {result.l1_btb_hit_rate * 100:7.1f}%")
    print(f"  L1+L2 BTB hit rate {result.l2_btb_hit_rate * 100:7.1f}%")
    print(f"  fetch PCs/access   {result.fetch_pcs_per_access:8.2f}")
    return 0


def _cmd_trace(args) -> int:
    """Instrumented run: event trace + interval metrics + exports."""
    from repro.analysis.report import timeline_summary
    from repro.obs import Observer
    from repro.obs.export import (
        write_chrome_trace,
        write_intervals_csv,
        write_observation_json,
    )

    config = parse_config(args.config)
    observer = Observer(
        events=args.events,
        interval=args.intervals,
        sample=args.sample,
        capacity=args.capacity,
        meta={"config": config.label, "workload": args.workload},
    )
    if args.workload.endswith(TRACE_FILE_SUFFIXES):
        trace = load_trace_csv(args.workload)
    elif is_corpus_workload(args.workload):
        trace = load_corpus_trace(args.workload, args.length)
    else:
        trace = get_trace(args.workload, args.length)
    sim = build_simulator(config, trace, probe=observer)
    result = sim.run(warmup=args.warmup)
    obs = observer.observation()
    print(timeline_summary(obs))
    print(
        f"(SimResult: IPC {result.ipc:.3f}, "
        f"branch MPKI {result.branch_mpki:.2f}, "
        f"misfetch PKI {result.misfetch_pki:.2f}, "
        f"kernel {sim.kernel_engine()})"
    )
    if args.chrome:
        write_chrome_trace(obs, args.chrome)
        print(f"wrote {args.chrome} (load in chrome://tracing or Perfetto)")
    if args.csv:
        write_intervals_csv(obs, args.csv)
        print(f"wrote {args.csv}")
    if args.json:
        write_observation_json(obs, args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_compare(args) -> int:
    configs = [parse_config(s) for s in args.configs]
    names = args.workloads or SERVER_SUITE
    compared = compare_to_baseline(
        configs, IDEAL_IBTB16, names, length=args.length, warmup=args.length // 4
    )
    boxes = [(cc.config.label, cc.box) for cc in compared]
    print(whisker_table(boxes, "IPC relative to ideal I-BTB 16"))
    return 0


#: Default sweep configurations: one representative per organization.
SWEEP_DEFAULT_SPECS = ["ibtb:16", "rbtb:3", "bbtb:1:split", "mbbtb:2:allbr"]


#: Resilience counters surfaced per bench phase and in the summary line.
_RESILIENCE_COLUMNS = (
    "retries",
    "failed",
    "timeouts",
    "worker_crashes",
    "resumed",
    "deferred",
)


#: Kept as an alias — the payload builder moved to the runner so the
#: service daemon's sweep jobs emit byte-identical documents.
_sweep_results_payload = sweep_results_payload


def _cmd_sweep(args) -> int:
    """Parallel, disk-cached, fault-tolerant figure sweep."""
    import json
    import time

    engine = kernel_mode()  # validate REPRO_KERNEL before any work
    args.jobs = resolve_jobs(args.jobs)  # 0 = auto-detect CPU count
    if args.dist and args.bench_out:
        print(
            "error: --bench-out times the local backends; use "
            "scripts/dist_bench.py for fleet scaling", file=sys.stderr,
        )
        return 2
    configs = [parse_config(s) for s in (args.configs or SWEEP_DEFAULT_SPECS)]
    names = args.workloads or SERVER_SUITE
    warmup = args.warmup if args.warmup is not None else args.length // 4
    cache = None
    if not args.no_disk_cache:
        cache = configure_disk_cache(True, args.cache_dir or env_cache_root())
    elif args.bench_out:
        print("error: --bench-out needs the disk cache", file=sys.stderr)
        return 2
    elif args.resume:
        print("error: --resume needs the disk cache", file=sys.stderr)
        return 2

    policy = RetryPolicy(max_retries=args.max_retries, timeout=args.timeout)

    # Checkpoint journal, keyed by the sweep's point grid so --resume
    # finds the journal of the interrupted run. Skipped by the bench
    # harness, whose phases purge the caches the journal points into.
    journal = None
    if cache is not None and not args.bench_out:
        grid = [
            point_key(SweepPoint(config, name, args.length, warmup, 7))
            for config in [IDEAL_IBTB16, *configs]
            for name in names
        ]
        journal = SweepJournal(
            cache.version_dir / "journal" / f"{sweep_key(grid)}.jsonl"
        )
        if not args.resume:
            journal.discard()

    if args.dist:
        # Start (and announce) the coordinator before the sweep blocks
        # on it, so workers know where to connect even with --dist :0.
        from repro.dist import get_coordinator

        coordinator = get_coordinator(args.dist)
        print(
            f"dist: coordinator listening on tcp://{coordinator.address} "
            f"({coordinator.workers_live()} worker(s) connected)",
            flush=True,
        )

    def sweep(jobs: int):
        return sweep_compare(
            configs, IDEAL_IBTB16, names, length=args.length, warmup=warmup,
            jobs=jobs, policy=policy, journal=journal, resume=args.resume,
            strict=args.strict, batch=args.batch, recycle=args.recycle,
            dispatch=args.dist,
        )

    def timed(jobs: int, purge_disk: bool):
        """One timed sweep phase from an empty in-process memo."""
        clear_cache(disk=purge_disk)
        if purge_disk:
            # Fully cold: re-build programs and re-synthesize traces too,
            # so serial and parallel phases pay identical costs.
            from repro.trace.workloads import get_program, get_trace

            get_program.cache_clear()
            get_trace.cache_clear()
        before = cache.snapshot() if cache is not None else {}
        t0 = time.perf_counter()
        compared, rep, _ = sweep(jobs)
        seconds = time.perf_counter() - t0
        after = cache.snapshot() if cache is not None else {}
        delta = {k: after[k] - before.get(k, 0) for k in after}
        resilience = {k: rep.counters.get(k, 0) for k in _RESILIENCE_COLUMNS}
        return compared, {"seconds": round(seconds, 4), **delta, **resilience}

    report = None
    skipped = []
    try:
        if args.bench_out:
            _, serial = timed(jobs=1, purge_disk=True)
            _, par = timed(jobs=args.jobs, purge_disk=True)
            compared, warm = timed(jobs=1, purge_disk=False)
            bench = {
                "schema": 2,
                "configs": [c.label for c in configs],
                "baseline": IDEAL_IBTB16.label,
                "workloads": list(names),
                "length": args.length,
                "warmup": warmup,
                "jobs": args.jobs,
                "max_retries": args.max_retries,
                "timeout": args.timeout,
                "kernel_engine": engine,
                "phases": {
                    "serial_cold": serial,
                    "parallel_cold": par,
                    "warm_cache": warm,
                },
                "speedup_parallel_vs_serial": round(
                    serial["seconds"] / max(par["seconds"], 1e-9), 2
                ),
                "speedup_warm_vs_cold": round(
                    serial["seconds"] / max(warm["seconds"], 1e-9), 2
                ),
            }
            with open(args.bench_out, "w") as fh:
                json.dump(bench, fh, indent=2)
                fh.write("\n")
            print(f"wrote {args.bench_out}")
            print(
                f"serial {serial['seconds']:.2f}s | parallel(x{args.jobs}) "
                f"{par['seconds']:.2f}s | warm {warm['seconds']:.2f}s "
                f"({bench['speedup_warm_vs_cold']:.1f}x) | kernel {engine}"
            )
        else:
            compared, report, skipped = sweep(args.jobs)
    finally:
        if journal is not None:
            journal.close()

    if report is not None and report.failures:
        for outcome in report.failures:
            err = outcome.error
            print(
                f"FAILED {outcome.point.config.label} on "
                f"{outcome.point.workload}: {err.kind} after "
                f"{err.attempts} attempts: {err.message}",
                file=sys.stderr,
            )
        if skipped:
            print(
                f"dropped {len(skipped)} workload(s) from the comparison: "
                + ", ".join(skipped),
                file=sys.stderr,
            )
    if args.chrome and report is not None:
        from repro.obs.export import write_sweep_chrome_trace

        write_sweep_chrome_trace(report, args.chrome)
        print(f"wrote {args.chrome} (load in chrome://tracing or Perfetto)")
    if args.out:
        payload = _sweep_results_payload(compared, IDEAL_IBTB16.label)
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    boxes = [(cc.config.label, cc.box) for cc in compared]
    print(whisker_table(boxes, "Sweep: IPC relative to ideal I-BTB 16"))
    if report is not None and any(
        report.counters.get(k, 0) for k in _RESILIENCE_COLUMNS
    ):
        print(
            "resilience: "
            + ", ".join(
                f"{report.counters.get(k, 0)} {k}" for k in _RESILIENCE_COLUMNS
            )
        )
    if cache is not None:
        c = cache.snapshot()
        print(
            f"disk cache: {c['result_hits']} result hits / "
            f"{c['result_misses']} misses, {c['trace_hits']} trace hits, "
            f"{c.get('plan_hits', 0)} plan hits ({cache.root})"
        )
    print(f"kernel engine: {engine}")
    return 1 if (report is not None and report.failures) else 0


def _cmd_worker(args) -> int:
    """Dist worker supervisor (``repro-sim worker``)."""
    from repro.dist.worker import run_worker

    kernel_mode()  # validate REPRO_KERNEL before leasing work
    return run_worker(
        args.connect,
        jobs=args.jobs,
        lease_max=args.lease,
        worker_name=args.name,
        cache_root=args.cache_dir or env_cache_root(),
        cache_enabled=not args.no_disk_cache,
        corpus_root=args.corpus_dir,
        retry_window=args.retry_window,
    )


def _cmd_serve(args) -> int:
    """Run the sweep-as-a-service daemon (repro.service)."""
    import asyncio

    from repro.service import Service, ServiceConfig

    kernel_mode()  # validate REPRO_KERNEL before accepting traffic
    cache_root = args.cache_dir or env_cache_root()
    if not args.no_disk_cache:
        # The daemon is long-lived: default to the sharded layout so the
        # store scales past what a one-shot sweep ever writes.
        configure_disk_cache(True, cache_root, shard=args.shard)
    state_dir = args.state_dir
    if state_dir is None and not args.no_disk_cache:
        # Durable by default when we already own a persistent directory:
        # the job journal lives beside the result cache it references.
        state_dir = str(Path(cache_root) / "service")
    elif state_dir is not None and state_dir.lower() == "none":
        state_dir = None
    service = Service(
        ServiceConfig(
            host=args.host,
            port=args.port,
            jobs=args.jobs if args.jobs is not None else resolve_jobs(None),
            queue_limit=args.queue_limit,
            rate=args.rate,
            burst=args.burst,
            max_retries=args.max_retries,
            timeout=args.timeout,
            batch=args.batch,
            recycle=args.recycle,
            cache_max_bytes=int(args.cache_max_mb * (1 << 20)),
            drain_timeout=args.drain_timeout,
            state_dir=state_dir,
            job_ttl=args.job_ttl,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            dist_listen=args.dist_listen,
        )
    )
    return asyncio.run(service.run())


def _cache_for(args):
    from repro.core.exec import DiskCache

    return DiskCache(args.cache_dir or env_cache_root())


def _cmd_cache_stats(args) -> int:
    """Per-tier entry counts and sizes (sweeps stale write locks too)."""
    import json

    from repro.core.exec import TIERS

    cache = _cache_for(args)
    stats = cache.tier_stats()
    swept = cache.counters.get("locks_swept", 0)
    if args.json:
        print(
            json.dumps(
                {"root": str(cache.root), "tiers": stats, "locks_swept": swept},
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    rows = [
        (tier, f"{stats[tier]['entries']:,}", _fmt_bytes(stats[tier]["bytes"]))
        for tier in [*TIERS, "total"]
    ]
    print(f"cache root: {cache.root}")
    print(format_table(("tier", "entries", "size"), rows))
    if swept:
        print(f"(swept {swept} stale lock/temp file(s))")
    return 0


def _cmd_cache_prune(args) -> int:
    """LRU-evict entries until the store fits ``--max-mb``."""
    cache = _cache_for(args)
    summary = cache.prune(
        int(args.max_mb * (1 << 20)), tiers=args.tiers or None
    )
    print(
        f"evicted {summary['evicted']} entr(y/ies) "
        f"({_fmt_bytes(summary['evicted_bytes'])}); "
        f"kept {summary['kept']} ({_fmt_bytes(summary['kept_bytes'])}) "
        f"under {args.max_mb} MB at {cache.root}"
    )
    return 0


def _fmt_bytes(n: int) -> str:
    if n >= 1 << 20:
        return f"{n / (1 << 20):.1f}MB"
    if n >= 1 << 10:
        return f"{n / (1 << 10):.1f}KB"
    return f"{n}B"


def _cmd_export(args) -> int:
    import os

    from repro.trace.external import save_trace_csv

    os.makedirs(args.outdir, exist_ok=True)
    names = args.workloads or SERVER_SUITE
    for name in names:
        trace = get_trace(name, args.length)
        path = os.path.join(args.outdir, f"{name}.csv")
        save_trace_csv(trace, path)
        print(f"wrote {path} ({len(trace)} instructions)")
    return 0


def _cmd_workloads(args) -> int:
    """List every workload name a command will accept: the synthetic
    suite plus ingested corpus entries (``corpus:<name>``)."""
    store = _corpus_store(args)
    rows = []
    for name in SERVER_SUITE:
        rows.append((name, "synthetic", "(per --length)"))
    for manifest in store.manifests():
        rows.append(
            (
                f"corpus:{manifest.name}",
                "corpus",
                f"{manifest.instructions:,}",
            )
        )
    print(format_table(("workload", "kind", "instructions"), rows))
    if not store.names():
        print(
            "\n(no corpus entries; ingest traces with "
            "`repro-sim corpus ingest FILE...`)"
        )
    return 0


def _corpus_store(args) -> CorpusStore:
    """Store named by ``--corpus-dir`` (exported so any simulation this
    process spawns resolves ``corpus:`` names against the same root)."""
    root = getattr(args, "corpus_dir", None)
    return configure_corpus(root) if root else CorpusStore()


def _cmd_corpus_ingest(args) -> int:
    store = _corpus_store(args)
    if args.name and len(args.sources) > 1:
        print("error: --name requires a single source file", file=sys.stderr)
        return 2
    for source in args.sources:
        res = store.ingest(
            source,
            name=args.name,
            fmt=args.format,
            shard_insts=args.shard_insts,
        )
        m = res.manifest
        reused = " (shards reused)" if res.reused_shards else ""
        print(
            f"ingested corpus:{m.name}: {res.instructions:,} instructions, "
            f"{res.shards} shard(s), content {m.content_hash[:16]}... "
            f"in {res.seconds:.2f}s{reused}"
        )
    return 0


def _cmd_corpus_ls(args) -> int:
    store = _corpus_store(args)
    manifests = store.manifests()
    if not manifests:
        print(f"corpus at {store.root} is empty")
        return 0
    rows = [
        (
            m.name,
            f"{m.instructions:,}",
            str(len(m.shards)),
            m.content_hash[:16],
            str(m.provenance.get("format", "?")),
        )
        for m in manifests
    ]
    print(format_table(("name", "instructions", "shards", "content", "format"), rows))
    return 0


def _cmd_corpus_info(args) -> int:
    import json

    store = _corpus_store(args)
    manifest = store.get(args.name)
    print(json.dumps(manifest.to_json(), indent=2, sort_keys=True))
    return 0


def _cmd_corpus_verify(args) -> int:
    store = _corpus_store(args)
    names = args.names or None
    problems = store.verify(names)
    checked = sorted(names) if names else store.names()
    if problems:
        for problem in problems:
            print(f"PROBLEM: {problem}", file=sys.stderr)
        print(
            f"{len(problems)} problem(s) in {len(checked)} entr(y/ies)",
            file=sys.stderr,
        )
        return 1
    print(f"{len(checked)} entr(y/ies) verified, no problems")
    return 0


def _cmd_corpus_gc(args) -> int:
    from repro.core.exec import DiskCache

    store = _corpus_store(args)
    removed = store.gc(dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    if removed:
        for name in removed:
            print(f"{verb} {store.shards_root / name}")
    # Prune batch plans whose backing corpus entry is gone: the plans
    # tier stores each entry's source content hash in its ``__meta__``
    # ("synth" plans never reference the corpus and are kept).
    live = {store.get(name).content_hash for name in store.names()}
    cache = DiskCache(args.cache_dir or env_cache_root())
    stale = [
        path
        for path, meta in cache.iter_plans()
        if meta.get("source", "synth") != "synth"
        and meta.get("source") not in live
    ]
    for path in stale:
        print(f"{verb} {path}")
        if not args.dry_run:
            path.unlink(missing_ok=True)
    if not removed and not stale:
        print("nothing to collect")
    return 0


def _cmd_list(_args) -> int:
    print("workloads:")
    for name in SERVER_SUITE:
        print(f"  {name}")
    print("\nconfig spec syntax (see `repro-sim --help`):")
    print("  ibtb:16 | ibtb:16:skp | rbtb:3[:2l1][:128b] | bbtb:1:split[:32]")
    print("  mbbtb:2:allbr[:64] | hetero:1:2 | any spec + '@ideal'")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Trace-driven BTB-organization simulator (MICRO 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="workload statistics")
    p.add_argument("workloads", nargs="*", help="workload names (default: all)")
    p.add_argument("--length", type=int, default=160_000)
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("run", help="simulate one config on one workload")
    p.add_argument("config", help="config spec, e.g. mbbtb:2:allbr")
    p.add_argument("workload", help="workload name, or a .csv trace file")
    p.add_argument("--length", type=int, default=160_000)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "trace", help="instrumented run with event/interval export (repro.obs)"
    )
    p.add_argument("workload", help="workload name, or a .csv trace file")
    p.add_argument(
        "config", nargs="?", default="mbbtb:2:allbr",
        help="config spec (default: mbbtb:2:allbr)",
    )
    p.add_argument("--length", type=int, default=50_000)
    p.add_argument(
        "--warmup", type=int, default=0,
        help="instructions before measurement (default 0: intervals "
        "reconcile exactly with the SimResult totals)",
    )
    p.add_argument(
        "--events", action=argparse.BooleanOptionalAction, default=True,
        help="capture typed pipeline events (default: on)",
    )
    p.add_argument(
        "--intervals", type=int, default=1000, metavar="N",
        help="metrics snapshot every N cycles; 0 disables (default 1000)",
    )
    p.add_argument(
        "--sample", type=int, default=1, metavar="K",
        help="buffer every K-th event per kind (counts stay exact)",
    )
    p.add_argument(
        "--capacity", type=int, default=65536,
        help="event ring-buffer capacity (default 65536)",
    )
    p.add_argument("--chrome", default=None, metavar="PATH",
                   help="write Chrome trace_event JSON (Perfetto-loadable)")
    p.add_argument("--csv", default=None, metavar="PATH",
                   help="write interval metrics CSV")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the full observation dump as JSON")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("compare", help="compare configs vs ideal I-BTB 16")
    p.add_argument("configs", nargs="+", help="config specs")
    p.add_argument("--workloads", nargs="*", default=None)
    p.add_argument("--length", type=int, default=160_000)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "sweep", help="parallel, disk-cached sweep vs ideal I-BTB 16"
    )
    p.add_argument("configs", nargs="*", help=f"config specs (default: {' '.join(SWEEP_DEFAULT_SPECS)})")
    p.add_argument("--workloads", nargs="*", default=None)
    p.add_argument("--length", type=int, default=160_000)
    p.add_argument("--warmup", type=int, default=None, help="default: length/4")
    p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (0 = auto-detect the CPU count; "
        "default: $REPRO_JOBS, else 1)",
    )
    p.add_argument(
        "--batch", type=int, default=None, metavar="N",
        help="points per worker dispatch (default: load-balanced); "
        "larger batches amortize shared batch plans",
    )
    p.add_argument(
        "--recycle", type=int, default=0, metavar="N",
        help="retire each worker process after N dispatched points and "
        "respawn on demand (default 0: never)",
    )
    p.add_argument(
        "--no-disk-cache", action="store_true",
        help="skip the persistent cache (~/.cache/repro-btb)",
    )
    p.add_argument("--cache-dir", default=None, help="persistent cache root")
    p.add_argument(
        "--bench-out", default=None, metavar="PATH",
        help="run the serial/parallel/warm timing harness and write JSON",
    )
    p.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="re-dispatch a failing point up to N times with exponential "
        "backoff before recording it as failed (default 2)",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="soft per-point wall-clock budget; a hung worker is killed "
        "and its point retried (default: no deadline)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="skip points checkpointed in the sweep's journal by an "
        "earlier (e.g. SIGKILLed) run; needs the disk cache",
    )
    p.add_argument(
        "--strict", action=argparse.BooleanOptionalAction, default=True,
        help="with --no-strict, a sweep with persistent failures prints "
        "them, drops the affected workloads and exits 1 instead of "
        "aborting",
    )
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="write per-point results as deterministic JSON (the chaos "
        "smoke compares this across faulty and clean runs)",
    )
    p.add_argument(
        "--chrome", default=None, metavar="PATH",
        help="write the sweep scheduler timeline (chunks, retries, "
        "crashes) as Chrome trace_event JSON",
    )
    p.add_argument(
        "--dist", default=None, metavar="HOST:PORT",
        help="drain the sweep onto remote workers instead of local "
        "processes: host a work-stealing coordinator at this address "
        "and wait for 'repro-sim worker' processes to connect "
        "(docs/distributed.md); --jobs is ignored",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "worker", help="dist sweep worker: connect to a coordinator, "
        "lease points, stream results back (docs/distributed.md)"
    )
    p.add_argument(
        "--connect", required=True, metavar="URL",
        help="coordinator address (tcp://host:port)",
    )
    p.add_argument(
        "--jobs", type=int, default=None,
        help="session processes (default: $REPRO_JOBS on *this* host, "
        "else this host's CPU count — the coordinator's job count is "
        "never consulted)",
    )
    p.add_argument(
        "--lease", type=int, default=0, metavar="N",
        help="max points per lease (default 0: coordinator decides)",
    )
    p.add_argument(
        "--name", default=None,
        help="worker name for fleet logs (default: <hostname>-<pid>)",
    )
    p.add_argument(
        "--no-disk-cache", action="store_true",
        help="skip the persistent cache (~/.cache/repro-btb)",
    )
    p.add_argument("--cache-dir", default=None, help="persistent cache root")
    p.add_argument(
        "--corpus-dir", default=None, metavar="DIR",
        help="local corpus store for fetched trace shards "
        "(default: $REPRO_CORPUS_DIR, else the standard corpus root)",
    )
    p.add_argument(
        "--retry-window", type=float, default=30.0, metavar="SECONDS",
        help="keep retrying a lost coordinator connection this long "
        "before exiting cleanly (default 30)",
    )
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser(
        "serve", help="async simulation daemon (coalescing + admission "
        "control over the warm worker pool; docs/service.md)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=0,
        help="listen port (default 0: pick an ephemeral port and print it)",
    )
    p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (0 = auto-detect the CPU count; "
        "default: $REPRO_JOBS, else 1)",
    )
    p.add_argument(
        "--queue-limit", type=int, default=16, metavar="N",
        help="max concurrently active jobs before submissions get 429 "
        "(default 16)",
    )
    p.add_argument(
        "--rate", type=float, default=0.0, metavar="R",
        help="per-client token-bucket refill, submissions/second "
        "(default 0: unlimited)",
    )
    p.add_argument(
        "--burst", type=float, default=20.0, metavar="B",
        help="per-client token-bucket capacity (default 20)",
    )
    p.add_argument("--max-retries", type=int, default=2, metavar="N",
                   help="per-point retry budget (default 2)")
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="soft per-point wall-clock budget (default: no deadline)",
    )
    p.add_argument(
        "--batch", type=int, default=None, metavar="N",
        help="points per worker dispatch (default: load-balanced)",
    )
    p.add_argument(
        "--recycle", type=int, default=0, metavar="N",
        help="retire each worker after N points (default 0: never)",
    )
    p.add_argument(
        "--no-disk-cache", action="store_true",
        help="skip the persistent cache (~/.cache/repro-btb)",
    )
    p.add_argument("--cache-dir", default=None, help="persistent cache root")
    p.add_argument(
        "--shard", action=argparse.BooleanOptionalAction, default=True,
        help="fan cache entries into 256 subdirectories per tier "
        "(default on for the daemon; flat caches are still read)",
    )
    p.add_argument(
        "--cache-max-mb", type=float, default=0.0, metavar="MB",
        help="result-store byte budget, LRU-enforced between batches "
        "(default 0: unbounded)",
    )
    p.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="grace for in-flight work on SIGTERM before aborting it "
        "(default 30)",
    )
    p.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="write-ahead job store root; accepted jobs are journaled "
        "here and replayed after a crash (default: <cache-root>/service "
        "when the disk cache is on; 'none' disables)",
    )
    p.add_argument(
        "--job-ttl", type=float, default=0.0, metavar="SECONDS",
        help="evict finished jobs (memory + journal) after this long "
        "(default 0: keep until the history limit trims them)",
    )
    p.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive crash/timeout outcomes for one point before "
        "its circuit breaker opens (default 3)",
    )
    p.add_argument(
        "--breaker-cooldown", type=float, default=60.0, metavar="SECONDS",
        help="how long an open breaker fails fast before admitting one "
        "half-open trial (default 60)",
    )
    p.add_argument(
        "--dist-listen", default=None, metavar="HOST:PORT",
        help="host a dist coordinator at this address and drain sweep "
        "jobs onto connected 'repro-sim worker' fleets instead of the "
        "local pool; fleet counters appear under /v1/metrics "
        "(docs/distributed.md)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "cache", help="inspect and bound the persistent cache"
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)

    c = cache_sub.add_parser(
        "stats", help="per-tier entry counts and sizes "
        "(sweeps stale write locks)"
    )
    c.add_argument("--cache-dir", default=None, help="persistent cache root")
    c.add_argument("--json", action="store_true", help="machine-readable output")
    c.set_defaults(func=_cmd_cache_stats)

    c = cache_sub.add_parser(
        "prune", help="LRU-evict entries until the store fits a byte budget"
    )
    c.add_argument("--max-mb", type=float, required=True, metavar="MB",
                   help="target store size in megabytes")
    c.add_argument(
        "--tiers", nargs="*", default=None,
        help="tiers to measure/evict (default: all of "
        "results traces plans obs)",
    )
    c.add_argument("--cache-dir", default=None, help="persistent cache root")
    c.set_defaults(func=_cmd_cache_prune)

    p = sub.add_parser("export", help="export workload traces to CSV")
    p.add_argument("outdir")
    p.add_argument("workloads", nargs="*", help="workload names (default: all)")
    p.add_argument("--length", type=int, default=160_000)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser(
        "workloads", help="list synthetic and corpus workload names"
    )
    p.add_argument("--corpus-dir", default=None, help="corpus store root")
    p.set_defaults(func=_cmd_workloads)

    p = sub.add_parser("corpus", help="manage the trace corpus store")
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)

    c = corpus_sub.add_parser(
        "ingest", help="ingest trace files into the corpus store"
    )
    c.add_argument("sources", nargs="+", metavar="FILE",
                   help="trace files (.csv/.champsim/.cvp, optionally .gz/.xz)")
    c.add_argument("--name", default=None,
                   help="entry name (single source only; default: file stem)")
    c.add_argument(
        "--format", default=None, choices=["csv", "champsim", "cvp1"],
        help="source format (default: detect from the file suffix)",
    )
    c.add_argument(
        "--shard-insts", type=int, default=DEFAULT_SHARD_INSTS, metavar="N",
        help=f"instructions per columnar shard (default {DEFAULT_SHARD_INSTS})",
    )
    c.add_argument("--corpus-dir", default=None, help="corpus store root")
    c.set_defaults(func=_cmd_corpus_ingest)

    c = corpus_sub.add_parser("ls", help="list ingested corpus entries")
    c.add_argument("--corpus-dir", default=None, help="corpus store root")
    c.set_defaults(func=_cmd_corpus_ls)

    c = corpus_sub.add_parser("info", help="print one entry's manifest")
    c.add_argument("name", help="corpus entry name")
    c.add_argument("--corpus-dir", default=None, help="corpus store root")
    c.set_defaults(func=_cmd_corpus_info)

    c = corpus_sub.add_parser(
        "verify", help="integrity-check corpus entries (exit 1 on problems)"
    )
    c.add_argument("names", nargs="*", help="entry names (default: all)")
    c.add_argument("--corpus-dir", default=None, help="corpus store root")
    c.set_defaults(func=_cmd_corpus_verify)

    c = corpus_sub.add_parser(
        "gc", help="remove shard directories no manifest references "
        "(and cached batch plans of vanished corpus content)"
    )
    c.add_argument("--dry-run", action="store_true",
                   help="report what would be removed without removing it")
    c.add_argument("--corpus-dir", default=None, help="corpus store root")
    c.add_argument("--cache-dir", default=None, help="persistent cache root")
    c.set_defaults(func=_cmd_corpus_gc)

    p = sub.add_parser("list", help="list workloads and config syntax")
    p.set_defaults(func=_cmd_list)
    return parser


def main(argv: List[str] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigSpecError, TraceFormatError, CorpusError, KernelConfigError) as exc:
        # Malformed config/trace/corpus/engine input: one line on stderr,
        # no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SweepError as exc:
        # Strict sweep with persistent failures: completed work is
        # cached/journaled; summarize and exit non-zero.
        first_line = str(exc).splitlines()[0]
        print(f"error: {first_line} (rerun with --resume to continue, "
              "or --no-strict for partial results)", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into e.g. `head`; exit quietly like other CLIs.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
