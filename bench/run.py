#!/usr/bin/env python3
"""The repository's benchmark: four workloads over one BTB sweep grid.

One run (what ``BENCHMARK.json`` names as the command)::

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

prints every metric by name and unit, checks the results, and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. It exits 1 when a result is wrong.

A campaign (no ``--workload``)::

    python3 bench/run.py [--rounds R] [--sets 1|2] [--traced] [--seed N]

runs every workload once per round and set, each run in its own process,
with the host's speed probed around every round, and writes one result
document under ``bench/results/`` (``compare.py`` reads it). See
bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from hostspeed import slowdown  # noqa: E402

#: A round over which the host's slowdown moved by more than this share
#: is flagged.
DRIFT_FLAG = 0.10


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "platform": platform.platform(),
    }


def environment() -> dict:
    """Machine and code identity recorded with every result document."""
    env = {**host(), "git_sha": None, "git_dirty": None}
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args],
                                  capture_output=True, text=True).stdout
        env["git_sha"] = git("rev-parse", "HEAD").strip() or None
        env["git_dirty"] = bool(git("status", "--porcelain").strip())
    return env


def host_slowdown() -> float:
    """The host's slowdown over about a fifth of a second: the median of
    25 probes of every CPU."""
    return statistics.median(slowdown() for _ in range(25))


def steal_ticks():
    """Hypervisor steal time from ``/proc/stat`` (None off Linux)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


# -- one run ------------------------------------------------------------------


def run_one(args) -> int:
    import harness

    bench = load_benchmark()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}
    ctx = harness.Context(args.workload, args.seed, args.seconds,
                          traced=bool(args.trace), smoke=args.smoke,
                          tamper=args.tamper_reference)
    env = host()
    print(f"{args.workload}: seed {args.seed}, {ctx.length} instructions "
          f"per point, work sized for {args.seconds:g} s "
          f"({env['cpu_count']} CPUs, Python {env['python']}, "
          f"numpy {env['numpy']})", flush=True)
    s, end_to_end, layers = harness.run(ctx)
    metrics = layers if args.trace else end_to_end
    if set(metrics) != set(units):
        raise harness.BenchError(
            f"measured {sorted(set(metrics) ^ set(units))} do not match "
            f"BENCHMARK.json {section}")
    for name in units:
        print(f"  {name:28s} {metrics[name]:14.6g} {units[name]}")
    print(f"  operations: {s.attempted} attempted, {s.failed} failed, "
          f"{s.mismatched} wrong; {len(s.op_ms)} latency samples")
    for note in s.notes:
        print(f"  {note}")
    digests = sorted(s.digests)
    print(f"results-digest: {digests[0] if len(digests) == 1 else '-'}")
    correct = s.failed == 0 and s.mismatched == 0
    print(json.dumps({
        "correct": correct,
        "attempted": s.attempted,
        "failed": s.failed + s.mismatched,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }), flush=True)
    return 0 if correct else 1


# -- campaign -----------------------------------------------------------------


def spawn_run(workload: str, seed: int, args, trace: int) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        argv.append("--smoke")
    t0 = perf_counter()
    record = {"workload": workload, "seed": seed, "trace": trace,
              "exit": None, "digest": None, "result": None}
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=600)
    except subprocess.TimeoutExpired:
        record.update(wall_s=perf_counter() - t0, error="timed out")
        return record
    record.update(exit=proc.returncode, wall_s=perf_counter() - t0)
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("results-digest: ") and line[16:] != "-":
            record["digest"] = line[16:]
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["error"] = proc.stderr.strip()[-2000:]
    return record


def campaign(args) -> int:
    import compare

    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    sets = ["A", "B"][: args.sets]
    out = Path(args.out or BENCH / "results" /
               time.strftime("run-%Y%m%dT%H%M%S.json", time.gmtime()))
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": 2,
        "env": environment(),
        "settings": {"rounds": args.rounds, "sets": sets,
                     "seconds": args.seconds, "seed": args.seed,
                     "traced": args.traced, "smoke": args.smoke},
        "rounds": [],
        "runs": [],
    }
    traces = (0, 1) if args.traced else (0,)
    for r in range(args.rounds):
        seed = args.seed + r
        before, steal0 = host_slowdown(), steal_ticks()
        for w in workloads:
            # Alternate which set goes first, so neither owns a host phase.
            for set_name in sets if r % 2 == 0 else sets[::-1]:
                for trace in traces:
                    record = spawn_run(w, seed, args, trace)
                    record.update(set=set_name, round=r)
                    doc["runs"].append(record)
                    result = record["result"] or {}
                    print(f"round {r} set {set_name} {w} trace {trace}: "
                          f"exit {record['exit']}, correct "
                          f"{result.get('correct')}, "
                          f"{record['wall_s']:.1f} s", flush=True)
        after, steal1 = host_slowdown(), steal_ticks()
        drift = after / before - 1.0
        doc["rounds"].append({
            "round": r, "seed": seed,
            "slowdown_before": before, "slowdown_after": after,
            "drift": drift, "flagged": abs(drift) > DRIFT_FLAG,
            "steal_ticks": (steal1 - steal0) if steal0 is not None else None,
        })
        out.write_text(json.dumps(doc, indent=1) + "\n")

    problems = []
    for record in doc["runs"]:
        result = record["result"]
        if record["exit"] != 0 or not result or not result["correct"]:
            problems.append(f"{record['workload']} seed {record['seed']} "
                            f"set {record['set']}: exit {record['exit']}")
    # Every sweep workload must reproduce the serial results bit for bit.
    by_seed = {}
    for record in doc["runs"]:
        if record["workload"].startswith("sweep_") and record["digest"]:
            by_seed.setdefault(record["seed"], set()).add(record["digest"])
    for seed, digests in sorted(by_seed.items()):
        if len(digests) > 1:
            problems.append(f"seed {seed}: sweep workloads disagree")
    doc["summary"] = compare.summaries(doc)
    doc["correct"] = not problems
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    compare.print_summaries(doc["summary"], bench)
    if len(sets) == 2:
        compare.report(compare.values(doc, "A"), compare.values(doc, "B"),
                       bench)
    print(f"wrote {out}")
    return 0 if doc["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload",
                        help="run one workload and print its result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=load_benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--tamper-reference", action="store_true",
                        help="corrupt the reference results (self-test: "
                        "the run must then fail)")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--traced", action="store_true",
                        help="campaign: add a --trace 1 run per workload")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload is None:
        return campaign(args)
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    try:
        return run_one(args)
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
