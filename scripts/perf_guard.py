#!/usr/bin/env python
"""Fail CI when a measured engine speedup regresses vs its baseline.

Two invocation forms::

    python scripts/perf_guard.py FRESH.json [BASELINE.json] [--tolerance F]
    python scripts/perf_guard.py --all FRESH_DIR [BASELINE_DIR] [--tolerance F]

The single-file form compares one freshly measured ``BENCH_*.json``
against its committed counterpart. The ``--all`` form pairs every
guardable ``BENCH_*.json`` in the baseline directory (default:
``benchmarks/results/``) with the file of the same name in
``FRESH_DIR`` and checks them all in one invocation.

A benchmark document is *guardable* when it carries a
``geomean_speedup`` (optionally with per-family ``families`` speedups);
when it only has families, the geomean is computed from them
(``BENCH_dist.json`` is the one committed guardable baseline).
Documents with neither
(e.g. ``BENCH_sweep.json``, ``BENCH_corpus.json``, which report raw
phase timings) are skipped with a note — wall-clock seconds are not
stable across runner hardware, but a speedup *ratio* measured within
one process is.

The guard fails (exit 1) when any fresh geomean falls more than
``--tolerance`` (default 0.15, i.e. 15%) below its baseline, or when a
baseline family is missing from the fresh measurement.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

BASELINE_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
DEFAULT_BASELINE = BASELINE_DIR / "BENCH_dist.json"


def extract(doc: dict):
    """``(geomean_speedup, families)`` of a benchmark document, or
    ``None`` when it carries no engine-relative speedup to guard."""
    families = {
        name: float(family["speedup"])
        for name, family in doc.get("families", {}).items()
        if isinstance(family, dict) and "speedup" in family
    }
    geomean = doc.get("geomean_speedup")
    if geomean is None and families:
        geomean = math.exp(
            sum(math.log(s) for s in families.values()) / len(families)
        )
    if geomean is None:
        return None
    return float(geomean), families


def check_pair(
    fresh_path: Path, baseline_path: Path, tolerance: float
) -> bool:
    """Guard one fresh/baseline pair; ``True`` when within tolerance."""
    fresh_doc = json.loads(fresh_path.read_text())
    baseline_doc = json.loads(baseline_path.read_text())
    baseline = extract(baseline_doc)
    if baseline is None:
        print(f"skip {baseline_path.name}: no speedup keys to guard")
        return True
    fresh = extract(fresh_doc)
    if fresh is None:
        print(f"FAIL {fresh_path.name}: fresh measurement has no speedup keys")
        return False
    want, base_families = baseline
    got, fresh_families = fresh
    ok = True
    for name, base_speedup in base_families.items():
        fresh_speedup = fresh_families.get(name)
        if fresh_speedup is None:
            print(
                f"FAIL {fresh_path.name}: family {name!r} missing from "
                f"fresh measurement"
            )
            ok = False
            continue
        print(
            f"{baseline_path.name} {name}: baseline {base_speedup:.2f}x, "
            f"fresh {fresh_speedup:.2f}x"
        )
    floor = want * (1.0 - tolerance)
    print(
        f"{baseline_path.name} geomean: baseline {want:.3f}x, "
        f"fresh {got:.3f}x, floor {floor:.3f}x (tolerance {tolerance:.0%})"
    )
    if got < floor:
        print(
            f"FAIL {fresh_path.name}: geomean speedup {got:.3f}x regressed "
            f"more than {tolerance:.0%} below the baseline {want:.3f}x"
        )
        ok = False
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "fresh",
        help="freshly measured BENCH_*.json (or, with --all, a directory "
        "of fresh measurements)",
    )
    parser.add_argument(
        "baseline",
        nargs="?",
        default=None,
        help="committed baseline file (default: the file of the same name "
        "under benchmarks/results/) or, with --all, the baseline directory",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="treat FRESH as a directory and guard every guardable "
        "BENCH_*.json committed in the baseline directory",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional regression of the geomean (default 0.15)",
    )
    args = parser.parse_args(argv)

    if args.all:
        fresh_dir = Path(args.fresh)
        baseline_dir = Path(args.baseline) if args.baseline else BASELINE_DIR
        ok = True
        checked = 0
        for baseline_path in sorted(baseline_dir.glob("BENCH_*.json")):
            if extract(json.loads(baseline_path.read_text())) is None:
                print(f"skip {baseline_path.name}: no speedup keys to guard")
                continue
            fresh_path = fresh_dir / baseline_path.name
            if not fresh_path.is_file():
                print(
                    f"FAIL: no fresh measurement {fresh_path} for committed "
                    f"baseline {baseline_path.name}"
                )
                ok = False
                continue
            ok = check_pair(fresh_path, baseline_path, args.tolerance) and ok
            checked += 1
        if not checked and ok:
            print("FAIL: nothing guarded (no guardable baselines found)")
            return 1
        if ok:
            print(f"ok: {checked} benchmark(s) within tolerance")
        return 0 if ok else 1

    fresh_path = Path(args.fresh)
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
    else:
        named = BASELINE_DIR / fresh_path.name
        baseline_path = named if named.is_file() else DEFAULT_BASELINE
    if not check_pair(fresh_path, baseline_path, args.tolerance):
        return 1
    print("ok: speedup within tolerance of the committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
