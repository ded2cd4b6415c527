#!/usr/bin/env python3
"""Verdicts between two result sets of ``bench/run.py``.

    python3 bench/compare.py PARENT.json CHANGE.json
    python3 bench/compare.py BOTH.json          # its sets A and B

For every (workload, end-to-end metric) it reports each side's median and
quartiles, how many paired runs (same round, same seed) the change won,
and one verdict, judged against the bounds in ``BENCHMARK.json``:

* ``unresolved`` — the two sides do not hold runs of the same rounds and
  seeds (a run crashed, or the campaigns differ), or the run-to-run
  spread exceeds the bound, unless every change run beats every parent
  run. The spread is that of the paired ratios change/parent (quartile
  distance over median): the two runs of a pair share a round and a
  seed, so the host's slow phases, which last minutes, cancel in the
  ratio and do not count as noise;
* ``worse`` — the change's median is worse by more than the bound;
* ``improved`` — the change wins at least nine tenths of at least ten
  pairs and the medians differ by more than the parent's quartile
  distance;
* ``unchanged`` — otherwise.

Exits 1 when any verdict is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9

#: A run's place in a campaign: ``(round, seed)``.
Key = Tuple[int, int]


def values(doc: dict,
           set_name: str) -> Dict[str, Dict[str, Dict[Key, float]]]:
    """``{workload: {metric: {(round, seed): value}}}`` of one set's
    untraced runs that produced a result."""
    out: Dict[str, Dict[str, Dict[Key, float]]] = {}
    for run in doc["runs"]:
        if run["set"] != set_name or run["trace"] != 0 or not run["result"]:
            continue
        metrics = out.setdefault(run["workload"], {})
        for name, metric in run["result"]["metrics"].items():
            metrics.setdefault(name, {})[run["round"], run["seed"]] = (
                metric["value"])
    return out


def summaries(doc: dict) -> dict:
    """Median, quartiles and spread per set, workload and metric."""
    return {
        set_name: {
            workload: {name: summarize(list(vals.values()))
                       for name, vals in metrics.items()}
            for workload, metrics in values(doc, set_name).items()
        }
        for set_name in doc["settings"]["sets"]
    }


def verdict(parent: Dict[Key, float], change: Dict[Key, float], better: str,
            bound: float) -> dict:
    """Judge one (workload, metric): runs are paired by ``(round, seed)``."""
    sign = 1.0 if better == "higher" else -1.0
    p = summarize(list(parent.values()))
    c = summarize(list(change.values()))
    gain = sign * (c["median"] - p["median"]) / abs(p["median"])
    pairs = [(parent[k], change[k]) for k in sorted(set(parent) & set(change))]
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    noise = (summarize([b / a for a, b in pairs])["spread"] if pairs
             else float("inf"))
    if better == "higher":
        all_better = min(change.values()) > max(parent.values())
    else:
        all_better = max(change.values()) < min(parent.values())
    if set(parent) != set(change):
        kind = "unresolved"
    elif noise > bound and not all_better:
        kind = "unresolved"
    elif gain < -bound:
        kind = "worse"
    elif (gain > 0 and len(pairs) >= MIN_PAIRS
          and wins >= WIN_SHARE * len(pairs)
          and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]):
        kind = "improved"
    else:
        kind = "unchanged"
    return {"verdict": kind, "gain": gain, "wins": wins, "pairs": len(pairs),
            "noise": noise, "parent": p, "change": c}


def report(parent: dict, change: dict, bench: dict) -> int:
    """Print one row per workload and the detail per metric; returns the
    exit code (1 on any worse or unresolved verdict)."""
    metrics = bench["end_to_end"]
    short = {"unchanged": "=", "improved": "+", "worse": "WORSE",
             "unresolved": "?"}
    header = f"{'workload':20s}" + "".join(f"{m['name']:>13s}" for m in metrics)
    print(header)
    bad, details = 0, []
    for workload in sorted(set(parent) | set(change)):
        row = f"{workload:20s}"
        for m in metrics:
            a = parent.get(workload, {}).get(m["name"])
            b = change.get(workload, {}).get(m["name"])
            if not a or not b:
                bad += 1
                row += f"{'? no runs':>13s}"
                details.append(f"  {workload} {m['name']}: unresolved; "
                               "one side has no runs")
                continue
            v = verdict(a, b, m["better"], m["bound"])
            bad += v["verdict"] in ("worse", "unresolved")
            cell = f"{short[v['verdict']]} {v['gain']:+.1%}"
            row += f"{cell:>13s}"
            p, c = v["parent"], v["change"]
            unpaired = len(set(a) ^ set(b))
            details.append(
                f"  {workload} {m['name']}: {v['verdict']}; parent "
                f"{p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}], change "
                f"{c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}], "
                f"change won {v['wins']}/{v['pairs']}, paired spread "
                f"{v['noise']:.1%}, bound {m['bound']:.0%}"
                + (f", {unpaired} runs without a partner" if unpaired else ""))
        print(row)
    print("(= unchanged, + improved, ? unresolved; signed change of the "
          "median, positive = better)")
    print("\n".join(details))
    return 1 if bad else 0


def print_summaries(summary: dict, bench: dict) -> None:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for set_name, workloads in summary.items():
        print(f"set {set_name}: median [q1, q3] spread")
        for workload, metrics in workloads.items():
            for name, s in metrics.items():
                print(f"  {workload:18s} {name:12s} {s['median']:12.6g} "
                      f"{units.get(name, ''):8s} [{s['q1']:.6g}, "
                      f"{s['q3']:.6g}] {s['spread']:.1%} (n={s['n']})")


def _load(path: str):
    return json.loads(Path(path).read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_doc = _load(args.parent)
    if args.change is None:
        if parent_doc["settings"]["sets"] != ["A", "B"]:
            parser.error("one document must hold two sets (run.py --sets 2)")
        parent, change = values(parent_doc, "A"), values(parent_doc, "B")
    else:
        change_doc = _load(args.change)
        schedule = [[(r["round"], r["seed"]) for r in doc["rounds"]]
                    for doc in (parent_doc, change_doc)]
        if schedule[0] != schedule[1]:
            parser.error("the two documents ran different rounds or seeds")
        parent = values(parent_doc, "A")
        change = values(change_doc, "A")
    return report(parent, change, bench)


if __name__ == "__main__":
    sys.exit(main())
