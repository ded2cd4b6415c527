"""Self-tests of the benchmark: ``python -m pytest bench -q`` (about a
minute; every workload runs once at ``--smoke`` scale)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import harness  # noqa: E402
import hostspeed  # noqa: E402
from stats import percentile, samples_beyond  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(section):
    return [entry["name"] for entry in BENCHMARK[section]]


def _bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def _last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_campaign(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = _bench("--rounds", "1", "--seconds", "0.2", "--smoke",
                  "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())


def test_workloads_match_benchmark_json():
    assert _names("workloads") == list(harness.WORKLOADS)


def test_result_document_names_match_benchmark_json(smoke_campaign):
    runs = smoke_campaign["runs"]
    assert [run["workload"] for run in runs] == _names("workloads")
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for run in runs:
        result = run["result"]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= harness.MIN_COLD_SWEEPS * (
            harness.G20_POINTS)
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    summary = smoke_campaign["summary"]["A"]
    assert sorted(summary) == sorted(_names("workloads"))
    assert all(sorted(m) == sorted(units) for m in summary.values())
    assert smoke_campaign["correct"]
    assert set(smoke_campaign["env"]) >= {"cpu_count", "python", "numpy",
                                          "git_sha", "git_dirty", "platform"}
    assert {"slowdown_before", "slowdown_after", "flagged",
            "steal_ticks"} <= set(smoke_campaign["rounds"][0])


def test_traced_run_reports_every_per_layer_metric():
    proc = _bench("--workload", "sweep_warm", "--seconds", "0.2", "--smoke",
                  "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc)
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.synthesized"] == len(harness.TRACES)
    assert metrics["kernel.compiles"] == 1 + len(harness.CONFIG_SPECS)
    assert metrics["cache.result_hits"] > 0
    assert abs(metrics["replay.unaccounted_frac"]) < 0.5


def test_wrong_reference_fails_the_run():
    proc = _bench("--workload", "sweep_warm", "--seconds", "0.2", "--smoke",
                  "--tamper-reference")
    assert proc.returncode == 1
    result = _last_json(proc)
    assert result["correct"] is False and result["failed"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = _bench("--workload", "sweep_warm", "--seconds", "1", cwd=tmp_path,
                  script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_host_probe_restores_the_cpu_affinity():
    allowed = os.sched_getaffinity(0)
    assert hostspeed.slowdown() > 0
    meter = hostspeed.Meter()
    assert meter.close() > 0
    assert os.sched_getaffinity(0) == allowed


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert samples_beyond(100, 90) == 10
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    assert percentile([7.0], 50) == 7.0
    with pytest.raises(ValueError):
        percentile(values[:99], 90)
    with pytest.raises(ValueError):
        percentile(values, 99)
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(10_000, 99.9) == 10
    assert percentile(list(range(1, 10_001)), 99.9) == 9990


def _rounds(values):
    """Runs keyed like a campaign's: ``(round, seed)``."""
    return {(r, 100 + r): v for r, v in enumerate(values)}


def test_compare_verdicts():
    parent = [100.0 + i for i in range(10)]  # spread ~5%

    def judge(change, better="lower", bound=0.1, base=parent):
        return compare.verdict(_rounds(base), _rounds(change), better,
                               bound)["verdict"]

    assert judge(list(parent)) == "unchanged"
    assert judge([v * 0.7 for v in parent]) == "improved"
    assert judge([v * 0.7 for v in parent], better="higher") == "worse"
    assert judge([v * 1.3 for v in parent]) == "worse"
    assert judge([v * 1.05 for v in parent]) == "unchanged"
    # Better in every pair, but by less than the parent's own spread.
    assert judge([v - 1.0 for v in parent]) == "unchanged"
    noisy = [60.0, 140.0] * 5
    assert judge(noisy) == "unresolved"
    # A slow host phase moves both runs of a pair: wide spreads, but the
    # paired ratios agree, so the verdict resolves.
    drifting = [100.0, 150.0] * 5
    assert judge([v * 1.02 for v in drifting], base=drifting) == "unchanged"
    assert judge([v * 1.3 for v in drifting], base=drifting) == "worse"
    # Wide spread, yet every change run beats every parent run.
    assert judge([40.0, 80.0] * 5) == "improved"
    # Fewer than ten pairs never resolve to a gain.
    assert judge([v * 0.7 for v in parent[:5]], base=parent[:5]) == (
        "unchanged")


def test_compare_pairs_runs_by_round_and_seed():
    drifting = _rounds([100.0, 150.0] * 5)
    change = {k: v * 1.02 for k, v in drifting.items()}
    # A crashed run drops out of one side: the rest still pair by round,
    # not by position, but the verdict cannot be trusted.
    del change[(3, 103)]
    v = compare.verdict(drifting, change, "lower", 0.1)
    assert v["pairs"] == 9 and v["noise"] < 0.01
    assert v["verdict"] == "unresolved"
    # The same rounds on other seeds are not pairs at all.
    other = {(r, seed + 1): v for (r, seed), v in drifting.items()}
    assert compare.verdict(drifting, other, "lower", 0.1)["verdict"] == (
        "unresolved")
