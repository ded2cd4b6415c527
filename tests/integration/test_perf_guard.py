"""The generalized CI perf guard (``scripts/perf_guard.py``).

It must guard every committed ``BENCH_*.json`` that carries
engine-relative speedups, skip the ones that only report raw timings,
and stay backward compatible with the original single-file invocation
CI uses.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "perf_guard", REPO / "scripts" / "perf_guard.py"
)
perf_guard = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_guard)


def _bench(geomean=None, families=None, **extra):
    doc = dict(extra)
    if geomean is not None:
        doc["geomean_speedup"] = geomean
    if families is not None:
        doc["families"] = {
            name: {"speedup": speedup} for name, speedup in families.items()
        }
    return doc


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


# -- extraction --------------------------------------------------------------


def test_extract_geomean_and_families():
    got = perf_guard.extract(_bench(1.5, {"a": 1.2, "b": 1.8}))
    assert got == (1.5, {"a": 1.2, "b": 1.8})


def test_extract_computes_geomean_from_families_when_absent():
    geomean, families = perf_guard.extract(_bench(families={"a": 2.0, "b": 8.0}))
    assert geomean == pytest.approx(4.0)
    assert families == {"a": 2.0, "b": 8.0}


def test_extract_unguardable_documents():
    assert perf_guard.extract({"phases": {"cold": {"seconds": 3.2}}}) is None
    assert perf_guard.extract({}) is None


def test_committed_baselines_classified_as_expected():
    guardable = set()
    for path in sorted((REPO / "benchmarks" / "results").glob("BENCH_*.json")):
        if perf_guard.extract(json.loads(path.read_text())) is not None:
            guardable.add(path.name)
    assert guardable == {"BENCH_dist.json"}
    assert "BENCH_sweep.json" not in guardable
    assert "BENCH_corpus.json" not in guardable


# -- single-file mode (the original CI invocation) ---------------------------


def test_single_file_within_tolerance(tmp_path, capsys):
    base = _write(tmp_path / "base.json", _bench(2.0, {"f": 2.0}))
    fresh = _write(tmp_path / "fresh.json", _bench(1.9, {"f": 1.9}))
    assert perf_guard.main([fresh, base]) == 0
    assert "ok:" in capsys.readouterr().out


def test_single_file_regression_fails(tmp_path, capsys):
    base = _write(tmp_path / "base.json", _bench(2.0))
    fresh = _write(tmp_path / "fresh.json", _bench(1.5))
    assert perf_guard.main([fresh, base]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_single_file_missing_family_fails(tmp_path):
    base = _write(tmp_path / "base.json", _bench(2.0, {"f": 2.0, "g": 2.0}))
    fresh = _write(tmp_path / "fresh.json", _bench(2.0, {"f": 2.0}))
    assert perf_guard.main([fresh, base]) == 1


def test_single_file_tolerance_flag(tmp_path):
    base = _write(tmp_path / "base.json", _bench(2.0))
    fresh = _write(tmp_path / "fresh.json", _bench(1.5))
    assert perf_guard.main([fresh, base, "--tolerance", "0.30"]) == 0


# -- --all mode --------------------------------------------------------------


def _dirs(tmp_path):
    fresh_dir = tmp_path / "fresh"
    base_dir = tmp_path / "base"
    fresh_dir.mkdir()
    base_dir.mkdir()
    return fresh_dir, base_dir


def test_all_mode_guards_every_guardable_baseline(tmp_path, capsys):
    fresh_dir, base_dir = _dirs(tmp_path)
    _write(base_dir / "BENCH_batch.json", _bench(2.0, {"f": 2.0}))
    _write(base_dir / "BENCH_kernel.json", _bench(3.0))
    _write(base_dir / "BENCH_sweep.json", {"phases": {}})  # unguardable
    _write(fresh_dir / "BENCH_batch.json", _bench(1.95, {"f": 1.95}))
    _write(fresh_dir / "BENCH_kernel.json", _bench(2.9))
    assert perf_guard.main(["--all", str(fresh_dir), str(base_dir)]) == 0
    out = capsys.readouterr().out
    assert "skip BENCH_sweep.json" in out
    assert "ok: 2 benchmark(s)" in out


def test_all_mode_fails_on_any_regression(tmp_path):
    fresh_dir, base_dir = _dirs(tmp_path)
    _write(base_dir / "BENCH_batch.json", _bench(2.0))
    _write(base_dir / "BENCH_kernel.json", _bench(3.0))
    _write(fresh_dir / "BENCH_batch.json", _bench(1.95))
    _write(fresh_dir / "BENCH_kernel.json", _bench(1.0))  # regressed
    assert perf_guard.main(["--all", str(fresh_dir), str(base_dir)]) == 1


def test_all_mode_fails_when_fresh_measurement_missing(tmp_path, capsys):
    fresh_dir, base_dir = _dirs(tmp_path)
    _write(base_dir / "BENCH_batch.json", _bench(2.0))
    assert perf_guard.main(["--all", str(fresh_dir), str(base_dir)]) == 1
    assert "no fresh measurement" in capsys.readouterr().out


def test_all_mode_fails_when_nothing_guardable(tmp_path, capsys):
    fresh_dir, base_dir = _dirs(tmp_path)
    _write(base_dir / "BENCH_sweep.json", {"phases": {}})
    assert perf_guard.main(["--all", str(fresh_dir), str(base_dir)]) == 1
    assert "nothing guarded" in capsys.readouterr().out


def test_default_baseline_resolves_by_name():
    # The committed baseline vs itself is trivially within tolerance —
    # exactly what CI's single-file invocation relies on.
    fresh = str(REPO / "benchmarks" / "results" / "BENCH_dist.json")
    assert perf_guard.main([fresh]) == 0
