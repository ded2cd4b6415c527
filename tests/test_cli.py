"""Unit tests for the repro-sim CLI."""

import pytest

from repro.cli import ConfigSpecError, main, parse_config
from repro.core.config import MachineConfig


# -- config spec parsing ---------------------------------------------------------

def test_parse_ibtb():
    cfg = parse_config("ibtb:16")
    assert cfg.btb_kind == "ibtb" and cfg.width == 16


def test_parse_ibtb_skp():
    cfg = parse_config("ibtb:16:skp")
    assert cfg.skip_taken


def test_parse_rbtb_options():
    cfg = parse_config("rbtb:3:2l1")
    assert cfg.btb_kind == "rbtb" and cfg.slots == 3 and cfg.interleaved
    cfg = parse_config("rbtb:4:128b")
    assert cfg.region_bytes == 128


def test_parse_bbtb_split_and_block():
    cfg = parse_config("bbtb:1:split:32")
    assert cfg.splitting and cfg.block_insts == 32 and cfg.slots == 1


def test_parse_mbbtb():
    cfg = parse_config("mbbtb:3:calldir:64")
    assert cfg.btb_kind == "mbbtb"
    assert cfg.slots == 3 and cfg.pull_policy == "calldir" and cfg.block_insts == 64


def test_parse_hetero():
    cfg = parse_config("hetero:1:4")
    assert cfg.btb_kind == "hetero" and cfg.slots == 1 and cfg.l2_slots == 4


def test_parse_ideal_suffix():
    cfg = parse_config("ibtb:16@ideal")
    assert cfg.ideal_btb


def test_parse_case_insensitive():
    assert parse_config("MBBTB:2:ALLBR").pull_policy == "allbr"


def test_parse_errors():
    with pytest.raises(ConfigSpecError):
        parse_config("")
    with pytest.raises(ConfigSpecError):
        parse_config("xyz:1")
    with pytest.raises(ConfigSpecError):
        parse_config("rbtb:2:bogus")
    with pytest.raises(ConfigSpecError):
        parse_config("mbbtb:2:nopolicy")


def test_parse_config_shares_one_instance_per_normalized_spec():
    assert parse_config("RBTB:3 ") is parse_config("rbtb:3")


def test_bad_spec_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(ConfigSpecError):
            parse_config("rbtb:3:bogus")


# -- commands ----------------------------------------------------------------------

def test_cmd_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "web_frontend" in out
    assert "mbbtb" in out


def test_cmd_characterize(capsys):
    assert main(["characterize", "db_oltp", "--length", "4000"]) == 0
    out = capsys.readouterr().out
    assert "db_oltp" in out and "dynBB" in out


def test_cmd_run(capsys):
    assert main(["run", "bbtb:1:split", "db_oltp", "--length", "6000"]) == 0
    out = capsys.readouterr().out
    assert "IPC" in out and "B-BTB 1BS Splt" in out


def test_cmd_compare(capsys):
    code = main(
        ["compare", "ibtb:16", "rbtb:2", "--workloads", "db_oltp",
         "--length", "6000"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "R-BTB 2BS" in out and "gmean" in out


def test_cmd_run_bad_spec_exits_2(capsys):
    assert main(["run", "bogus:1", "db_oltp"]) == 2
    assert "error" in capsys.readouterr().err


def test_cmd_run_unknown_workload_exits_2(capsys):
    assert main(["run", "ibtb:16", "nosuchload", "--length", "4000"]) == 2


def test_cmd_run_external_trace(tmp_path, capsys):
    from repro.trace.external import save_trace_csv
    from repro.trace.workloads import get_trace

    path = str(tmp_path / "ext.csv")
    save_trace_csv(get_trace("kv_store", 4000), path)
    assert main(["run", "ibtb:16", path]) == 0
    assert "IPC" in capsys.readouterr().out


def test_cmd_trace_exports_all_formats(tmp_path, capsys):
    import csv
    import json

    chrome = tmp_path / "trace.json"
    iv_csv = tmp_path / "intervals.csv"
    dump = tmp_path / "obs.json"
    code = main(
        [
            "trace", "db_oltp", "mbbtb:2:allbr", "--length", "6000",
            "--intervals", "500",
            "--chrome", str(chrome), "--csv", str(iv_csv), "--json", str(dump),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "timeline: db_oltp" in out
    assert "mispredict" in out
    # Chrome document parses and is non-empty.
    doc = json.loads(chrome.read_text())
    assert doc["traceEvents"]
    assert doc["otherData"]["event_counts"]
    # Interval CSV has rows; instruction deltas cover the whole run.
    with open(iv_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sum(float(r["instructions"]) for r in rows) == 6000
    # Full dump round-trips.
    payload = json.loads(dump.read_text())
    assert payload["schema"] == 1 and payload["instructions"] == 6000


def test_cmd_trace_default_config_and_no_events(capsys):
    assert main(["trace", "kv_store", "--length", "4000", "--no-events"]) == 0
    out = capsys.readouterr().out
    assert "timeline: kv_store" in out


def test_cmd_trace_external_csv(tmp_path, capsys):
    from repro.trace.external import save_trace_csv
    from repro.trace.workloads import get_trace

    path = str(tmp_path / "ext.csv")
    save_trace_csv(get_trace("kv_store", 4000), path)
    assert main(["trace", path, "ibtb:16"]) == 0
    assert "timeline" in capsys.readouterr().out


def test_cmd_export(tmp_path, capsys):
    outdir = str(tmp_path / "traces")
    assert main(["export", outdir, "kv_store", "--length", "3000"]) == 0
    out = capsys.readouterr().out
    assert "kv_store.csv" in out
    from repro.trace.external import load_trace_csv

    back = load_trace_csv(str(tmp_path / "traces" / "kv_store.csv"))
    assert len(back) == 3000


def test_cmd_sweep_with_bench_out(tmp_path, capsys):
    import json

    from repro.core.exec import configure_disk_cache
    from repro.core.runner import clear_cache

    bench = tmp_path / "BENCH_sweep.json"
    try:
        assert main([
            "sweep", "ibtb:16",
            "--workloads", "web_frontend", "db_oltp",
            "--length", "4000", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--bench-out", str(bench),
        ]) == 0
        out = capsys.readouterr().out
        assert "Sweep: IPC relative to ideal I-BTB 16" in out
        payload = json.loads(bench.read_text())
        assert payload["jobs"] == 2
        assert payload["phases"]["warm_cache"]["result_hits"] == 4
        assert payload["phases"]["serial_cold"]["result_misses"] == 4
        assert payload["speedup_warm_vs_cold"] > 1.0
    finally:
        clear_cache()
        configure_disk_cache(False)


def test_cmd_sweep_no_disk_cache(capsys):
    from repro.core.exec import configure_disk_cache
    from repro.core.runner import clear_cache

    try:
        assert main([
            "sweep", "ibtb:16", "--no-disk-cache",
            "--workloads", "web_frontend",
            "--length", "3000",
        ]) == 0
        assert "disk cache" not in capsys.readouterr().out
    finally:
        clear_cache()
        configure_disk_cache(False)


@pytest.mark.parametrize("value", ["no", "OFF"])
def test_cmd_sweep_off_disk_cache_env_names_no_directory(
    value, tmp_path, monkeypatch, capsys
):
    """The sweep caches by default; ``REPRO_DISK_CACHE`` only names its
    root, and an off value names none (not a directory called ``no``)."""
    from repro.core.exec import ENV_CACHE_DIR, ENV_DISK_CACHE, configure_disk_cache
    from repro.core.runner import clear_cache

    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv(ENV_DISK_CACHE, value)
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "default"))
    try:
        assert main([
            "sweep", "ibtb:16", "--workloads", "web_frontend",
            "--length", "2000",
        ]) == 0
        assert "disk cache: 0 result hits / 2 misses" in capsys.readouterr().out
        assert list(cwd.iterdir()) == []
        assert list((tmp_path / "default" / "v1" / "results").iterdir())
    finally:
        clear_cache()
        configure_disk_cache(False)


def test_cmd_sweep_bench_requires_disk_cache(capsys):
    assert main([
        "sweep", "ibtb:16", "--no-disk-cache", "--bench-out", "/tmp/x.json",
    ]) == 2
    assert "disk cache" in capsys.readouterr().err


# -- fault-tolerant sweep flags ----------------------------------------------


@pytest.fixture()
def _sweep_env(tmp_path, monkeypatch):
    """Isolated caches + fault env for the resilient-sweep CLI tests."""
    from repro.core.exec import configure_disk_cache
    from repro.core.exec.faults import ENV_FAULT_DIR, ENV_FAULT_SPEC
    from repro.core.runner import clear_cache

    monkeypatch.delenv(ENV_FAULT_SPEC, raising=False)
    monkeypatch.setenv(ENV_FAULT_DIR, str(tmp_path / "fault-state"))
    clear_cache()
    configure_disk_cache(False)
    yield tmp_path
    clear_cache()
    configure_disk_cache(False)


def test_cmd_run_malformed_trace_exits_2_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("pc,btype,taken,target\nzzz,NONE,0,0\n")
    assert main(["run", "ibtb:16", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(bad) in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_cmd_sweep_resume_requires_disk_cache(capsys):
    assert main(["sweep", "ibtb:16", "--no-disk-cache", "--resume"]) == 2
    assert "disk cache" in capsys.readouterr().err


def test_cmd_sweep_out_is_deterministic(_sweep_env, capsys):
    tmp_path = _sweep_env
    args = [
        "sweep", "ibtb:16",
        "--workloads", "web_frontend",
        "--length", "3000",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
    assert main(args + ["--out", str(tmp_path / "b.json")]) == 0
    capsys.readouterr()
    a = (tmp_path / "a.json").read_bytes()
    assert a == (tmp_path / "b.json").read_bytes()
    import json

    payload = json.loads(a)
    assert payload["schema"] == 1
    assert payload["baseline"] == "ideal I-BTB 16"
    assert payload["configs"]["I-BTB 16"]["web_frontend"]["ipc"] > 0
    assert payload["relative_ipc"]["I-BTB 16"]["web_frontend"] > 0


def test_cmd_sweep_strict_failure_exits_1_with_hint(_sweep_env, monkeypatch, capsys):
    tmp_path = _sweep_env
    monkeypatch.setenv("REPRO_FAULT_SPEC", "raise:db_oltp:99")
    code = main([
        "sweep", "ibtb:16",
        "--workloads", "web_frontend", "db_oltp",
        "--length", "3000", "--max-retries", "1",
        "--cache-dir", str(tmp_path / "cache"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "rerun with --resume" in err
    assert "Traceback" not in err


def test_cmd_sweep_fault_no_strict_then_resume(_sweep_env, monkeypatch, capsys):
    """A sweep with a persistent fault keeps going under --no-strict,
    reports the failures, and a later --resume run only executes the
    points the first run could not finish."""
    import json

    from repro.core.exec.faults import ENV_FAULT_SPEC
    from repro.core.runner import clear_cache

    tmp_path = _sweep_env
    args = [
        "sweep", "ibtb:16",
        "--workloads", "web_frontend", "db_oltp",
        "--length", "3000",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    monkeypatch.setenv(ENV_FAULT_SPEC, "raise:db_oltp:99")
    code = main(args + ["--no-strict", "--max-retries", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED" in captured.err and "db_oltp" in captured.err
    assert "dropped 1 workload(s)" in captured.err
    assert "retries" in captured.out  # resilience summary line

    # The fault is gone (fixed); resume executes only the db_oltp points.
    monkeypatch.delenv(ENV_FAULT_SPEC)
    clear_cache()  # drop the in-process memo, as a fresh process would
    trace = tmp_path / "sweep_trace.json"
    code = main(args + ["--resume", "--chrome", str(trace)])
    captured = capsys.readouterr()
    assert code == 0
    assert "FAILED" not in captured.err
    assert "resumed" in captured.out
    doc = json.loads(trace.read_text())
    names = {e.get("name") for e in doc["traceEvents"]}
    assert "resume_skip" in names
    # The two web_frontend points (config + baseline) were resumed.
    assert doc["otherData"]["counters"]["resumed"] == 2
    assert doc["otherData"]["counters"]["executed"] == 2


# -- corpus + workloads commands ----------------------------------------------


@pytest.fixture
def _corpus_env(tmp_path, monkeypatch):
    """An isolated corpus store plus one exported synthetic trace CSV."""
    from repro.core.exec import configure_disk_cache
    from repro.core.runner import clear_cache
    from repro.corpus import configure_corpus
    from repro.trace.external import save_trace_csv
    from repro.trace.workloads import get_trace

    monkeypatch.setenv("REPRO_CORPUS_DIR", str(tmp_path / "corpus"))
    configure_corpus(tmp_path / "corpus")
    csv = tmp_path / "web_frontend.csv"
    save_trace_csv(get_trace("web_frontend", 9000), str(csv))
    clear_cache()
    configure_disk_cache(False)
    yield tmp_path, str(csv)
    clear_cache()
    configure_disk_cache(False)


def test_cmd_corpus_ingest_ls_info_verify(_corpus_env, capsys):
    tmp_path, csv = _corpus_env
    assert main(["corpus", "ingest", csv, "--shard-insts", "2000"]) == 0
    out = capsys.readouterr().out
    assert "ingested corpus:web_frontend" in out
    assert "9,000 instructions" in out and "5 shard(s)" in out

    assert main(["corpus", "ls"]) == 0
    out = capsys.readouterr().out
    assert "web_frontend" in out and "9,000" in out

    assert main(["corpus", "info", "web_frontend"]) == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["instructions"] == 9000
    assert len(payload["content_hash"]) == 64

    assert main(["corpus", "verify"]) == 0
    assert "no problems" in capsys.readouterr().out


def test_cmd_corpus_verify_detects_corruption_exit_1(_corpus_env, capsys):
    from repro.corpus import CorpusStore

    tmp_path, csv = _corpus_env
    assert main(["corpus", "ingest", csv, "--shard-insts", "2000"]) == 0
    store = CorpusStore()
    manifest = store.get("web_frontend")
    shard = store.shard_dir_path(manifest) / manifest.shards[1].file
    shard.write_bytes(b"corrupted")
    assert main(["corpus", "verify"]) == 1
    captured = capsys.readouterr()
    assert "PROBLEM" in captured.err and "corrupted shard" in captured.err


def test_cmd_corpus_gc_reports_orphans(_corpus_env, capsys):
    tmp_path, csv = _corpus_env
    assert main(["corpus", "ingest", csv, "--shard-insts", "2500"]) == 0
    assert main(["corpus", "ingest", csv, "--shard-insts", "2000"]) == 0
    capsys.readouterr()
    assert main(["corpus", "gc", "--dry-run"]) == 0
    assert "would remove" in capsys.readouterr().out
    assert main(["corpus", "gc"]) == 0
    assert "removed" in capsys.readouterr().out
    assert main(["corpus", "gc"]) == 0
    assert "nothing to collect" in capsys.readouterr().out
    assert main(["corpus", "verify"]) == 0


def test_cmd_corpus_ingest_name_with_multiple_sources_exits_2(
    _corpus_env, capsys
):
    tmp_path, csv = _corpus_env
    assert main(["corpus", "ingest", csv, csv, "--name", "x"]) == 2
    assert "--name requires a single source" in capsys.readouterr().err


def test_cmd_workloads_lists_synthetic_and_corpus(_corpus_env, capsys):
    tmp_path, csv = _corpus_env
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "web_frontend" in out and "synthetic" in out
    assert "no corpus entries" in out

    assert main(["corpus", "ingest", csv]) == 0
    capsys.readouterr()
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "corpus:web_frontend" in out and "9,000" in out


def test_cmd_run_corpus_workload_matches_csv(_corpus_env, capsys):
    """`run` on a corpus: name prints the same metrics as on the CSV the
    entry was ingested from (bit-identical simulation)."""
    tmp_path, csv = _corpus_env
    assert main(["corpus", "ingest", csv]) == 0
    capsys.readouterr()
    assert main(["run", "mbbtb:2:allbr", "corpus:web_frontend",
                 "--length", "9000"]) == 0
    via_corpus = capsys.readouterr().out.splitlines()
    assert main(["run", "mbbtb:2:allbr", csv, "--length", "9000"]) == 0
    via_csv = capsys.readouterr().out.splitlines()
    assert via_corpus[1:] == via_csv[1:]  # all metric lines identical


def test_cmd_run_unknown_corpus_entry_exits_2(_corpus_env, capsys):
    assert main(["run", "ibtb:16", "corpus:nosuch"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "no corpus entry" in err


def test_cmd_trace_corpus_workload_with_slice(_corpus_env, capsys):
    tmp_path, csv = _corpus_env
    assert main(["corpus", "ingest", csv]) == 0
    capsys.readouterr()
    assert main(["trace", "corpus:web_frontend@skip=1000,measure=4000",
                 "--length", "9000"]) == 0
    assert "SimResult" in capsys.readouterr().out


def test_cmd_sweep_corpus_workload_cached_across_runs(_corpus_env, capsys):
    """Sweep points on corpus workloads are served from the disk cache on
    a second invocation, keyed by the entry's content hash."""
    tmp_path, csv = _corpus_env
    assert main(["corpus", "ingest", csv]) == 0
    capsys.readouterr()
    args = [
        "sweep", "ibtb:16",
        "--workloads", "corpus:web_frontend",
        "--length", "9000",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
    capsys.readouterr()

    from repro.core.runner import clear_cache

    clear_cache()  # fresh process stand-in: memo gone, disk cache kept
    assert main(args + ["--out", str(tmp_path / "b.json")]) == 0
    out = capsys.readouterr().out
    hits = int(out.split("disk cache: ")[1].split(" result hits")[0])
    assert hits >= 2  # config + baseline point both re-served
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
