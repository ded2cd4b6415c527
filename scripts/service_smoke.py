#!/usr/bin/env python
"""CI smoke for the ``repro-sim serve`` daemon (see docs/service.md).

Boots a real daemon subprocess, submits two identical concurrent sweep
jobs, and asserts the service-level invariants end to end:

* both jobs finish ``done`` with identical result documents;
* at least one duplicate point was coalesced (``/v1/metrics``), and
  every requested point was either scheduled once or coalesced;
* with ``--expect-cold``, the disk cache records exactly one miss per
  unique grid point — i.e. 0 duplicate executions for 2x the requests;
* the same sweep submitted once more is answered from the cache at
  admission: ``points_cached`` grows by the grid size, nothing is
  scheduled, no cache miss is counted, and the result is the twins';
* SIGTERM drains gracefully: exit code 0 after in-flight work lands.

The winning job's result document is written to ``--out`` in exactly
the format of ``repro-sim sweep --out`` so the caller can ``cmp`` it
against a clean one-shot CLI sweep — including runs where
``REPRO_FAULT_SPEC`` (inherited by the daemon) injects worker crashes.

``--chaos-daemon`` switches to the durability drill instead: the daemon
is booted with ``REPRO_FAULT_DAEMON_AFTER=N`` so it SIGKILLs *itself*
between write-ahead journal appends mid-job, a second daemon is started
on the same ``--state-dir``, and the script asserts the job is reported
``recovered: true`` and converges to the same ``--out`` document a
clean run would produce (the CI job ``cmp``\\ s it against a one-shot
CLI sweep). It also asserts that none of the killed daemon's session
processes outlives it.

``--single-point SWEEP_JSON`` submits one ``POST /v1/run`` instead (the
first config on the first workload), typically under a
``REPRO_FAULT_SPEC`` that kills its session: the job must end ``done``,
the daemon must stay ready, and the result must equal that point's
entry in ``SWEEP_JSON``, a clean ``sweep --out`` document.

Stdlib only; exits non-zero with a diagnostic on any violated invariant.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _request(port, method, path, body=None, headers=None, timeout=300):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    conn.request(
        method,
        path,
        body=json.dumps(body) if body is not None else None,
        headers=headers or {},
    )
    resp = conn.getresponse()
    data = resp.read()
    conn.close()
    return resp.status, json.loads(data) if data else None


def _events(port, job_id):
    """A finished job's NDJSON event feed, parsed."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", f"/v1/jobs/{job_id}/events")
        body = conn.getresponse().read().decode()
    finally:
        conn.close()
    return [json.loads(line) for line in body.splitlines() if line.strip()]


def _wait_batches(port, n, timeout=60):
    """The metrics document once *n* batches have folded their resilience
    counters (a job finishes strictly before its batch does)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _status, metrics = _request(port, "GET", "/v1/metrics")
        if metrics["service"]["batches"] >= n:
            return metrics
        time.sleep(0.1)
    raise SystemExit(f"FAIL: never saw {n} completed batch(es)")


def _wait_job(port, job_id, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, doc = _request(port, "GET", f"/v1/jobs/{job_id}")
        if status != 200:
            raise SystemExit(f"FAIL: job poll returned HTTP {status}")
        if doc["status"] != "running":
            return doc
        time.sleep(0.2)
    raise SystemExit(f"FAIL: job {job_id} still running after {timeout}s")


def _boot_daemon(args, env, state_dir=None):
    """Start one daemon subprocess; returns ``(process, port)``."""
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0",
        "--jobs", str(args.jobs),
        "--cache-dir", args.cache_dir,
        "--drain-timeout", "300",
        "--timeout", "60",  # hung (faulted) workers get killed + retried
    ]
    if state_dir is not None:
        cmd += ["--state-dir", str(state_dir)]
    daemon = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    line = daemon.stdout.readline()
    while line and "listening on http://" not in line:
        line = daemon.stdout.readline()  # skip recovery log lines
    if "listening on http://" not in line:
        daemon.kill()
        daemon.wait()
        raise SystemExit(f"FAIL: unexpected daemon banner: {line!r}")
    port = int(line.split("listening on http://", 1)[1]
               .split()[0].rsplit(":", 1)[1])
    print(f"daemon up on port {port} (pid {daemon.pid})")
    return daemon, port


def _survivors(argv):
    """Pids still running *argv*: a forked session keeps its daemon's
    command line, so these are sessions of a daemon that is gone."""
    want = "\0".join(argv) + "\0"
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        proc = Path("/proc") / entry
        try:
            cmdline = (proc / "cmdline").read_bytes().decode(errors="replace")
            state = (proc / "stat").read_text().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            continue
        if cmdline == want and state not in ("Z", "X"):
            pids.append(int(entry))
    return pids


def _assert_no_survivors(daemon, grace=10.0) -> None:
    if not os.path.isdir("/proc"):
        print("no /proc: skipping the orphaned-session check")
        return
    deadline = time.monotonic() + grace
    while True:
        pids = _survivors(daemon.args)
        if not pids:
            print("no session outlived the killed daemon")
            return
        if time.monotonic() > deadline:
            raise SystemExit(
                f"FAIL: sessions {pids} outlived the killed daemon by "
                f"{grace:.0f}s"
            )
        time.sleep(0.1)


def _chaos_daemon(args, env) -> int:
    """The durability drill: SIGKILL the daemon mid-journal, recover."""
    state_dir = Path(args.cache_dir) / "service-state"
    fault_dir = Path(args.cache_dir) / "fault-daemon"
    sentinel = fault_dir / "daemon.killed"
    if sentinel.exists():
        sentinel.unlink()  # make reruns on a warm dir deterministic
    env = dict(env)
    env["REPRO_FAULT_DAEMON_AFTER"] = str(args.kill_after)
    env["REPRO_FAULT_DIR"] = str(fault_dir)

    spec = {
        "configs": args.configs,
        "workloads": args.workloads,
        "length": args.length,
    }
    daemon, port = _boot_daemon(args, env, state_dir=state_dir)
    try:
        status, doc = _request(port, "POST", "/v1/sweep", spec)
        if status != 202:
            raise SystemExit(f"FAIL: submission got HTTP {status}: {doc}")
        job_id = doc["job"]
        print(f"submitted sweep {job_id}; waiting for the injected SIGKILL")
        rc = daemon.wait(timeout=args.timeout)
        if rc != -signal.SIGKILL:
            raise SystemExit(
                f"FAIL: daemon exited {rc}, expected SIGKILL "
                f"(-{int(signal.SIGKILL)}) after "
                f"{args.kill_after} journal appends"
            )
        if not sentinel.exists():
            raise SystemExit("FAIL: daemon died without claiming the "
                             "kill sentinel")
        print(f"daemon SIGKILLed itself after {args.kill_after} appends")
        _assert_no_survivors(daemon)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    # Same env on purpose: the claimed sentinel must protect the
    # restarted daemon from the still-armed kill switch.
    daemon, port = _boot_daemon(args, env, state_dir=state_dir)
    try:
        status, doc = _request(port, "GET", f"/v1/jobs/{job_id}")
        if status != 200:
            raise SystemExit(
                f"FAIL: pre-crash job unknown after restart (HTTP {status})"
            )
        if not doc.get("recovered"):
            raise SystemExit(f"FAIL: job not marked recovered: {doc}")
        print(f"job {job_id} recovered (status {doc['status']})")

        doc = _wait_job(port, job_id, args.timeout)
        if doc["status"] != "done" or doc["failed"]:
            raise SystemExit(f"FAIL: recovered job did not converge: {doc}")

        _status, metrics = _request(port, "GET", "/v1/metrics")
        service = metrics["service"]
        if service.get("jobs_recovered", 0) < 1:
            raise SystemExit(
                f"FAIL: jobs_recovered not counted: {service}"
            )
        status, ready = _request(port, "GET", "/v1/healthz/ready")
        if status != 200:
            raise SystemExit(f"FAIL: recovered daemon not ready: {ready}")

        Path(args.out).write_text(
            json.dumps(doc["result"], indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.out}")

        daemon.send_signal(signal.SIGTERM)
        rc = daemon.wait(timeout=120)
        tail = daemon.stdout.read()
        if rc != 0:
            raise SystemExit(f"FAIL: daemon exited {rc} on SIGTERM: {tail}")
        print("ok: killed mid-journal, recovered, converged, drained")
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


def _single_point(args, env) -> int:
    """One ``/v1/run``: done, still ready, and equal to the clean sweep."""
    spec = {
        "config": args.configs[0],
        "workload": args.workloads[0],
        "length": args.length,
    }
    daemon, port = _boot_daemon(args, env)
    try:
        status, doc = _request(port, "POST", "/v1/run", spec)
        if status != 202:
            raise SystemExit(f"FAIL: submission got HTTP {status}: {doc}")
        job_id = doc["job"]
        doc = _wait_job(port, job_id, args.timeout)
        if doc["status"] != "done":
            raise SystemExit(f"FAIL: single-point job did not converge: {doc}")
        metrics = _wait_batches(port, 1)
        print(f"metrics: resilience={metrics['resilience']}")
        if os.environ.get("REPRO_FAULT_SPEC"):
            if metrics["resilience"].get("retries", 0) < 1:
                raise SystemExit(
                    "FAIL: fault spec set but no retries recorded — "
                    "the chaos run didn't actually exercise recovery"
                )
        status, ready = _request(port, "GET", "/v1/healthz/ready")
        if status != 200:
            raise SystemExit(f"FAIL: daemon not ready after the job: {ready}")

        label = next(
            e["config"] for e in _events(port, job_id) if e["event"] == "point"
        )
        entry = {
            key: doc["result"][key]
            for key in ("instructions", "cycles", "ipc", "branch_mpki",
                        "misfetch_pki", "stats")
        }
        clean = json.loads(Path(args.single_point).read_text())
        want = clean["configs"][label][spec["workload"]]
        if json.dumps(entry, sort_keys=True) != json.dumps(
            want, sort_keys=True
        ):
            raise SystemExit(
                f"FAIL: {label} on {spec['workload']} differs from "
                f"{args.single_point}"
            )
        print(f"{label} on {spec['workload']} matches {args.single_point}")
        Path(args.out).write_text(
            json.dumps({label: {spec["workload"]: entry}}, indent=2,
                       sort_keys=True) + "\n"
        )
        print(f"wrote {args.out}")

        daemon.send_signal(signal.SIGTERM)
        rc = daemon.wait(timeout=120)
        tail = daemon.stdout.read()
        if rc != 0:
            raise SystemExit(f"FAIL: daemon exited {rc} on SIGTERM: {tail}")
        print("ok: single point converged, daemon stayed ready, drained")
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="result document path")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--length", type=int, default=20_000)
    parser.add_argument(
        "--configs", nargs="+", default=["ibtb:16", "mbbtb:2:allbr"]
    )
    parser.add_argument(
        "--workloads",
        nargs="+",
        default=["web_frontend", "db_oltp", "kv_store", "template_render"],
    )
    parser.add_argument(
        "--expect-cold",
        action="store_true",
        help="assert exactly one cache miss per unique point "
        "(start this run on an empty --cache-dir)",
    )
    parser.add_argument(
        "--chaos-daemon",
        action="store_true",
        help="run the daemon-kill durability drill instead of the "
        "coalescing smoke",
    )
    parser.add_argument(
        "--single-point", metavar="SWEEP_JSON",
        help="submit one /v1/run (first config, first workload) instead "
        "of the twin sweeps; its result must equal the point's entry in "
        "this clean 'sweep --out' document",
    )
    parser.add_argument(
        "--kill-after", type=int, default=3, metavar="N",
        help="journal appends before the injected daemon SIGKILL "
        "(--chaos-daemon only; default 3: mid-job for any multi-point "
        "sweep)",
    )
    parser.add_argument("--timeout", type=float, default=600.0)
    args = parser.parse_args(argv)

    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO / 'src'}{os.pathsep}" + env.get("PYTHONPATH", "")
    if args.chaos_daemon:
        return _chaos_daemon(args, env)
    if args.single_point:
        return _single_point(args, env)
    daemon, port = _boot_daemon(args, env)
    try:
        spec = {
            "configs": args.configs,
            "workloads": args.workloads,
            "length": args.length,
        }
        submissions = [None, None]

        def submit(slot):
            submissions[slot] = _request(port, "POST", "/v1/sweep", spec)

        threads = [
            threading.Thread(target=submit, args=(slot,)) for slot in (0, 1)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for status, doc in submissions:
            if status != 202:
                raise SystemExit(f"FAIL: submission got HTTP {status}: {doc}")
        ids = [doc["job"] for _status, doc in submissions]
        print(f"submitted twin sweeps: {ids[0]} and {ids[1]}")

        docs = [_wait_job(port, job_id, args.timeout) for job_id in ids]
        for doc in docs:
            if doc["status"] != "done" or doc["failed"]:
                raise SystemExit(f"FAIL: job did not converge: {doc}")

        results = [
            json.dumps(doc["result"], indent=2, sort_keys=True) + "\n"
            for doc in docs
        ]
        if results[0] != results[1]:
            raise SystemExit("FAIL: twin jobs returned different results")

        _status, metrics = _request(port, "GET", "/v1/metrics")
        service = metrics["service"]
        unique = (len(args.configs) + 1) * len(args.workloads)  # + baseline
        print(
            f"metrics: requested={service['points_requested']} "
            f"scheduled={service['points_scheduled']} "
            f"coalesced={service['points_coalesced']} "
            f"result_misses={metrics['cache'].get('result_misses')} "
            f"resilience={metrics['resilience']}"
        )
        if service["points_requested"] != 2 * unique:
            raise SystemExit("FAIL: wrong request accounting")
        if service["points_coalesced"] < 1:
            raise SystemExit("FAIL: no coalescing observed across twin sweeps")
        if service["points_cached"] != 0:
            raise SystemExit("FAIL: a cold cache answered points at admission")
        if (
            service["points_scheduled"] + service["points_coalesced"]
            != service["points_requested"]
        ):
            raise SystemExit("FAIL: scheduled + coalesced != requested")
        if args.expect_cold:
            misses = metrics["cache"].get("result_misses")
            if misses != unique:
                raise SystemExit(
                    f"FAIL: expected {unique} cold misses (one execution "
                    f"per unique point), saw {misses}"
                )
        if os.environ.get("REPRO_FAULT_SPEC"):
            if metrics["resilience"].get("retries", 0) < 1:
                raise SystemExit(
                    "FAIL: fault spec set but no retries recorded — "
                    "the chaos run didn't actually exercise recovery"
                )

        status, doc = _request(port, "POST", "/v1/sweep", spec)
        if status != 202:
            raise SystemExit(f"FAIL: warm submission got HTTP {status}: {doc}")
        doc = _wait_job(port, doc["job"], args.timeout)
        if doc["status"] != "done" or results[0] != (
            json.dumps(doc["result"], indent=2, sort_keys=True) + "\n"
        ):
            raise SystemExit(f"FAIL: the warm pass differs from the twins: {doc}")
        _status, warm = _request(port, "GET", "/v1/metrics")
        grew = {
            name: warm["service"][name] - service[name]
            for name in ("points_cached", "points_scheduled")
        }
        grew["result_misses"] = warm["cache"].get("result_misses", 0) - (
            metrics["cache"].get("result_misses", 0)
        )
        print(f"warm pass: {grew}")
        if grew != {"points_cached": unique, "points_scheduled": 0,
                    "result_misses": 0}:
            raise SystemExit("FAIL: the warm pass was not answered from the "
                             "cache at admission")

        Path(args.out).write_text(results[0])
        print(f"wrote {args.out}")

        daemon.send_signal(signal.SIGTERM)
        rc = daemon.wait(timeout=120)
        tail = daemon.stdout.read()
        if rc != 0:
            raise SystemExit(f"FAIL: daemon exited {rc} on SIGTERM: {tail}")
        print("ok: coalesced, converged, answered warm, drained cleanly")
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


if __name__ == "__main__":
    sys.exit(main())
