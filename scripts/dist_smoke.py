#!/usr/bin/env python
"""CI smoke for the distributed sweep fabric (see docs/distributed.md).

Hosts a coordinator in-process, spawns ``--workers`` real
``repro-sim worker`` subprocesses against it, and drives a sweep through
``repro-sim sweep --dist`` so the ``--out`` document is produced by the
exact CLI code path. Chaos is injected on the **workers only** via
``--fault-spec`` (e.g. ``kill:...`` SIGKILLs a session process
mid-point, ``disconnect:...`` abruptly drops its coordinator
connection, ``hang:...`` stalls a point until ``--timeout`` blames it);
the caller then ``cmp``\\ s ``--out`` against a clean
serial ``repro-sim sweep --out`` — the acceptance bar is byte-identical
output no matter what the fleet suffered.

Asserts, beyond the sweep exiting 0:

* every spawned worker registered (``workers_total``);
* with a fault spec, the chaos actually fired: at least one worker was
  lost to a SIGKILL/EOF/silent lease **or** at least one session
  reconnected after an injected disconnect;
* the fleet counters are internally consistent (all points accounted).

Stdlib only; exits non-zero with a diagnostic on any violated invariant.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

CONFIGS = ["ibtb:16", "mbbtb:2:allbr"]
WORKLOADS = ["web_frontend", "db_oltp", "kv_store", "template_render"]


def fail(message: str) -> None:
    print(f"dist-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="sweep --out destination")
    ap.add_argument(
        "--cache-dir", required=True,
        help="scratch root for the coordinator and worker caches",
    )
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument(
        "--jobs-per-worker", type=int, default=2,
        help="session processes per worker supervisor",
    )
    ap.add_argument(
        "--fault-spec", default="",
        help="REPRO_FAULT_SPEC exported to the workers only",
    )
    ap.add_argument("--length", type=int, default=20_000)
    ap.add_argument(
        "--timeout", default=None, metavar="SECONDS",
        help="sweep --timeout: a lease silent past its allowance is "
        "blamed as a timeout (default: none)",
    )
    args = ap.parse_args()

    scratch = Path(args.cache_dir)
    scratch.mkdir(parents=True, exist_ok=True)

    from repro import cli
    from repro.dist import get_coordinator, shutdown_coordinators

    coordinator = get_coordinator("dist://127.0.0.1:0")
    address = f"127.0.0.1:{coordinator.port}"
    print(f"dist-smoke: coordinator on tcp://{address}", flush=True)

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    if args.fault_spec:
        env["REPRO_FAULT_SPEC"] = args.fault_spec
        env["REPRO_FAULT_DIR"] = str(scratch / "fault-state")
    workers = []
    for i in range(args.workers):
        workers.append(
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker",
                    "--connect", address,
                    "--jobs", str(args.jobs_per_worker),
                    "--name", f"smoke-{i}",
                    "--cache-dir", str(scratch / f"worker-{i}-cache"),
                ],
                env=env,
                cwd=str(REPO),
            )
        )
    try:
        sessions = args.workers * args.jobs_per_worker
        if not coordinator.wait_for_workers(sessions, timeout=60):
            fail(
                f"only {coordinator.workers_live()} of {sessions} worker "
                f"sessions registered"
            )
        print(f"dist-smoke: {sessions} worker session(s) up", flush=True)

        timeout = ["--timeout", args.timeout] if args.timeout else []
        rc = cli.main(
            [
                "sweep", *CONFIGS,
                "--workloads", *WORKLOADS,
                "--length", str(args.length),
                "--dist", address,
                "--max-retries", "3",
                *timeout,
                "--cache-dir", str(scratch / "coord-cache"),
                "--out", args.out,
            ]
        )
        if rc != 0:
            fail(f"sweep --dist exited {rc}")

        counters = coordinator.counters()
        print(f"dist-smoke: fleet counters: {counters}", flush=True)
        if counters["workers_total"] < sessions:
            fail(
                f"expected >= {sessions} registrations, saw "
                f"{counters['workers_total']}"
            )
        if counters["outcomes_ok"] < 1:
            fail("no successful outcomes crossed the wire")
        if args.fault_spec:
            lost = counters["workers_lost"]
            reconnects = counters["reconnects"]
            if lost + reconnects < 1:
                fail(
                    "fault spec set but no chaos observed "
                    f"(workers_lost={lost}, reconnects={reconnects})"
                )
            print(
                f"dist-smoke: chaos fired (workers_lost={lost}, "
                f"reconnects={reconnects}) and the sweep converged",
                flush=True,
            )
    finally:
        shutdown_coordinators()
        for proc in workers:
            proc.terminate()
        for proc in workers:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
    print("dist-smoke: ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
