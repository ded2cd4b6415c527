"""Lease affinity follows the trace group resident in each session.

With the disk cache on, a session keeps one trace group resident (the
engine releases the others), so the coordinator remembers only the group
of each session's latest lease. These tests drive ``Coordinator._grant``
directly: sessions are bare ``_Remote`` records, one ``_Run`` per batch
(a daemon's sessions outlive batches), and the frames the coordinator
would send are captured, so no socket or process is involved.
"""

from __future__ import annotations

import asyncio

from repro.core.config import IDEAL_IBTB16, ibtb, rbtb
from repro.core.exec import SweepPoint
from repro.core.exec.engine import DEFAULT_POLICY, _SweepState
from repro.dist import coordinator as coordinator_module
from repro.dist.coordinator import Coordinator, _Remote, _Run

L, W = 2_000, 500


def _points(*workloads, seed=7):
    return [
        SweepPoint(config, workload, L, W, seed)
        for workload in workloads
        for config in (IDEAL_IBTB16, ibtb(4), rbtb(3))
    ]


class _Fleet:
    """A coordinator that is never started, with fake sessions."""

    def __init__(self) -> None:
        self.coordinator = Coordinator()
        self.sent = []

        async def send(remote, msg, blob=b""):
            self.sent.append((remote.worker_id, msg))

        self.coordinator._send = send

    def session(self, worker_id: str) -> _Remote:
        remote = _Remote(
            worker_id=worker_id,
            slot=len(self.coordinator._workers),
            writer=None,
            wlock=None,
            last_msg=0.0,
        )
        self.coordinator._workers[worker_id] = remote
        return remote

    def batch(self, points) -> None:
        state = _SweepState(points, DEFAULT_POLICY, None, False)
        self.coordinator._run = _Run(state, None, 0)

    def grant(self, remote: _Remote) -> set:
        """One lease request; returns the workloads of the lease."""
        asyncio.run(self.coordinator._grant(remote, {"t": "lease"}))
        lease = remote.leases[max(remote.leases)]
        return {point.workload for _, point in lease.pairs}


def test_a_session_is_offered_its_latest_group_first():
    fleet = _Fleet()
    a = fleet.session("a")
    for workload in ("db_oltp", "web_frontend"):  # X, then Y
        fleet.batch(_points(workload))
        assert fleet.grant(a) == {workload}
    # Both groups have points left; X sorts first, Y is resident in a.
    fleet.batch(_points("db_oltp", "web_frontend"))
    assert fleet.grant(a) == {"web_frontend"}
    assert a.group == ("web_frontend", L, 7)


def test_untouched_means_resident_on_no_session():
    fleet = _Fleet()
    a, b = fleet.session("a"), fleet.session("b")
    for workload in ("db_oltp", "kv_store"):
        fleet.batch(_points(workload))
        fleet.grant(a)
    # a moved on from db_oltp, so no session holds it any more: b, with
    # nothing resident, takes it before web_frontend.
    fleet.batch(_points("db_oltp", "kv_store", "web_frontend"))
    assert fleet.grant(b) == {"db_oltp"}
    assert fleet.grant(a) == {"kv_store"}


def test_grant_bookkeeping_does_not_grow_with_past_groups(monkeypatch):
    seen = []
    real = coordinator_module.pick_lease

    def spy(eligible, sessions, held=(), touched=(), batch=None):
        seen.append((set(held), set(touched)))
        return real(eligible, sessions, held, touched, batch)

    monkeypatch.setattr(coordinator_module, "pick_lease", spy)
    fleet = _Fleet()
    a, b = fleet.session("a"), fleet.session("b")
    for seed in range(24):
        fleet.batch(_points("kv_store", seed=seed))
        fleet.grant(a if seed % 2 else b)
    assert a.group == ("kv_store", L, 23) and b.group == ("kv_store", L, 22)
    assert all(len(held) == 1 and len(touched) <= 2 for held, touched in seen)
