"""Work-stealing sweep coordinator (asyncio TCP, thread-hosted).

This is the only parallel scheduler. A coordinator either owns local
sessions — :func:`local_coordinator` forks them through
:class:`~repro.dist.worker.Supervisor` onto a private loopback port —
or serves ``repro-sim worker`` fleets that connect to it. What differs
is only how long one lives: ``run_points(jobs=N)`` builds a local one
per call (:func:`run_local`), while ``repro-sim serve`` keeps its
coordinator, local or ``--dist-listen``, for its whole lifetime and
leases every batch onto it (``run_points(dispatch=coordinator)``,
:func:`run_dist`). Either way the coordinator owns the point
queue and drives the engine's resilience machinery — the same
:class:`~repro.core.exec.engine._SweepState` records retries, taxonomy
counters, journal checkpoints and report events as a serial run. A
session that dies or disconnects has the first unreported point of its
lease blamed (``worker-crash``, consuming one attempt) and its
lease-mates re-dispatched blame-free; a lease that reports nothing for
``RetryPolicy.allowance()`` seconds has its head blamed as ``timeout``
the same way, and its session is dropped (and SIGKILLed when it is one
of ours).

Dispatch is pull-based work stealing: idle sessions request leases;
when the queue is empty but another session still holds unstarted
points, the coordinator revokes the tail half of the victim's lease and
hands it to the thief. A request that arrives while no sweep is open is
parked and answered the moment the next one begins, so a fleet that
outlives its sweeps starts each one without a polling delay; a local
session still running a point its sweep gave up on at the deadline is
SIGKILLed, and its supervisor respawns it. Sessions stream one outcome
frame per point, so progress is never lost in batch granularity. Leases
are recorded as ``chunk_start``/``chunk_end`` report events with the
session's slot, so ``sweep --chrome`` draws one track per session.

The asyncio event loop runs in a dedicated daemon thread; ``execute``
blocks the calling thread (the engine or the service executor) until
the sweep completes.
"""
from __future__ import annotations

import asyncio
import hashlib
import threading
import time
from dataclasses import dataclass, field
from math import ceil
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.exec.engine import (
    Group,
    Pair,
    SweepPoint,
    get_disk_cache,
    point_key,
    trace_group,
)
from .protocol import (
    DIST_SCHEMA,
    ConnectionClosed,
    ProtocolError,
    parse_dist_url,
    point_to_wire,
    read_frame,
    result_from_wire,
    write_frame,
)

#: Seconds without any frame (heartbeats included) before a worker is
#: declared lost and its leased points are reassigned.
DEFAULT_HB_TIMEOUT = 20.0

#: Idle-poll hint (ms) handed to workers when no work is grantable.
IDLE_RETRY_MS = 200

#: Fleet counters always present in a snapshot (mirrors COUNTER_NAMES
#: discipline: consumers can rely on every key existing).
FLEET_COUNTER_NAMES = (
    "workers_total",
    "workers_lost",
    "leases",
    "points_leased",
    "steals",
    "points_stolen",
    "outcomes_ok",
    "outcomes_err",
    "outcomes_duplicate",
    "outcomes_dropped",
    "fetch_manifests",
    "fetch_shards",
    "fetch_plans",
    "shard_bytes_tx",
    "plan_bytes_tx",
)

#: Worker-side counters folded into the fleet snapshot (summed over
#: live workers' latest reports plus departed workers' final reports).
WORKER_COUNTER_NAMES = (
    "fetch_cache_hits",
    "shard_fetches",
    "shard_refetches",
    "shard_bytes_rx",
    "plan_bytes_rx",
    "points_ok",
    "points_err",
    "reconnects",
)

def pick_lease(
    eligible: Sequence[Pair],
    sessions: int,
    held: Iterable[Group] = (),
    touched: Iterable[Group] = (),
    batch: Optional[int] = None,
) -> List[Pair]:
    """Select one lease from the *eligible* ``(index, point)`` pairs.

    A lease never mixes trace groups, and within its group points are
    ordered so configs sharing a batch-plan geometry land adjacent.
    Group affinity keeps each trace materialized on as few sessions as
    possible: a group this session *held*, then one no session has
    *touched*, then the first. The coordinator passes as *held* the group
    resident in the session (its latest lease's) and as *touched* the
    groups resident in any session. The lease is at most *batch* points,
    or ``ceil(len(eligible) / (sessions * 4))`` so leases shrink as the
    queue drains and the *sessions* stay load-balanced.
    """
    if not eligible:
        return []
    ordered = sorted(
        eligible,
        key=lambda pair: (
            *trace_group(pair[1]), pair[1].config.bp_size_kb, pair[0]
        ),
    )
    groups = list(dict.fromkeys(trace_group(point) for _, point in ordered))
    held, touched = set(held), set(touched)
    group = next(
        (g for g in groups if g in held),
        next((g for g in groups if g not in touched), groups[0]),
    )
    if batch is not None:
        bound = max(1, int(batch))
    else:
        bound = max(1, ceil(len(eligible) / (max(1, sessions) * 4)))
    return [pair for pair in ordered if trace_group(pair[1]) == group][:bound]


@dataclass
class _QueuedPoint:
    index: int
    point: SweepPoint
    not_before: float = 0.0  # state.now() instant of a backoff delay


@dataclass
class _Lease:
    lease_id: int
    run: "_Run"
    pairs: List[Pair]
    #: ``time.monotonic()`` of the grant or the lease's latest outcome
    #: (the lease watchdog's clock; heartbeats do not count).
    progress: float
    reported: Set[int] = field(default_factory=set)

    def unreported(self) -> List[Pair]:
        """The lease's points with no outcome yet, in execution order."""
        done = self.run.state.outcomes
        return [
            (index, point)
            for index, point in self.pairs
            if index not in self.reported and index not in done
        ]


@dataclass
class _Remote:
    worker_id: str
    slot: int
    writer: object
    wlock: asyncio.Lock
    last_msg: float
    caps: Dict = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    #: The session's latest disk-cache counter snapshot (folded into
    #: this process's cache as deltas).
    cache: Dict[str, int] = field(default_factory=dict)
    #: The trace group of the session's latest lease: the one resident
    #: in it (``engine._Resident``), ``None`` before its first lease.
    group: Optional[Group] = None
    leases: Dict[int, _Lease] = field(default_factory=dict)
    #: Points leased to this session over its lifetime (``recycle``).
    dispatched: int = 0
    closed: bool = False


class _Run:
    """One sweep being drained onto the fleet."""

    def __init__(self, state, batch: Optional[int], recycle: int) -> None:
        self.state = state
        self.batch = batch
        self.recycle = recycle
        self.pending: List[_QueuedPoint] = [
            _QueuedPoint(index, point) for index, point in state.pairs
        ]
        self.done = threading.Event()
        #: The loop timer that fires at the sweep deadline, if any.
        self.timer: Optional[asyncio.TimerHandle] = None


class Coordinator:
    """One listening coordinator; host it with :func:`get_coordinator`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        hb_timeout: float = DEFAULT_HB_TIMEOUT,
    ) -> None:
        self.host = host
        self.port = port  # actual port after start() when 0 was asked
        self.hb_timeout = hb_timeout
        self._bind_port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._run_lock = threading.Lock()  # one sweep at a time
        self._run: Optional[_Run] = None
        self._workers: Dict[str, _Remote] = {}
        #: Lease requests that arrived while no run was open, by worker
        #: id; :meth:`_begin` answers them.
        self._parked: Dict[str, Tuple[_Remote, Dict]] = {}
        #: The :class:`~repro.dist.worker.Supervisor` of the local
        #: sessions this coordinator owns (:func:`local_coordinator`),
        #: which share this process's disk cache; ``None`` when it serves
        #: remote workers. Polled (respawning dead sessions) for as long
        #: as the coordinator lives, and stopped with it.
        self.fleet = None
        self._next_lease = 0
        self._next_client = 0
        self._counters: Dict[str, int] = {k: 0 for k in FLEET_COUNTER_NAMES}
        self._departed: Dict[str, int] = {}
        self._shard_index: Dict[str, object] = {}

    # -- lifecycle (caller threads) ------------------------------------------

    def start(self) -> "Coordinator":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-dist-coordinator", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise RuntimeError(
                f"coordinator failed to listen on {self.host}:{self._bind_port}: "
                f"{self._startup_error}"
            )
        if not self._ready.is_set():
            raise RuntimeError("coordinator event loop failed to start")
        return self

    def stop(self) -> None:
        """Stop this coordinator and the local sessions it owns."""
        if self.fleet is not None:
            self.fleet.stop()
        loop = self._loop
        event = getattr(self, "_stop_event", None)
        if loop is None or event is None or self._thread is None:
            return
        try:
            loop.call_soon_threadsafe(event.set)
        except RuntimeError:
            pass
        self._thread.join(timeout=10)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def workers_live(self) -> int:
        return len(self._workers)

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> bool:
        """Block until *count* workers are registered (benchmarks use this
        to measure a steady-state fleet, not connection latency)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if len(self._workers) >= count:
                return True
            time.sleep(0.02)
        return len(self._workers) >= count

    def counters(self) -> Dict[str, int]:
        """Fleet counter snapshot (includes the ``workers_live`` gauge)."""
        snap = dict(self._counters)
        folded: Dict[str, int] = dict(self._departed)
        for remote in list(self._workers.values()):
            for key, value in remote.counters.items():
                folded[key] = folded.get(key, 0) + int(value)
        for key in WORKER_COUNTER_NAMES:
            snap[key] = folded.get(key, 0)
        snap["workers_live"] = len(self._workers)
        return snap

    def execute(self, state, batch: Optional[int] = None, recycle: int = 0):
        """Drain *state*'s pending points onto the fleet; blocks until done.

        *recycle* > 0 retires a session once it has been leased that many
        points. The local :attr:`fleet`, if any, is polled from this
        thread (respawning crashed and retired sessions) while the run
        drains; once every session has exited for good, the points still
        open fail. Returns the assembled :class:`SweepReport` via
        ``state.finish()``. KeyboardInterrupt aborts the run (report
        marked interrupted).
        """
        self.start()
        fleet = self.fleet
        with self._run_lock:
            run = _Run(state, batch, recycle)
            asyncio.run_coroutine_threadsafe(
                self._begin(run), self._loop
            ).result(timeout=30)
            try:
                while not run.done.wait(0.05 if fleet is not None else 0.2):
                    if fleet is not None and not fleet.poll():
                        # No session can reach this coordinator any more.
                        self._abort_from_caller(run)
                        return state.finish("every local session exited")
            except KeyboardInterrupt:
                self._abort_from_caller(run)
                state.report.interrupted = True
            return state.finish()

    def _abort_from_caller(self, run: _Run) -> None:
        """Detach *run* from the loop; outcomes arriving later are ignored."""
        try:
            asyncio.run_coroutine_threadsafe(
                self._abort(run), self._loop
            ).result(timeout=10)
        except Exception:
            pass

    # -- event loop ----------------------------------------------------------

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by start()
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._client, self.host, self._bind_port
            )
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.port = server.sockets[0].getsockname()[1]
        monitor = asyncio.ensure_future(self._monitor())
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            monitor.cancel()
            server.close()
            for remote in list(self._workers.values()):
                self._close_remote(remote)
            await server.wait_closed()

    async def _monitor(self) -> None:
        """Declare silent workers lost, time out silent leases, enforce
        the sweep deadline, and respawn dead local sessions between
        runs."""
        tick = max(0.25, min(1.0, self.hb_timeout / 4))
        while True:
            await asyncio.sleep(tick)
            if self.fleet is not None:
                self.fleet.poll()
            now = time.monotonic()
            run = self._run
            allowance = run.state.policy.allowance() if run is not None else None
            for remote in list(self._workers.values()):
                if now - remote.last_msg > self.hb_timeout:
                    await self._lose_worker(
                        remote,
                        f"no frame for {self.hb_timeout:.0f}s (heartbeat timeout)",
                    )
                elif allowance is not None and any(
                    lease.run is run and now - lease.progress > allowance
                    for lease in remote.leases.values()
                ):
                    await self._lose_worker(
                        remote, f"lease silent for {allowance:.0f}s", kind="timeout"
                    )
            if run is not None:
                self._settle(run)

    # -- run lifecycle (loop thread) -----------------------------------------

    async def _begin(self, run: _Run) -> None:
        self._run = run
        run.state.report.record(
            run.state.now(),
            "dist_begin",
            address=self.address,
            queued=len(run.pending),
            workers=len(self._workers),
        )
        if run.state.deadline is not None:
            # Fire at the deadline itself, not on the next monitor tick.
            run.timer = self._loop.call_later(
                max(0.0, run.state.deadline - time.monotonic()),
                self._settle, run,
            )
        self._settle(run)
        parked, self._parked = self._parked, {}
        for remote, msg in parked.values():
            if self._workers.get(remote.worker_id) is not remote:
                continue  # lost while an earlier grant was being sent
            try:
                await self._grant(remote, msg)
            except Exception as exc:  # its connection died while parked
                await self._lose_worker(remote, f"{type(exc).__name__}: {exc}")

    def _settle(self, run: _Run) -> None:
        """Apply the sweep deadline, then close the run if it is done."""
        self._enforce_deadline(run)
        self._maybe_finish(run)

    async def _abort(self, run: _Run) -> None:
        run.pending.clear()
        self._end_run(run)

    def _end_run(self, run: _Run) -> None:
        if run.timer is not None:
            run.timer.cancel()
        if self._run is run:
            self._run = None
        run.done.set()

    def _maybe_finish(self, run: _Run) -> None:
        """Close the run once every point has an outcome; leases still
        open (their ``lease_done`` not in yet) end here."""
        if run.done.is_set() or len(run.state.outcomes) < len(run.state.points):
            return
        for remote in self._workers.values():
            for lease in list(remote.leases.values()):
                if lease.run is run:
                    self._end_lease(remote, lease)
        run.state.report.record(run.state.now(), "dist_end")
        self._end_run(run)

    def _end_lease(self, remote: _Remote, lease: _Lease) -> None:
        remote.leases.pop(lease.lease_id, None)
        lease.run.state.report.record(
            lease.run.state.now(), "chunk_end", slot=remote.slot,
            chunk=lease.lease_id,
        )

    def _enforce_deadline(self, run: _Run) -> None:
        """Past the sweep deadline, fail everything still open fast —
        queued points and unreported leased points alike. A session
        still running one is SIGKILLed, so its supervisor respawns it
        free for the next run (local), or has its late outcomes ignored
        (remote)."""
        if run.done.is_set() or not run.state.deadline_expired():
            return
        for qp in run.pending:
            run.state.point_deadline(qp.index, qp.point)
        run.pending.clear()
        for remote in list(self._workers.values()):
            for lease in list(remote.leases.values()):
                if lease.run is not run:
                    continue
                unreported = lease.unreported()
                for index, point in unreported:
                    run.state.point_deadline(index, point)
                if unreported and self.fleet is not None:
                    self.fleet.kill(remote.caps.get("pid"))

    def _requeue(self, run: _Run, pairs, delay: float = 0.0) -> None:
        now = run.state.now()
        for index, point in pairs:
            if index in run.state.outcomes:
                continue
            run.pending.append(_QueuedPoint(index, point, now + delay))

    # -- client protocol -----------------------------------------------------

    async def _client(self, reader, writer) -> None:
        remote: Optional[_Remote] = None
        try:
            msg, _ = await asyncio.wait_for(read_frame(reader), timeout=30)
            if msg.get("t") != "hello":
                await write_frame(writer, {"t": "reject", "error": "expected hello"})
                return
            if msg.get("schema") != DIST_SCHEMA:
                await write_frame(
                    writer,
                    {
                        "t": "reject",
                        "error": f"protocol schema mismatch: coordinator "
                        f"{DIST_SCHEMA}, worker {msg.get('schema')}",
                    },
                )
                return
            self._next_client += 1
            worker_id = f"{msg.get('worker') or 'worker'}#{self._next_client}"
            slots = {other.slot for other in self._workers.values()}
            remote = _Remote(
                worker_id=worker_id,
                slot=min(set(range(len(slots) + 1)) - slots),
                writer=writer,
                wlock=asyncio.Lock(),
                last_msg=time.monotonic(),
                caps=dict(msg.get("caps") or {}),
                # Counted on an earlier connection: later frames fold
                # only their growth past this.
                cache=dict(msg.get("cache") or {}),
            )
            self._workers[worker_id] = remote
            self._counters["workers_total"] += 1
            run = self._run
            if run is not None:
                run.state.report.record(
                    run.state.now(), "worker_join", worker=worker_id,
                    slot=remote.slot,
                )
            await self._send(remote, {"t": "welcome", "schema": DIST_SCHEMA})
            while not remote.closed:
                msg, _blob = await read_frame(reader)
                remote.last_msg = time.monotonic()
                self._absorb(remote, msg)
                t = msg.get("t")
                if t == "lease":
                    await self._grant(remote, msg)
                elif t == "ok":
                    self._handle_ok(remote, msg)
                elif t == "err":
                    self._handle_err(remote, msg)
                elif t == "lease_done":
                    self._handle_lease_done(remote, msg)
                elif t == "fetch_manifest":
                    await self._serve_manifest(remote, msg)
                elif t == "fetch_shard":
                    await self._serve_shard(remote, msg)
                elif t == "fetch_plan":
                    await self._serve_plan(remote, msg)
                elif t == "bye":
                    await self._lose_worker(remote, "clean shutdown", clean=True)
                    remote = None
                    return
                elif t != "hb":  # a heartbeat only carries counters
                    raise ProtocolError(f"unknown message type {t!r}")
        except (ConnectionClosed, ProtocolError, ConnectionError, OSError) as exc:
            if remote is not None:
                await self._lose_worker(remote, f"{type(exc).__name__}: {exc}")
                remote = None
        except asyncio.TimeoutError:
            pass
        except asyncio.CancelledError:
            # Only loop teardown cancels handler tasks (coordinator
            # stop); exit quietly — re-raising makes asyncio.streams'
            # done-callback log a spurious "Exception in callback".
            pass
        except Exception as exc:  # never let one client kill the loop
            if remote is not None:
                await self._lose_worker(remote, f"handler error: {exc}")
                remote = None
        finally:
            if remote is None:
                try:
                    writer.close()
                except Exception:
                    pass

    def _absorb(self, remote: _Remote, msg: Dict) -> None:
        """Take the counters a frame carries: the session's own, and its
        disk cache's, whose growth is folded into this process's cache
        so hit/miss totals read as if every point ran here."""
        if msg.get("counters"):
            remote.counters = dict(msg["counters"])
        cache = msg.get("cache")
        if not cache:
            return
        disk = get_disk_cache()
        if disk is not None:
            disk.merge_counters(
                {k: int(v) - remote.cache.get(k, 0) for k, v in cache.items()}
            )
        remote.cache = dict(cache)

    async def _send(self, remote: _Remote, msg: Dict, blob: bytes = b"") -> None:
        async with remote.wlock:
            await write_frame(remote.writer, msg, blob)

    def _close_remote(self, remote: _Remote) -> None:
        remote.closed = True
        try:
            remote.writer.close()
        except Exception:
            pass

    async def _lose_worker(
        self, remote: _Remote, reason: str, clean: bool = False,
        kind: str = "worker-crash",
    ) -> None:
        """Unregister *remote* and reassign its leased points.

        A crash, partition or (*kind* ``timeout``) silent lease blames
        the first unreported point of each lease (the one that was
        executing) and requeues the rest blame-free; a timed-out local
        session is SIGKILLed so its supervisor respawns it. A clean
        ``bye`` or retirement requeues everything blame-free.
        """
        if self._workers.get(remote.worker_id) is not remote:
            return  # already reaped (monitor/EOF race)
        del self._workers[remote.worker_id]
        self._parked.pop(remote.worker_id, None)
        if not clean:
            self._counters["workers_lost"] += 1
        for key, value in remote.counters.items():
            self._departed[key] = self._departed.get(key, 0) + int(value)
        run = self._run
        if run is not None:
            run.state.report.record(
                run.state.now(),
                "worker_lost" if not clean else "worker_bye",
                worker=remote.worker_id,
                slot=remote.slot,
                reason=reason,
            )
        if kind == "timeout" and self.fleet is not None:
            self.fleet.kill(remote.caps.get("pid"))
        for lease in list(remote.leases.values()):
            lrun = lease.run
            if lrun is not self._run or lrun.done.is_set():
                remote.leases.pop(lease.lease_id, None)
                continue
            self._end_lease(remote, lease)
            state = lrun.state
            unreported = lease.unreported()
            if not unreported:
                continue
            if state.deadline_expired():
                for index, point in unreported:
                    state.point_deadline(index, point)
                continue
            if clean:
                self._requeue(lrun, unreported)
                continue
            delay = state.point_failed(
                *unreported[0],
                kind,
                f"worker {remote.worker_id} lost mid-point ({reason})",
                event="timeout_kill" if kind == "timeout" else "worker_crash",
                worker=remote.worker_id,
                slot=remote.slot,
                chunk=lease.lease_id,
            )
            if delay is not None:
                self._requeue(lrun, unreported[:1], delay)
            self._requeue(lrun, unreported[1:])
        self._close_remote(remote)
        if run is not None:
            self._maybe_finish(run)

    # -- dispatch ------------------------------------------------------------

    async def _idle(self, remote: _Remote, retry_ms: int) -> None:
        """Grant nothing; the session asks again after *retry_ms*."""
        await self._send(remote, {"t": "grant", "lease": None, "retry_ms": retry_ms})

    async def _grant(self, remote: _Remote, msg: Dict) -> None:
        run = self._run
        if run is not None:
            self._settle(run)
        if run is None or run.done.is_set():
            self._parked[remote.worker_id] = (remote, msg)
            return
        state = run.state
        if run.recycle and remote.dispatched >= run.recycle:
            # Retire between leases; the session's supervisor respawns
            # it.
            state.report.record(
                state.now(), "worker_retire", worker=remote.worker_id,
                slot=remote.slot, dispatched=remote.dispatched,
            )
            await self._send(remote, {"t": "retire"})
            await self._lose_worker(remote, "retired", clean=True)
            return
        now = state.now()
        # Lazily prune queue copies of points that already resolved (a
        # duplicate outcome can finish a point while a requeued copy of
        # it waits out a backoff delay).
        run.pending = [
            qp for qp in run.pending if qp.index not in state.outcomes
        ]
        eligible = [
            (qp.index, qp.point) for qp in run.pending if qp.not_before <= now
        ]
        if eligible:
            resident = {w.group for w in self._workers.values()}
            # A local fleet is sized up front: size the first leases for
            # all of its sessions, not just the ones connected so far.
            sessions = max(len(self._workers), self.fleet.jobs if self.fleet else 0)
            take = pick_lease(
                eligible, sessions, (remote.group,), resident, run.batch
            )[: int(msg.get("max") or 0) or None]
            taken = {index for index, _ in take}
            run.pending = [qp for qp in run.pending if qp.index not in taken]
        else:
            take = await self._steal(run, remote)
        if not take:
            retry_ms = IDLE_RETRY_MS
            waiting = [qp.not_before for qp in run.pending]
            if waiting:
                retry_ms = max(
                    10, int((min(waiting) - state.now()) * 1000) + 10
                )
            await self._idle(remote, min(retry_ms, 1000))
            return
        self._next_lease += 1
        lease = _Lease(self._next_lease, run, take, time.monotonic())
        remote.leases[lease.lease_id] = lease
        remote.group = trace_group(take[0][1])
        remote.dispatched += len(take)
        self._counters["leases"] += 1
        self._counters["points_leased"] += len(take)
        state.report.record(
            state.now(),
            "chunk_start",
            worker=remote.worker_id,
            slot=remote.slot,
            chunk=lease.lease_id,
            points=len(take),
        )
        await self._send(
            remote,
            {
                "t": "grant",
                "lease": lease.lease_id,
                "points": [
                    {"index": index, "point": point_to_wire(point)}
                    for index, point in take
                ],
                "corpus": self._corpus_map(take),
            },
        )

    async def _steal(self, run: _Run, thief: _Remote) -> List[Pair]:
        """Revoke the tail half of the fattest lease's unstarted points.

        The first unreported point of a lease is (potentially) executing
        and is never stolen; only points the victim has not reached yet
        move. The victim learns via a ``revoke`` push and skips them.
        """
        best: Optional[Tuple[_Remote, _Lease, List[Pair]]] = None
        for remote in self._workers.values():
            if remote is thief or remote.closed:
                continue
            for lease in remote.leases.values():
                if lease.run is not run:
                    continue
                # Drop the head: that point may be executing right now.
                unstarted = lease.unreported()[1:]
                if not unstarted:
                    continue
                if best is None or len(unstarted) > len(best[2]):
                    best = (remote, lease, unstarted)
        if best is None:
            return []
        victim, lease, unstarted = best
        stolen = unstarted[len(unstarted) // 2:]
        if not stolen:
            return []
        stolen_ix = {index for index, _ in stolen}
        lease.pairs = [
            pair for pair in lease.pairs if pair[0] not in stolen_ix
        ]
        self._counters["steals"] += 1
        self._counters["points_stolen"] += len(stolen)
        run.state.report.record(
            run.state.now(),
            "steal",
            thief=thief.worker_id,
            victim=victim.worker_id,
            lease=lease.lease_id,
            points=len(stolen),
        )
        try:
            await self._send(
                victim,
                {
                    "t": "revoke",
                    "lease": lease.lease_id,
                    "indices": sorted(stolen_ix),
                },
            )
        except Exception:
            # Victim's pipe just died; the EOF/heartbeat path will reap
            # it. The stolen points are already ours to grant.
            pass
        return stolen

    def _corpus_map(self, pairs) -> Dict[str, str]:
        """{entry: content_hash} for the corpus workloads of a lease, so
        the worker can validate (or fetch) its local copies up front."""
        from ..core.exec.engine import CORPUS_PREFIX
        from ..corpus.resolve import get_store, split_corpus_workload

        out: Dict[str, str] = {}
        for _index, point in pairs:
            if not point.workload.startswith(CORPUS_PREFIX):
                continue
            entry, _spec = split_corpus_workload(point.workload)
            if entry in out:
                continue
            try:
                out[entry] = get_store().get(entry).content_hash
            except Exception:
                continue  # worker will fail the point with a clear error
        return out

    # -- outcome handling ----------------------------------------------------

    def _outcome(self, remote: _Remote, msg: Dict):
        """The ``(lease, index, point)`` an outcome frame resolves, or
        ``None`` for a late, stolen or duplicate outcome."""
        lease = remote.leases.get(msg.get("lease"))
        if lease is None or lease.run is not self._run:
            self._counters["outcomes_duplicate"] += 1
            return None
        index = int(msg["index"])
        lease.reported.add(index)
        lease.progress = time.monotonic()
        point = next((p for i, p in lease.pairs if i == index), None)
        if point is None or index in lease.run.state.outcomes:
            self._counters["outcomes_duplicate"] += 1
            return None
        return lease, index, point

    def _handle_ok(self, remote: _Remote, msg: Dict) -> None:
        found = self._outcome(remote, msg)
        if found is None:
            return
        lease, index, point = found
        run = lease.run
        state = run.state
        result = result_from_wire(msg["result"])
        disk = get_disk_cache()
        if disk is not None and self.fleet is None:
            # Persist like a locally executed point: --resume and the
            # service result cache must not care where a point ran.
            # (Local sessions already wrote to this very cache.)
            key = point_key(point)
            disk.store_result(key, result)
            if msg.get("obs") is not None:
                disk.store_obs(key, msg["obs"])
        state.point_succeeded(index, point, result, float(msg.get("seconds", 0.0)))
        self._counters["outcomes_ok"] += 1
        state.report.record(
            state.now(),
            "point_ok",
            index=index,
            worker=remote.worker_id,
            slot=remote.slot,
            attempt=state.attempts[index],
        )
        self._maybe_finish(run)

    def _handle_err(self, remote: _Remote, msg: Dict) -> None:
        found = self._outcome(remote, msg)
        if found is None:
            return
        lease, index, point = found
        run = lease.run
        state = run.state
        self._counters["outcomes_err"] += 1
        kind = str(msg.get("kind", "exception"))
        delay = state.point_failed(
            index,
            point,
            kind,
            str(msg.get("message", "")),
            str(msg.get("traceback", "")),
            worker=remote.worker_id,
            slot=remote.slot,
            error=kind,
        )
        if delay is not None:
            self._requeue(run, [(index, point)], delay)
        self._maybe_finish(run)

    def _handle_lease_done(self, remote: _Remote, msg: Dict) -> None:
        lease = remote.leases.get(msg.get("lease"))
        if lease is None or lease.run is not self._run:
            remote.leases.pop(msg.get("lease"), None)
            return
        self._end_lease(remote, lease)
        run = lease.run
        state = run.state
        dropped = lease.unreported()
        if dropped and not state.deadline_expired():
            # The worker finished its lease without reporting these
            # points (lost outcome frames): requeue blame-free.
            self._counters["outcomes_dropped"] += len(dropped)
            state.report.record(
                state.now(),
                "outcome_dropped",
                worker=remote.worker_id,
                lease=lease.lease_id,
                points=len(dropped),
            )
            self._requeue(run, dropped)
        elif dropped:
            for index, point in dropped:
                state.point_deadline(index, point)
        self._maybe_finish(run)

    # -- content fetch service ----------------------------------------------

    async def _serve_manifest(self, remote: _Remote, msg: Dict) -> None:
        from ..corpus.resolve import get_store
        from ..corpus.store import CorpusError

        entry = str(msg.get("entry", ""))
        self._counters["fetch_manifests"] += 1
        try:
            manifest = get_store().get(entry)
        except CorpusError as exc:
            await self._send(
                remote,
                {"t": "manifest", "entry": entry, "found": False,
                 "error": str(exc)},
            )
            return
        await self._send(
            remote,
            {"t": "manifest", "entry": entry, "found": True,
             "manifest": manifest.to_json()},
        )

    def _build_shard_index(self) -> None:
        from ..corpus.resolve import get_store

        store = get_store()
        index: Dict[str, object] = {}
        try:
            for manifest in store.manifests():
                shard_dir = store.shard_dir_path(manifest)
                for shard in manifest.shards:
                    index[shard.sha256] = shard_dir / shard.file
        except Exception:
            pass
        self._shard_index = index

    async def _serve_shard(self, remote: _Remote, msg: Dict) -> None:
        sha = str(msg.get("sha256", ""))
        self._counters["fetch_shards"] += 1
        path = self._shard_index.get(sha)
        if path is None:
            self._build_shard_index()
            path = self._shard_index.get(sha)
        blob = b""
        found = False
        if path is not None:
            try:
                blob = await asyncio.get_running_loop().run_in_executor(
                    None, path.read_bytes
                )
                found = hashlib.sha256(blob).hexdigest() == sha
            except OSError:
                found = False
        if not found:
            await self._send(
                remote, {"t": "blob", "sha256": sha, "found": False}
            )
            return
        self._counters["shard_bytes_tx"] += len(blob)
        await self._send(
            remote, {"t": "blob", "sha256": sha, "found": True}, blob
        )

    async def _serve_plan(self, remote: _Remote, msg: Dict) -> None:
        key = str(msg.get("key", ""))
        self._counters["fetch_plans"] += 1
        disk = get_disk_cache()
        blob = b""
        if disk is not None:
            path = disk.plan_path(key)
            try:
                blob = await asyncio.get_running_loop().run_in_executor(
                    None, path.read_bytes
                )
            except OSError:
                blob = b""
        if not blob:
            await self._send(remote, {"t": "plan", "key": key, "found": False})
            return
        self._counters["plan_bytes_tx"] += len(blob)
        await self._send(
            remote,
            {"t": "plan", "key": key, "found": True,
             "sha256": hashlib.sha256(blob).hexdigest()},
            blob,
        )


# -- process-wide registry -------------------------------------------------

_coordinators: Dict[Tuple[str, int], Coordinator] = {}
_registry_lock = threading.Lock()


def get_coordinator(url: str, hb_timeout: float = DEFAULT_HB_TIMEOUT) -> Coordinator:
    """The process-wide coordinator listening at *url*, started on demand.

    ``dist://host:port`` (or ``tcp://`` / bare ``host:port``); port ``0``
    binds an ephemeral port, re-registered under the actual port so the
    same URL keeps resolving to the same instance.
    """
    host, port = parse_dist_url(url)
    with _registry_lock:
        coord = _coordinators.get((host, port))
        if coord is not None:
            return coord
        coord = Coordinator(host, port, hb_timeout=hb_timeout)
        coord.start()
        _coordinators[(host, coord.port)] = coord
        if port != coord.port:  # ephemeral bind: alias the asked-for key
            _coordinators[(host, port)] = coord
        return coord


def shutdown_coordinators() -> None:
    """Stop every registry-held coordinator (test isolation)."""
    with _registry_lock:
        seen = set()
        for coord in _coordinators.values():
            if id(coord) in seen:
                continue
            seen.add(id(coord))
            coord.stop()
        _coordinators.clear()


def run_dist(state, dispatch, batch: Optional[int] = None, recycle: int = 0):
    """Engine entry point: drain *state* through *dispatch*, a
    :class:`Coordinator` or the URL of a registry-held one."""
    coord = (
        dispatch if isinstance(dispatch, Coordinator) else get_coordinator(dispatch)
    )
    return coord.execute(state, batch=batch, recycle=recycle)


def local_coordinator(jobs: int) -> Coordinator:
    """A private loopback coordinator that owns *jobs* forked sessions
    sharing this process's disk cache; its ``stop()`` reaps them."""
    from .worker import Supervisor

    disk = get_disk_cache()
    coord = Coordinator().start()
    coord.fleet = Supervisor(
        coord.address,
        jobs,
        "local",
        cache_root=str(disk.root) if disk is not None else None,
        cache_enabled=disk is not None,
        cache_shard=disk.shard if disk is not None else None,
    )
    try:
        coord.fleet.start()
    except BaseException:
        coord.stop()
        raise
    return coord


def run_local(state, jobs: int, batch: Optional[int] = None, recycle: int = 0):
    """Engine entry point for ``jobs > 1``: drain *state* through a
    :func:`local_coordinator` of up to *jobs* sessions, stopped and
    reaped before this returns."""
    coord = local_coordinator(min(jobs, len(state.pairs)))
    try:
        return coord.execute(state, batch=batch, recycle=recycle)
    finally:
        coord.stop()
