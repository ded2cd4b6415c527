"""Deterministic fault injection for sweep resilience testing.

Enabled via the ``REPRO_FAULT_SPEC`` environment variable, this module
makes *selected* sweep points misbehave on their first N attempts —
raise, hang, die with SIGKILL, or corrupt their cached artifact — so
tests and the CI chaos-smoke job can prove that retries converge to
bit-identical results. With the variable unset (the production default)
:func:`maybe_fault` is a single dict lookup and the engine hot path is
untouched.

Spec grammar (entries separated by ``;``, first matching rule wins)::

    REPRO_FAULT_SPEC = entry[;entry...]
    entry            = kind ':' selector [':' attempts]
    kind             = raise | hang | kill | corrupt      (process faults)
                     | drop | delay | disconnect          (network faults,
                                                           dist workers only)
    selector         = '*'                 every point
                     | 'mod<k>=<r>'        stable_hash(point) % k == r
                     | <substring>         of "<config label>|<workload>|..."
    attempts         = how many initial attempts fault (default 1)

Examples::

    raise:db_oltp:2        db_oltp points raise on their first 2 attempts
    kill:mod5=0            ~20% of points SIGKILL their worker once
    hang:*:1               every point hangs once (parent timeout kills it)

Attempt counting must survive worker deaths, so it lives on disk: each
execution attempt of a matching point claims a sentinel file (atomic
``O_CREAT|O_EXCL``) under ``REPRO_FAULT_DIR`` (default: a per-spec
directory under the system temp dir). Faults therefore trigger on
exactly the first N attempts regardless of which process runs the point.

Fault kinds ``hang`` and ``kill`` need a parent to recover from them,
which every point run in a session has: ``jobs >= 2``, a
``repro-sim worker`` fleet, and every point ``repro-sim serve``
executes. In a serial sweep a ``kill`` takes down the whole process
(exactly like a real SIGKILL would) and a ``hang`` sleeps out
``REPRO_FAULT_HANG_S`` (default 3600 s) before raising.
"""

from __future__ import annotations

import hashlib
import os
import signal
import tempfile
import time
from dataclasses import dataclass
from typing import Optional, Tuple

#: Fault plan: which points fail, how, and for how many attempts.
ENV_FAULT_SPEC = "REPRO_FAULT_SPEC"
#: Cross-process attempt-count state directory.
ENV_FAULT_DIR = "REPRO_FAULT_DIR"
#: Seconds a ``hang`` fault sleeps before giving up and raising.
ENV_FAULT_HANG = "REPRO_FAULT_HANG_S"
#: Daemon-level chaos: SIGKILL the *service process itself* (not a
#: worker) once, immediately after its Nth durable journal append —
#: i.e. between appends, with the Nth record already fsynced. A one-shot
#: sentinel under ``REPRO_FAULT_DIR`` makes the restarted daemon immune,
#: so the CI chaos rig can prove crash recovery deterministically.
ENV_FAULT_DAEMON = "REPRO_FAULT_DAEMON_AFTER"

FAULT_KINDS = ("raise", "hang", "kill", "corrupt")

#: Network fault kinds, consumed by the *dist* worker loop
#: (:mod:`repro.dist.worker`) via :func:`maybe_net_fault` — they share
#: the spec grammar and the on-disk attempt counting with the process
#: kinds above, but :func:`maybe_fault` ignores them (a network fault
#: only makes sense where there is a network):
#:
#: * ``drop`` — execute the point but never send its outcome frame; the
#:   coordinator requeues it blame-free at lease end.
#: * ``delay`` — hold the outcome frame for ``REPRO_FAULT_DELAY_S``
#:   seconds before sending (late-result tolerance).
#: * ``disconnect`` — abruptly close the coordinator connection before
#:   executing; the coordinator blames the in-flight point like a
#:   crashed worker and the worker reconnects fresh.
NET_FAULT_KINDS = ("drop", "delay", "disconnect")

#: Seconds a ``delay`` network fault holds an outcome frame.
ENV_FAULT_DELAY = "REPRO_FAULT_DELAY_S"


class InjectedFault(RuntimeError):
    """Raised by ``raise``/``hang`` faults (classified ``exception``)."""


class InjectedCacheCorruption(InjectedFault):
    """Raised by ``corrupt`` faults (classified ``cache-corrupt``)."""


class FaultSpecError(ValueError):
    """Raised for malformed ``REPRO_FAULT_SPEC`` strings."""


def point_id(point) -> str:
    """Stable human-readable identity string of a sweep point."""
    return (
        f"{point.config.label}|{point.workload}"
        f"|L{point.length}|W{point.warmup}|S{point.seed}"
    )


def stable_hash(text: str) -> int:
    """Process-independent hash used by ``mod<k>=<r>`` selectors."""
    return int(hashlib.sha1(text.encode("utf-8")).hexdigest()[:8], 16)


@dataclass(frozen=True)
class FaultRule:
    """One parsed spec entry."""

    kind: str
    selector: str
    attempts: int = 1

    def matches(self, pid: str) -> bool:
        if self.selector == "*":
            return True
        if self.selector.startswith("mod") and "=" in self.selector:
            try:
                k_text, r_text = self.selector[3:].split("=", 1)
                k, r = int(k_text), int(r_text)
            except ValueError:
                return False
            return k > 0 and stable_hash(pid) % k == r
        return self.selector in pid


@dataclass(frozen=True)
class FaultPlan:
    """A parsed ``REPRO_FAULT_SPEC`` plus its attempt-state directory."""

    rules: Tuple[FaultRule, ...]
    state_dir: str

    @classmethod
    def parse(cls, spec: str, state_dir: Optional[str] = None) -> "FaultPlan":
        rules = []
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            parts = entry.split(":")
            if len(parts) < 2 or len(parts) > 3:
                raise FaultSpecError(
                    f"malformed fault entry {entry!r} "
                    "(expected kind:selector[:attempts])"
                )
            kind, selector = parts[0].strip(), parts[1].strip()
            if kind not in FAULT_KINDS and kind not in NET_FAULT_KINDS:
                raise FaultSpecError(
                    f"unknown fault kind {kind!r} in {entry!r}; "
                    f"expected one of {FAULT_KINDS + NET_FAULT_KINDS}"
                )
            if not selector:
                raise FaultSpecError(f"empty selector in {entry!r}")
            attempts = 1
            if len(parts) == 3:
                try:
                    attempts = int(parts[2])
                except ValueError:
                    raise FaultSpecError(
                        f"bad attempt count {parts[2]!r} in {entry!r}"
                    ) from None
                if attempts < 1:
                    raise FaultSpecError(f"attempt count must be >= 1 in {entry!r}")
            rules.append(FaultRule(kind, selector, attempts))
        if not rules:
            raise FaultSpecError("fault spec contains no entries")
        if state_dir is None:
            tag = hashlib.sha1(spec.encode("utf-8")).hexdigest()[:12]
            state_dir = os.path.join(tempfile.gettempdir(), f"repro-faults-{tag}")
        return cls(rules=tuple(rules), state_dir=state_dir)


_plan_memo: dict = {}


def active_plan() -> Optional[FaultPlan]:
    """The plan named by the environment, or ``None`` when faults are off."""
    spec = os.environ.get(ENV_FAULT_SPEC, "").strip()
    if not spec:
        return None
    state_dir = os.environ.get(ENV_FAULT_DIR, "").strip() or None
    memo_key = (spec, state_dir)
    plan = _plan_memo.get(memo_key)
    if plan is None:
        plan = FaultPlan.parse(spec, state_dir)
        _plan_memo[memo_key] = plan
    return plan


def claim_attempt(plan: FaultPlan, pid: str, rule_index: int) -> int:
    """Atomically claim the next attempt ordinal (1-based) for *pid*.

    Sentinel files make the count shared across processes and immune to
    worker deaths: a killed worker's claim stays on disk, so the next
    attempt sees a higher ordinal and the fault eventually stops firing.
    """
    os.makedirs(plan.state_dir, exist_ok=True)
    tag = hashlib.sha1(pid.encode("utf-8")).hexdigest()[:20]
    attempt = 1
    while True:
        path = os.path.join(plan.state_dir, f"{tag}.r{rule_index}.a{attempt}")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            attempt += 1
            continue
        os.close(fd)
        return attempt


def maybe_fault(point) -> None:
    """Trigger the configured fault for *point*, if any.

    No-op (one environment lookup) when ``REPRO_FAULT_SPEC`` is unset.
    Called by the resilient execution paths immediately before the point
    is simulated.
    """
    plan = active_plan()
    if plan is None:
        return
    pid = point_id(point)
    for rule_index, rule in enumerate(plan.rules):
        if rule.kind in NET_FAULT_KINDS:
            # Network kinds belong to the dist worker loop; skipping
            # them here (without claiming an attempt) lets one spec mix
            # process and network chaos.
            continue
        if not rule.matches(pid):
            continue
        attempt = claim_attempt(plan, pid, rule_index)
        if attempt <= rule.attempts:
            _trigger(rule, point, pid, attempt)
        return  # first matching rule wins


def maybe_net_fault(point) -> Optional[str]:
    """The network fault kind to inject for *point*, or ``None``.

    The dist worker's lease loop calls this once per point; the first
    matching **network** rule wins, and attempts are claimed through the
    same on-disk sentinels as process faults — so an injected disconnect
    fires on exactly the first N attempts across reconnects and worker
    respawns. Process-kind rules are skipped without claiming attempts,
    mirroring :func:`maybe_fault`'s treatment of network kinds.
    """
    plan = active_plan()
    if plan is None:
        return None
    pid = point_id(point)
    for rule_index, rule in enumerate(plan.rules):
        if rule.kind not in NET_FAULT_KINDS:
            continue
        if not rule.matches(pid):
            continue
        attempt = claim_attempt(plan, pid, rule_index)
        if attempt <= rule.attempts:
            return rule.kind
        return None  # first matching net rule wins
    return None


def net_fault_delay() -> float:
    """Seconds a ``delay`` fault holds an outcome (``REPRO_FAULT_DELAY_S``)."""
    try:
        return float(os.environ.get(ENV_FAULT_DELAY, "2.0"))
    except ValueError:
        return 2.0


def _trigger(rule: FaultRule, point, pid: str, attempt: int) -> None:
    if rule.kind == "raise":
        raise InjectedFault(f"injected exception for {pid} (attempt {attempt})")
    if rule.kind == "corrupt":
        _corrupt_cached_result(point)
        raise InjectedCacheCorruption(
            f"injected cache corruption for {pid} (attempt {attempt})"
        )
    if rule.kind == "hang":
        time.sleep(float(os.environ.get(ENV_FAULT_HANG, "3600")))
        raise InjectedFault(f"injected hang elapsed for {pid} (attempt {attempt})")
    if rule.kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    raise AssertionError(f"unhandled fault kind {rule.kind!r}")  # pragma: no cover


def maybe_kill_daemon(appends: int) -> None:
    """SIGKILL this process after its *appends*-th journal append, once.

    No-op (one environment lookup) unless ``REPRO_FAULT_DAEMON_AFTER``
    is a positive integer. The kill fires at most once per fault-state
    directory: the first process to reach the threshold claims an
    ``O_CREAT|O_EXCL`` sentinel and dies; the restarted daemon finds the
    sentinel claimed and runs to completion. Called by the service job
    store (:mod:`repro.service.store`) right after each fsynced append.
    """
    spec = os.environ.get(ENV_FAULT_DAEMON, "").strip()
    if not spec:
        return
    try:
        threshold = int(spec)
    except ValueError:
        raise FaultSpecError(
            f"{ENV_FAULT_DAEMON} must be an integer, got {spec!r}"
        ) from None
    if threshold <= 0 or appends < threshold:
        return
    state_dir = os.environ.get(ENV_FAULT_DIR, "").strip() or os.path.join(
        tempfile.gettempdir(), "repro-faults-daemon"
    )
    os.makedirs(state_dir, exist_ok=True)
    sentinel = os.path.join(state_dir, "daemon.killed")
    try:
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return  # already fired once: the recovered daemon survives
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def _corrupt_cached_result(point) -> None:
    """Truncate the point's cached result (if present) to garbage, so the
    retry exercises the corruption-tolerant cache read path."""
    from repro.core.exec.engine import get_disk_cache, point_key

    disk = get_disk_cache()
    if disk is None:
        return
    path = disk.result_path(point_key(point))
    if path.exists():
        path.write_text("{corrupt")
