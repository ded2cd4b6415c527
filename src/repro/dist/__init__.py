"""Sweep scheduling: coordinator, sessions, shard transfer.

Every parallel sweep runs here, local (``run_points(jobs=N)`` forks N
sessions against a private loopback coordinator, and ``repro-sim serve``
keeps one such coordinator and its sessions for life) or distributed
(``repro-sim worker`` fleets over TCP). The coordinator owns the point
queue and the engine's ``_SweepState`` journal / retry machinery;
sessions lease batches of points and stream outcomes back; a dead,
partitioned or hung session's lease is reassigned with its executing
point blamed and its lease-mates re-dispatched blame-free.  See
``docs/distributed.md``.
"""

from .protocol import (  # noqa: F401
    DIST_SCHEMA,
    ConnectionClosed,
    ProtocolError,
    config_from_wire,
    config_to_wire,
    parse_dist_url,
    point_from_wire,
    point_to_wire,
    read_frame,
    recv_frame,
    result_from_wire,
    result_to_wire,
    send_frame,
    write_frame,
)
from .coordinator import (  # noqa: F401
    Coordinator,
    get_coordinator,
    local_coordinator,
    run_dist,
    shutdown_coordinators,
)
from .worker import WorkerSession, run_worker  # noqa: F401
