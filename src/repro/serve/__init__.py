"""``repro.serve`` — the evaluation service (PR 6, distributed in PR 9).

A long-running daemon that turns the repo's evaluation machinery into a
shared, deduplicating appliance: clients submit systems/configurations
(or whole sweeps and conformance campaigns) over HTTP or a unix socket;
the service normalizes every request to its content address, coalesces
duplicates, batches compatible work onto a warm worker fleet, and
persists everything in one sharded :class:`repro.store.ResultStore`.

The fleet is supervised and failure-tolerant: local forked workers
and/or remote HTTP workers (``repro worker --connect URL``), per-unit
leases with heartbeats, bounded retries on a different worker, hedged
re-dispatch of stragglers, a crash-safe pending-unit journal, and
inline degradation when no worker is available — with results
bit-identical to a failure-free run under any kill/slow/partition
schedule.

Layering: :mod:`.protocol` (addressing), :mod:`.workers` (transports),
:mod:`.supervisor` (liveness + delivery), :mod:`.service` (the engine),
:mod:`.server` (HTTP shell), :mod:`.client` (client + report adapters).
"""

from .client import (
    ServeClient,
    ServerError,
    run_sweep_via_server,
)
from .protocol import (
    PROTOCOL_FORMAT,
    WORKER_PROTOCOL,
    evaluation_key,
    system_fingerprint,
)
from .server import UnixHTTPServer, make_server, serve
from .service import EvaluationService, Job, ServiceOverloaded
from .supervisor import Supervisor, SupervisorConfig, UnitJournal
from .workers import LocalFleet, run_unit, run_worker

__all__ = [
    "EvaluationService",
    "Job",
    "LocalFleet",
    "PROTOCOL_FORMAT",
    "ServeClient",
    "ServerError",
    "ServiceOverloaded",
    "Supervisor",
    "SupervisorConfig",
    "UnitJournal",
    "UnixHTTPServer",
    "WORKER_PROTOCOL",
    "evaluation_key",
    "make_server",
    "run_sweep_via_server",
    "run_unit",
    "run_worker",
    "serve",
    "system_fingerprint",
]
