"""repro.service: a fault-tolerant routing daemon.

The service turns the repo's experiment runner into a long-running
system: a persistent daemon that accepts nets as JSON-lines frames
(stdin/stdout first, localhost TCP socket second), routes them with any
of the registered algorithms, and streams structured results back —
engineered robustness-first:

* :mod:`repro.service.protocol` — versioned JSON-lines framing where
  every malformed frame becomes a typed ``protocol`` error response,
  never a traceback;
* :mod:`repro.service.admission` — a bounded admission queue with
  load-shedding (structured ``overload`` rejections, never an unbounded
  backlog) and a draining state for graceful shutdown;
* :mod:`repro.service.session` — per-request execution: deadline
  enforcement via the runtime pool's ``trial_deadline``, retry/backoff
  for transient faults, the ngspice→transient→analytic degradation
  ladder with provenance on every response, and config-fingerprinted
  warm-result caching;
* :mod:`repro.service.daemon` — the service loop: request coalescing,
  SIGTERM-triggered graceful drain, serial or worker-pool execution;
* :mod:`repro.service.wal` — the write-ahead request log: every
  admitted frame is durably journaled before execution and terminally
  recorded after delivery, so ``repro serve --recover`` replays exactly
  the admitted-but-unanswered set after a crash;
* :mod:`repro.service.supervisor` — the crash/hang watchdog parent of
  ``repro serve --supervised``: heartbeat monitoring, seeded-backoff
  restarts, and a crash-loop budget that gives up with exit 3;
* :mod:`repro.service.breaker` — per-engine circuit breakers over the
  degradation ladder, so a dead engine stops costing every request its
  retry budget;
* :mod:`repro.service.faults` — a deterministic service-level fault
  harness (worker kills, malformed frames, deadline storms, slow
  clients, daemon SIGKILLs) used to prove every failure surfaces as a
  typed error and every admitted request is answered exactly once.

See ``docs/service.md`` for the protocol, lifecycle, recovery model,
and failure-mode table.
"""

from repro.service.admission import (
    AdmissionQueue,
    AdmissionStats,
    ServiceDraining,
    ServiceOverload,
)
from repro.service.breaker import (
    BreakerBoard,
    BreakerPolicy,
)
from repro.service.daemon import (
    RoutingDaemon,
    ServiceConfig,
    ServiceStats,
)
from repro.service.faults import ServiceFaultPlan, build_fault_stream
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    encode_frame,
    error_response,
    ok_response,
    parse_frame,
)
from repro.service.session import (
    ALGORITHMS,
    SessionConfig,
    multinet_eligible,
    request_fingerprint,
    route_fleet_outcomes,
    wire_frame,
)
from repro.service.supervisor import (
    EXIT_GIVE_UP,
    Supervisor,
    SupervisorPolicy,
)
from repro.service.wal import (
    PendingEntry,
    RequestWAL,
    WalReplay,
    load_pending,
)

__all__ = [
    "ALGORITHMS",
    "AdmissionQueue",
    "AdmissionStats",
    "BreakerBoard",
    "BreakerPolicy",
    "EXIT_GIVE_UP",
    "PROTOCOL_VERSION",
    "PendingEntry",
    "ProtocolError",
    "Request",
    "RequestWAL",
    "RoutingDaemon",
    "ServiceConfig",
    "ServiceDraining",
    "ServiceFaultPlan",
    "ServiceOverload",
    "ServiceStats",
    "SessionConfig",
    "Supervisor",
    "SupervisorPolicy",
    "WalReplay",
    "build_fault_stream",
    "encode_frame",
    "error_response",
    "load_pending",
    "multinet_eligible",
    "ok_response",
    "parse_frame",
    "request_fingerprint",
    "route_fleet_outcomes",
    "wire_frame",
]
