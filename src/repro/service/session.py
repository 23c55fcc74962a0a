"""Per-request routing sessions: deadlines, retries, degradation, caching.

One ``route`` request becomes one *session*: the request's net is routed
under a wall-clock deadline (the runtime pool's ``trial_deadline``),
with transient oracle faults retried via :mod:`repro.runtime.retry` and
engine failures degraded down the ngspice→transient→analytic ladder —
every retry and every degradation landing as provenance on the
response, so a client can never receive a degraded number without being
told.

Sessions are keyed by a *config fingerprint* digesting everything that
determines the answer (net geometry, algorithm, oracle segmentation,
engine ladder, technology, chaos policy). The fingerprint drives two
layers of warmth: the journal-backed
:class:`~repro.runtime.journal.ResultCache` (identical requests are
served without routing at all) and, beneath it, the PR-3 delay memo
(structurally identical graphs share oracle evaluations when the
configured oracle is pure).

:func:`route_outcome` is the one per-request route entry: the daemon
calls it in-process, or ships it (module-level, hence picklable, with
the request itself) to an isolated pool worker where a kill or hang
costs one request, never the daemon.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.core import (
    RoutingResult,
    csorg_ldrg,
    ert,
    ert_ldrg,
    h1,
    h2,
    h3,
    ldrg,
    sert,
    sldrg,
)
from repro.delay.models import DelayModel, SpiceDelayModel
from repro.delay.parameters import Technology
from repro.delay.spice_delay import SpiceOptions
from repro.geometry.net import Net
from repro.guard.incidents import KIND_FALLBACK, record_event
from repro.runtime import provenance
from repro.runtime.provenance import KIND_DEGRADE
from repro.runtime.chaos import ChaosDelayModel, ChaosPolicy
from repro.runtime.journal import ResultCache, fingerprint
from repro.runtime.pool import in_pool_worker, trial_deadline
from repro.runtime.resilience import ResilientDelayModel, build_engine_ladder
from repro.runtime.retry import RetryPolicy
from repro.runtime.trial import (
    FAILURE_CRASH,
    TrialFailure,
    TrialOutcome,
    TrialResult,
)
from repro.service.protocol import (
    ERROR_CRASH,
    ERROR_DRAINED,
    ERROR_EXCEPTION,
    ERROR_TIMEOUT,
    ProtocolError,
    Request,
    error_response,
    ok_response,
)

#: The service's routing algorithms (the paper's nine).
ALGORITHMS: dict[str, Callable[[Net, Technology, DelayModel],
                               RoutingResult]] = {
    "ldrg": lambda net, tech, model: ldrg(net, tech, delay_model=model),
    "sldrg": lambda net, tech, model: sldrg(net, tech, delay_model=model),
    "h1": lambda net, tech, model: h1(net, tech, delay_model=model),
    "h2": lambda net, tech, model: h2(net, tech, evaluation_model=model),
    "h3": lambda net, tech, model: h3(net, tech, evaluation_model=model),
    "ert": lambda net, tech, model: ert(net, tech, evaluation_model=model),
    "ert-ldrg": lambda net, tech, model: ert_ldrg(net, tech,
                                                  delay_model=model),
    "sert": lambda net, tech, model: sert(net, tech,
                                          evaluation_model=model),
    "csorg": lambda net, tech, model: csorg_ldrg(net, tech,
                                                 delay_model=model),
}

#: TrialFailure kind → wire error kind (identical taxonomy by design).
_FAILURE_TO_ERROR = {
    "exception": ERROR_EXCEPTION,
    "timeout": ERROR_TIMEOUT,
    "crash": ERROR_CRASH,
    "drained": ERROR_DRAINED,
}

#: Fault-injection directives a request may carry (gated by config).
INJECT_KILL = "kill-worker"
INJECT_DIRECTIVES = (INJECT_KILL, "raise", "hang", "nan")


@dataclass(frozen=True)
class SessionConfig:
    """Everything a session needs to execute one request — picklable.

    Attributes:
        tech: interconnect technology of every routed net.
        segments: default pi-sections per wire in the delay oracle
            (requests may override per-frame).
        engines: oracle ladder in decreasing fidelity order; a single
            in-process engine with no chaos runs *unwrapped* (pure, so
            the PR-3 delay memo applies), anything else runs behind the
            retry + degradation ladder.
        retry: backoff policy for transient oracle faults.
        chaos: deterministic fault injection on the engine of record
            (``None`` disables).
        default_deadline: per-request budget (seconds) when the frame
            names none.
        max_deadline: hard ceiling a frame's ``deadline`` is clamped to.
        enable_fault_injection: honor per-request ``inject`` directives
            (tests and the smoke harness only — never production).
        multinet: answer eligible greedy requests (ldrg/sldrg, no fault
            directives) with the fleet-scale graph-Elmore backend
            (:mod:`repro.delay.multinet`), batching queued requests into
            stacked evaluations. This *changes the oracle* for those
            requests — from the SPICE ladder to graph-Elmore — so the
            flag is part of every request fingerprint; ineligible
            requests take the ordinary per-net path with a recorded
            :data:`~repro.guard.incidents.KIND_FALLBACK` event.
    """

    tech: Technology = field(default_factory=Technology.cmos08)
    segments: int = 1
    engines: tuple[str, ...] = ("transient", "analytic")
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    chaos: ChaosPolicy | None = None
    default_deadline: float = 30.0
    max_deadline: float = 300.0
    enable_fault_injection: bool = False
    multinet: bool = False

    def __post_init__(self) -> None:
        if self.segments < 1:
            raise ValueError("segments must be >= 1")
        if not self.engines:
            raise ValueError("need at least one oracle engine")
        if self.default_deadline <= 0 or self.max_deadline <= 0:
            raise ValueError("deadlines must be positive")

    def deadline_for(self, request: Request) -> float:
        """The request's effective budget: frame value clamped to the cap."""
        wanted = (request.deadline if request.deadline is not None
                  else self.default_deadline)
        return min(wanted, self.max_deadline)

    def fingerprint_data(self) -> dict[str, Any]:
        """The config components of every request fingerprint."""
        return {
            "segments": self.segments,
            "engines": list(self.engines),
            "tech": dataclasses.asdict(self.tech),
            "chaos": (None if self.chaos is None
                      else self.chaos.to_json_dict()),
            "multinet": self.multinet,
        }


def request_fingerprint(request: Request, config: SessionConfig) -> str:
    """Stable digest of everything that determines a route response.

    Identical fingerprints get identical answers, so this is the
    coalescing key and the warm-cache key. Request ``id`` and
    ``deadline`` are deliberately excluded — they change delivery, not
    the answer.
    """
    net = request.net
    assert net is not None, "fingerprint is only defined for route requests"
    payload = dict(config.fingerprint_data())
    payload.update({
        "algorithm": request.algorithm,
        "net": {
            "source": [net.source.x, net.source.y],
            "sinks": [[s.x, s.y] for s in net.sinks],
        },
        "segments_override": request.segments,
        "inject": request.inject,
    })
    return fingerprint(payload)


def effective_engines(engines: Sequence[str],
                      skip_engines: frozenset[str]) -> tuple[str, ...]:
    """The ladder with breaker-opened rungs removed (never emptied).

    The last configured rung is the engine of last resort: even with
    its breaker open it stays reachable, because answering degraded
    beats not answering at all.
    """
    kept = tuple(e for e in engines if e not in skip_engines)
    return kept if kept else tuple(engines[-1:])


def build_model(config: SessionConfig, request: Request,
                skip_engines: frozenset[str] = frozenset()) -> DelayModel:
    """The request's delay oracle: plain, or the hardened ladder.

    A single in-process engine with no fault injection is returned
    unwrapped — it is pure, so the candidate evaluators memoize it and
    identical nets share oracle work across requests. Chaos, an
    ``inject`` directive, or a multi-rung ladder (including ngspice)
    switches to :class:`~repro.runtime.ResilientDelayModel`: bounded
    retries per rung, degradation with provenance between rungs.

    ``skip_engines`` names rungs whose circuit breaker is open
    (:mod:`repro.service.breaker`): each skipped rung is dropped from
    the ladder with a recorded ``degrade`` provenance event whose
    source carries the ``breaker:`` prefix — the response is therefore
    marked degraded and never cached, and the board does not mistake
    the skip for a fresh engine failure.
    """
    engines = config.engines
    if skip_engines:
        kept = effective_engines(engines, skip_engines)
        for engine in engines:
            if engine not in kept:
                record_event(
                    KIND_DEGRADE, source=f"breaker:{engine}",
                    target=kept[0],
                    detail="circuit breaker open; rung skipped without "
                           "spending its retry budget")
        engines = kept
    segments = (request.segments if request.segments is not None
                else config.segments)
    opts = SpiceOptions(segments=segments)
    chaos = _effective_chaos(config, request)
    if (len(engines) == 1 and engines[0] != "ngspice"
            and chaos is None):
        base = SpiceOptions(segments=segments, engine=engines[0])
        model: DelayModel = SpiceDelayModel(config.tech, base)
        model.name = f"spice-{engines[0]}"
        return model
    ladder = build_engine_ladder(config.tech, opts, engines)
    if chaos is not None:
        net = request.net
        salt = net.name if net is not None else ""
        ladder[0] = ChaosDelayModel(ladder[0], chaos, salt=salt)
    return ResilientDelayModel(ladder, retry=config.retry)


def _effective_chaos(config: SessionConfig,
                     request: Request) -> ChaosPolicy | None:
    """The chaos policy in force: config-wide, or a per-request directive."""
    if config.enable_fault_injection:
        seed = config.chaos.seed if config.chaos is not None else 0
        if request.inject == "raise":
            return ChaosPolicy(seed=seed, raise_rate=1.0)
        if request.inject == "hang":
            return ChaosPolicy(seed=seed, hang_rate=1.0)
        if request.inject == "nan":
            return ChaosPolicy(seed=seed, nan_rate=1.0)
    return config.chaos


def route_outcome(request: Request, config: SessionConfig,
                  budget: float | None,
                  skip_engines: frozenset[str] = frozenset()
                  ) -> TrialOutcome:
    """Route one net under a deadline, returning a structured outcome.

    The one per-request route entry, in the daemon process and in pool
    workers alike: it times the route and collects its provenance.
    Nothing escapes — any exception, timeout included, lands as a
    :class:`~repro.runtime.trial.TrialFailure`. The deadline arms
    ``SIGALRM``, so it applies on a main thread (the CLI daemon's, or a
    worker's). ``skip_engines`` names the ladder rungs whose circuit
    breaker is open.
    """
    if (config.enable_fault_injection and request.inject == INJECT_KILL):
        if in_pool_worker():
            # The fault the harness wants to prove survivable: the
            # daemon observes a crash outcome and replaces the worker.
            os._exit(42)
        # In-process execution cannot survive a genuine kill (it would
        # take the daemon down); report the crash a pool would observe.
        return TrialFailure(
            kind=FAILURE_CRASH, error_type="WorkerCrash",
            message="injected worker kill (serial mode: simulated crash)")
    start = time.perf_counter()
    try:
        with provenance.collecting() as events:
            with trial_deadline(budget):
                result = _route(request, config, skip_engines)
        return TrialResult.from_routing(
            result, provenance=tuple(events),
            elapsed=time.perf_counter() - start)
    except Exception as exc:
        return TrialFailure.from_exception(
            exc, elapsed=time.perf_counter() - start)


#: Algorithms with a fleet-batched graph-Elmore form (greedy edge
#: addition — the only methods with a generation loop to stack).
MULTINET_ALGORITHMS: tuple[str, ...] = ("ldrg", "sldrg")


def multinet_eligible(request: Request, config: SessionConfig) -> bool:
    """Whether a ``--multinet`` daemon may batch this request.

    Only the greedy edge-addition algorithms have a stacked form, and
    the fleet path is the pure in-process graph-Elmore oracle — chaos
    and fault-injection directives have no SPICE seam to act on there,
    so their presence forces the ordinary per-net path.
    """
    return (config.multinet
            and request.net is not None
            and request.algorithm in MULTINET_ALGORITHMS
            and request.inject is None
            and config.chaos is None)


def route_fleet_outcomes(requests: Sequence[Request], config: SessionConfig,
                         budget: float | None) -> list[TrialOutcome]:
    """Route a batch of eligible requests as one stacked fleet.

    The daemon's ``--multinet`` batch path: the queued requests' greedy
    generations are scored by stacked linear-algebra calls
    (:func:`repro.delay.multinet.route_fleet`), grouped per algorithm.
    Provenance is batch-scoped by construction — stacked execution is
    shared state (a factorization fallback genuinely affects every
    member), so each response carries the batch's full event list. A
    fleet-level failure falls back to routing each member alone through
    the same backend, with a recorded
    :data:`~repro.guard.incidents.KIND_FALLBACK` event, so one poisoned
    net cannot fail its batch-mates.
    """
    start = time.perf_counter()
    try:
        with provenance.collecting() as events:
            with trial_deadline(budget):
                results = _route_fleet(requests, config)
        elapsed = time.perf_counter() - start
        shared = tuple(events)
        return [TrialResult.from_routing(result, provenance=shared,
                                         elapsed=elapsed)
                for result in results]
    except Exception:
        return [_route_fleet_member(request, config, budget)
                for request in requests]


def _route_fleet_member(request: Request, config: SessionConfig,
                        budget: float | None) -> TrialOutcome:
    """Fleet-of-one salvage path after a batched fleet failed."""
    start = time.perf_counter()
    try:
        with provenance.collecting() as events:
            record_event(
                KIND_FALLBACK, source="service-multinet",
                target="fleet-of-one",
                detail="batched fleet raised; this member re-routed alone "
                       "on the same graph-Elmore backend")
            with trial_deadline(budget):
                result = _route_fleet([request], config)[0]
        return TrialResult.from_routing(
            result, provenance=tuple(events),
            elapsed=time.perf_counter() - start)
    except Exception as exc:
        return TrialFailure.from_exception(
            exc, elapsed=time.perf_counter() - start)


def _route_fleet(requests: Sequence[Request],
                 config: SessionConfig) -> list[RoutingResult]:
    """Route eligible requests through the stacked backend, in order."""
    # Local imports: the delay layer's fleet module pulls in the full
    # linear-algebra stack, which a daemon not running --multinet never
    # needs.
    from repro.delay.multinet import route_fleet
    from repro.graph.steiner import iterated_one_steiner

    results: list[RoutingResult | None] = [None] * len(requests)
    by_algorithm: dict[str, list[int]] = {}
    for index, request in enumerate(requests):
        by_algorithm.setdefault(request.algorithm, []).append(index)
    for algorithm, indices in by_algorithm.items():
        nets: list[Net] = []
        for index in indices:
            net = requests[index].net
            assert net is not None, "fleet requests always carry a net"
            nets.append(net)
        # LDRG starts from the MST (route_fleet builds it); SLDRG starts
        # from the iterated-one-Steiner tree, as its sequential driver
        # does.
        starts: list[Any] = (
            [iterated_one_steiner(net) for net in nets]
            if algorithm == "sldrg" else list(nets))
        routed = route_fleet(starts, config.tech, algorithm=algorithm)
        for index, result in zip(indices, routed):
            results[index] = result
    return [result for result in results if result is not None]


def wire_frame(request: Request) -> dict[str, Any]:
    """The request's full wire form, re-parseable by ``parse_frame``.

    This is what the write-ahead log journals: a recovering daemon
    re-parses it through the same validation path as live traffic, so
    a WAL entry can never smuggle in a frame the protocol would have
    rejected.
    """
    net = request.net
    assert net is not None, "only route requests are journaled"
    frame: dict[str, Any] = {
        "op": "route", "id": request.id, "algorithm": request.algorithm,
        "net": {"name": net.name,
                "source": [net.source.x, net.source.y],
                "sinks": [[s.x, s.y] for s in net.sinks]},
    }
    if request.deadline is not None:
        frame["deadline"] = request.deadline
    if request.segments is not None:
        frame["segments"] = request.segments
    if request.inject is not None:
        frame["inject"] = request.inject
    return frame


def _route(request: Request, config: SessionConfig,
           skip_engines: frozenset[str] = frozenset()) -> RoutingResult:
    net = request.net
    if net is None:
        raise ProtocolError("route request carries no net")
    try:
        algorithm = ALGORITHMS[request.algorithm]
    except KeyError:
        raise ProtocolError(
            f"unknown algorithm {request.algorithm!r}; expected one of "
            f"{', '.join(sorted(ALGORITHMS))}",
            frame_id=request.id) from None
    if config.multinet and not multinet_eligible(request, config):
        # A --multinet daemon answering on the per-net SPICE path is a
        # degradation of its batching promise; say so on the response.
        record_event(
            KIND_FALLBACK, source=f"service:{request.algorithm}",
            target="per-net",
            detail="request not fleet-eligible (algorithm, chaos, or "
                   "inject directive); served on the per-net path")
    model = build_model(config, request, skip_engines)
    return algorithm(net, config.tech, model)


def outcome_to_response(request: Request, fp: str, outcome: TrialOutcome,
                        cache: ResultCache | None = None,
                        coalesced: bool = False) -> dict[str, Any]:
    """Project a trial outcome onto the wire, filling the warm cache.

    Only clean (non-degraded) successes are cached: a degraded number is
    correct *for that moment's* engine availability and must not be
    replayed after the engine of record recovers.
    """
    if isinstance(outcome, TrialResult):
        body = {
            "fingerprint": fp,
            "cached": False,
            "coalesced": coalesced,
            "degraded": outcome.degraded,
            "engine": outcome.model,
            "elapsed": outcome.elapsed,
            "result": {
                "algorithm": outcome.algorithm,
                "delay": outcome.delay,
                "cost": outcome.cost,
                "base_delay": outcome.base_delay,
                "base_cost": outcome.base_cost,
                "delay_ratio": outcome.delay_ratio,
                "cost_ratio": outcome.cost_ratio,
                "improved": outcome.improved,
                "num_added_edges": outcome.num_added_edges,
            },
            "provenance": [e.to_json_dict() for e in outcome.provenance],
        }
        if cache is not None and not outcome.degraded:
            cacheable = dict(body)
            cacheable.pop("coalesced")
            try:
                cache.store(fp, cacheable)
            except OSError:  # repro: allow=contracts-broad-catch-swallow — a full disk must degrade the cache, not fail the request that already computed successfully
                pass
        return ok_response(request.id, "route", body)
    kind = _FAILURE_TO_ERROR.get(outcome.kind, ERROR_EXCEPTION)
    return error_response(
        request.id, kind, outcome.error_type, outcome.message,
        extra={"fingerprint": fp, "coalesced": coalesced,
               "elapsed": outcome.elapsed,
               "provenance": [e.to_json_dict()
                              for e in outcome.provenance]})
