"""Session execution: fingerprints, oracles, deadlines, warm caching."""

from __future__ import annotations

import io
import json

import pytest

from repro.delay.models import SpiceDelayModel
from repro.runtime import ChaosPolicy, ResilientDelayModel, ResultCache
from repro.runtime.trial import TrialFailure, TrialResult
from repro.service import Request, RoutingDaemon, ServiceConfig, parse_frame
from repro.service.session import (
    ALGORITHMS,
    SessionConfig,
    build_model,
    outcome_to_response,
    request_fingerprint,
    route_outcome,
    wire_frame,
)


def route_request(**overrides):
    frame = {"op": "route", "id": "r1",
             "net": {"source": [0, 0], "sinks": [[400, 300], [700, 100]]}}
    frame.update(overrides)
    return parse_frame(json.dumps(frame))


class TestFingerprint:
    def test_id_and_deadline_excluded(self):
        config = SessionConfig()
        base = request_fingerprint(route_request(), config)
        assert request_fingerprint(
            route_request(id="other", deadline=1.0), config) == base

    def test_answer_determinants_included(self):
        config = SessionConfig()
        base = request_fingerprint(route_request(), config)
        assert request_fingerprint(
            route_request(algorithm="h1"), config) != base
        assert request_fingerprint(
            route_request(segments=4), config) != base
        assert request_fingerprint(route_request(
            net={"source": [0, 0], "sinks": [[400, 301], [700, 100]]}),
            config) != base

    def test_config_included(self):
        request = route_request()
        base = request_fingerprint(request, SessionConfig())
        assert request_fingerprint(
            request, SessionConfig(segments=2)) != base
        assert request_fingerprint(
            request, SessionConfig(engines=("analytic",))) != base


class TestBuildModel:
    def test_single_pure_engine_is_unwrapped(self):
        model = build_model(SessionConfig(engines=("transient",)),
                            route_request())
        assert isinstance(model, SpiceDelayModel)
        assert model.cacheable  # PR-3 delay memo stays applicable

    def test_multi_engine_ladder_is_resilient(self):
        model = build_model(SessionConfig(), route_request())
        assert isinstance(model, ResilientDelayModel)

    def test_chaos_forces_ladder(self):
        config = SessionConfig(engines=("transient",),
                               chaos=ChaosPolicy(seed=1, raise_rate=0.5))
        model = build_model(config, route_request())
        assert isinstance(model, ResilientDelayModel)
        assert "chaos" in model.ladder[0].name

    def test_request_segments_override(self):
        model = build_model(SessionConfig(engines=("transient",)),
                            route_request(segments=5))
        assert model.options.segments == 5


class TestDeadlines:
    def test_default_and_clamp(self):
        config = SessionConfig(default_deadline=10.0, max_deadline=20.0)
        assert config.deadline_for(route_request()) == 10.0
        assert config.deadline_for(route_request(deadline=5.0)) == 5.0
        assert config.deadline_for(route_request(deadline=500.0)) == 20.0


class TestRouteOutcome:
    def test_success_has_provenance_fields(self):
        outcome = route_outcome(route_request(), SessionConfig(), 30.0)
        assert isinstance(outcome, TrialResult)
        assert outcome.delay > 0
        assert not outcome.degraded

    def test_every_algorithm_routes(self):
        config = SessionConfig(engines=("analytic",))
        for name in ALGORITHMS:
            outcome = route_outcome(route_request(algorithm=name),
                                    config, 60.0)
            assert isinstance(outcome, TrialResult), (name, outcome)

    def test_injected_chaos_degrades_with_provenance(self):
        config = SessionConfig(enable_fault_injection=True)
        outcome = route_outcome(route_request(inject="raise"),
                                config, 60.0)
        assert isinstance(outcome, TrialResult)
        assert outcome.degraded
        assert any(e.kind == "degrade" for e in outcome.provenance)

    def test_kill_directive_is_simulated_crash_in_serial(self):
        config = SessionConfig(enable_fault_injection=True)
        outcome = route_outcome(route_request(inject="kill-worker"),
                                config, 60.0)
        assert isinstance(outcome, TrialFailure)
        assert outcome.kind == "crash"

    def test_inject_ignored_without_enablement(self):
        outcome = route_outcome(route_request(inject="kill-worker"),
                                SessionConfig(), 60.0)
        assert isinstance(outcome, TrialResult)


def serve_one(request, config, cache):
    """Serve one request through a daemon whose warm cache is ``cache``."""
    daemon = RoutingDaemon(ServiceConfig(session=config))
    daemon.cache = cache
    out = io.StringIO()
    daemon.serve(io.StringIO(json.dumps(wire_frame(request)) + "\n"), out)
    (response,) = map(json.loads, out.getvalue().splitlines())
    return response


def routed_response(request, config, budget=30.0):
    """route_outcome projected onto the wire, as the daemon settles it."""
    outcome = route_outcome(request, config, budget)
    return outcome_to_response(
        request, request_fingerprint(request, config), outcome)


class TestExecuteRequest:
    def test_ok_frame_shape(self):
        response = routed_response(route_request(), SessionConfig())
        assert response["status"] == "ok"
        assert response["cached"] is False
        assert response["result"]["delay"] > 0
        assert "fingerprint" in response

    def test_cache_fill_and_hit(self):
        cache = ResultCache()
        config = SessionConfig()
        first = serve_one(route_request(), config, cache)
        second = serve_one(route_request(id="r2"), config, cache)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["id"] == "r2"
        assert second["result"] == first["result"]

    def test_degraded_results_not_cached(self):
        cache = ResultCache()
        config = SessionConfig(enable_fault_injection=True)
        first = serve_one(route_request(inject="raise"), config, cache)
        assert first["status"] == "ok" and first["degraded"]
        assert len(cache) == 0
        second = serve_one(route_request(id="r2", inject="raise"), config,
                           cache)
        assert second["cached"] is False

    def test_expired_budget_is_timeout_error(self):
        response = routed_response(route_request(), SessionConfig(),
                                   budget=1e-6)
        assert response["status"] == "error"
        assert response["error"]["kind"] == "timeout"

    def test_unknown_algorithm_is_structured(self):
        request = Request(op="route", id="r1",
                          net=route_request().net, algorithm="bogus")
        response = routed_response(request, SessionConfig())
        assert response["status"] == "error"
        assert "unknown algorithm" in response["error"]["message"]
