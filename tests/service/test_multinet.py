"""The daemon's --multinet batch path: eligibility, batching, fallback."""

from __future__ import annotations

import io
import json

import pytest

from repro.runtime import ChaosPolicy
from repro.runtime.trial import TrialResult
from repro.service import (
    Request,
    RoutingDaemon,
    ServiceConfig,
    SessionConfig,
    multinet_eligible,
    parse_frame,
    request_fingerprint,
    route_fleet_outcomes,
)
from repro.service.session import route_outcome


def route_request(i=0, algorithm="ldrg", seed=0, **overrides):
    import random
    rng = random.Random(seed)
    pts = [[rng.uniform(0, 1000), rng.uniform(0, 1000)] for _ in range(6)]
    frame = {"op": "route", "id": f"r{i}", "algorithm": algorithm,
             "net": {"name": f"n{i}", "source": pts[0], "sinks": pts[1:]}}
    frame.update(overrides)
    return parse_frame(json.dumps(frame))


def serve_frames(requests, workers=0, **session_overrides):
    session = SessionConfig(multinet=True, **session_overrides)
    daemon = RoutingDaemon(ServiceConfig(session=session, workers=workers))
    lines = "".join(json.dumps({"op": "route", "id": r.id,
                                "algorithm": r.algorithm,
                                "net": {"name": r.net.name,
                                        "source": [r.net.source.x,
                                                   r.net.source.y],
                                        "sinks": [[s.x, s.y]
                                                  for s in r.net.sinks]}})
                    + "\n" for r in requests)
    out = io.StringIO()
    daemon.serve(io.StringIO(lines), out)
    return {r["id"]: r
            for r in map(json.loads, out.getvalue().splitlines())}


class TestEligibility:
    def test_greedy_algorithms_eligible(self):
        config = SessionConfig(multinet=True)
        assert multinet_eligible(route_request(), config)
        assert multinet_eligible(route_request(algorithm="sldrg"), config)

    def test_requires_multinet_flag(self):
        assert not multinet_eligible(route_request(), SessionConfig())

    def test_non_greedy_algorithms_ineligible(self):
        config = SessionConfig(multinet=True)
        for algorithm in ("h1", "h2", "h3", "ert", "sert"):
            assert not multinet_eligible(
                route_request(algorithm=algorithm), config)

    def test_chaos_forces_per_net_path(self):
        config = SessionConfig(multinet=True,
                               chaos=ChaosPolicy(seed=1, raise_rate=0.5))
        assert not multinet_eligible(route_request(), config)

    def test_inject_forces_per_net_path(self):
        config = SessionConfig(multinet=True, enable_fault_injection=True)
        assert not multinet_eligible(route_request(inject="raise"), config)


class TestFingerprint:
    def test_multinet_changes_the_fingerprint(self):
        request = route_request()
        plain = request_fingerprint(request, SessionConfig())
        batched = request_fingerprint(request,
                                      SessionConfig(multinet=True))
        assert plain != batched


class TestRouteFleetOutcomes:
    def test_batch_of_mixed_algorithms(self):
        config = SessionConfig(multinet=True)
        requests = [route_request(0, "ldrg", seed=0),
                    route_request(1, "sldrg", seed=1),
                    route_request(2, "ldrg", seed=2)]
        outcomes = route_fleet_outcomes(requests, config, budget=30.0)
        assert len(outcomes) == 3
        for request, outcome in zip(requests, outcomes):
            assert isinstance(outcome, TrialResult)
            assert outcome.algorithm == request.algorithm
            assert outcome.model == "elmore"

    def test_fleet_of_one_matches_batch_member(self):
        config = SessionConfig(multinet=True)
        request = route_request(0, seed=5)
        alone = route_fleet_outcomes([request], config, budget=30.0)[0]
        batch = route_fleet_outcomes(
            [route_request(1, seed=6), request, route_request(2, seed=7)],
            config, budget=30.0)[1]
        assert isinstance(alone, TrialResult)
        assert isinstance(batch, TrialResult)
        assert alone.delay == batch.delay
        assert alone.cost == batch.cost

    def test_ineligible_request_on_per_net_path_records_fallback(self):
        config = SessionConfig(multinet=True)
        outcome = route_outcome(route_request(0, "h1"), config, budget=30.0)
        assert isinstance(outcome, TrialResult)
        assert any(e.kind == "fallback" and e.target == "per-net"
                   for e in outcome.provenance)

    def test_eligible_request_has_no_fallback_event(self):
        config = SessionConfig(multinet=True)
        outcomes = route_fleet_outcomes([route_request(0)], config,
                                        budget=30.0)
        assert not any(e.kind == "fallback"
                       for e in outcomes[0].provenance)


class TestDaemonBatchPath:
    def test_serial_and_pooled_agree_bitwise(self):
        # Fleet requests, and h1 requests on the per-net SPICE path.
        fleet = [route_request(i, seed=i) for i in range(4)]
        spice = [route_request(i, "h1", seed=i) for i in range(4, 6)]
        serial = serve_frames(fleet + spice, workers=0)
        pooled = serve_frames(fleet + spice, workers=2)
        for request in fleet:
            s, p = serial[request.id], pooled[request.id]
            assert s["status"] == p["status"] == "ok"
            assert s["engine"] == p["engine"] == "elmore"
            assert s["result"]["delay"] == p["result"]["delay"]
            assert s["result"]["cost"] == p["result"]["cost"]
        for request in spice:
            s, p = serial[request.id], pooled[request.id]
            assert s["status"] == p["status"] == "ok"
            assert s["engine"] == p["engine"] != "elmore"
            assert s["result"] == p["result"]

    def test_ineligible_request_served_on_spice_path(self):
        responses = serve_frames([route_request(0, "h1")], workers=0)
        response = responses["r0"]
        assert response["status"] == "ok"
        assert response["engine"] != "elmore"
        assert any(e["kind"] == "fallback"
                   for e in response["provenance"])


class TestDrainMidBatch:
    def test_drain_arriving_mid_batch_loses_nothing(self, monkeypatch):
        # SIGTERM lands while a stacked fleet batch is executing: the
        # members already in route_fleet_outcomes must finish and be
        # answered; anything still queued drains; no id goes dark
        import repro.service.daemon as daemon_module
        real = daemon_module.route_fleet_outcomes
        drained_via: list[RoutingDaemon] = []

        def drain_then_route(requests, config, budget):
            if drained_via:
                drained_via[0].request_drain()
            return real(requests, config, budget)

        monkeypatch.setattr(daemon_module, "route_fleet_outcomes",
                            drain_then_route)

        requests = [route_request(i, seed=i) for i in range(6)]
        session = SessionConfig(multinet=True)
        daemon = RoutingDaemon(ServiceConfig(session=session, workers=1))
        drained_via.append(daemon)
        lines = "".join(json.dumps({"op": "route", "id": r.id,
                                    "algorithm": r.algorithm,
                                    "net": {"name": r.net.name,
                                            "source": [r.net.source.x,
                                                       r.net.source.y],
                                            "sinks": [[s.x, s.y]
                                                      for s in
                                                      r.net.sinks]}})
                        + "\n" for r in requests)
        out = io.StringIO()
        daemon.serve(io.StringIO(lines), out)
        responses = {r["id"]: r
                     for r in map(json.loads,
                                  out.getvalue().splitlines())}
        assert set(responses) == {r.id for r in requests}
        executed = [r for r in responses.values() if r["status"] == "ok"]
        drained = [r for r in responses.values() if r["status"] == "error"]
        assert executed, "the in-flight batch must finish its work"
        assert all(r["error"]["kind"] == "draining" for r in drained)
