"""The routing daemon: serve loops, coalescing, drain, both front ends."""

from __future__ import annotations

import io
import json
import socket
import threading
import time

import pytest

from repro.service import RoutingDaemon, ServiceConfig, SessionConfig

NET = {"source": [0, 0], "sinks": [[400, 300], [700, 100]]}


def frame(i="r1", net=NET, **overrides):
    data = {"op": "route", "id": i, "algorithm": "ldrg", "net": net}
    data.update(overrides)
    return json.dumps(data)


def serve_lines(lines, config=None):
    """Run one stdio session to EOF; responses keyed by id."""
    daemon = RoutingDaemon(config)
    out = io.StringIO()
    rc = daemon.serve(io.StringIO("\n".join(lines) + "\n"), out)
    assert rc == 0
    responses = [json.loads(line) for line in out.getvalue().splitlines()]
    return daemon, responses


def by_id(responses):
    return {r["id"]: r for r in responses}


class TestStdioServe:
    def test_route_ok(self):
        _, responses = serve_lines([frame()])
        (response,) = responses
        assert response["status"] == "ok"
        assert response["result"]["delay"] > 0
        assert response["cached"] is False

    def test_ping_and_stats(self):
        _, responses = serve_lines(['{"op": "ping", "id": "p"}',
                                    '{"op": "stats", "id": "s"}'])
        answers = by_id(responses)
        assert answers["p"]["version"] == 1
        assert answers["p"]["draining"] is False
        assert "admission" in answers["s"] and "cache" in answers["s"]

    def test_malformed_line_gets_protocol_error(self):
        _, responses = serve_lines(["{broken", frame(i="ok1")])
        answers = by_id(responses)
        assert answers[None]["error"]["kind"] == "protocol"
        assert answers["ok1"]["status"] == "ok"

    def test_unknown_algorithm_rejected_at_admission(self):
        _, responses = serve_lines([frame(algorithm="warp")])
        (response,) = responses
        assert response["error"]["kind"] == "protocol"
        assert "unknown algorithm" in response["error"]["message"]

    def test_inject_rejected_unless_enabled(self):
        _, responses = serve_lines([frame(inject="raise")])
        (response,) = responses
        assert response["error"]["kind"] == "protocol"
        assert "fault injection" in response["error"]["message"]

    def test_blank_lines_ignored(self):
        daemon = RoutingDaemon()
        out = io.StringIO()
        daemon.serve(io.StringIO("\n\n" + frame() + "\n\n"), out)
        assert len(out.getvalue().splitlines()) == 1


class TestCoalescingAndCache:
    def test_identical_requests_coalesce(self):
        daemon, responses = serve_lines([frame(i="a"), frame(i="b")])
        answers = by_id(responses)
        assert answers["a"]["status"] == answers["b"]["status"] == "ok"
        assert answers["a"]["result"] == answers["b"]["result"]
        # exactly one of the two actually routed
        assert daemon.stats.coalesced + daemon.stats.cache_hits == 1

    def test_sequential_repeat_hits_warm_cache(self, tmp_path):
        config = ServiceConfig(cache_dir=tmp_path)
        daemon, _ = serve_lines([frame(i="a")], config)
        daemon2, responses = serve_lines([frame(i="b")], config)
        (response,) = responses
        assert response["cached"] is True
        assert daemon2.stats.cache_hits == 1

    def test_different_nets_do_not_coalesce(self):
        other = {"source": [0, 0], "sinks": [[5, 5]]}
        daemon, responses = serve_lines([frame(i="a"),
                                         frame(i="b", net=other)])
        answers = by_id(responses)
        assert answers["a"]["fingerprint"] != answers["b"]["fingerprint"]
        assert daemon.stats.coalesced == 0


class TestOverload:
    def test_flood_sheds_with_structured_errors(self):
        config = ServiceConfig(queue_capacity=1)
        lines = [frame(i=f"q{i}",
                       net={"source": [0, 0],
                            "sinks": [[10 + i, 20 + 2 * i]]})
                 for i in range(12)]
        daemon, responses = serve_lines(lines, config)
        assert len(responses) == 12
        kinds = [r["error"]["kind"] for r in responses
                 if r["status"] == "error"]
        assert kinds and set(kinds) == {"overload"}
        assert daemon.queue.stats.shed == len(kinds)


class DrainOnFirstWrite(io.StringIO):
    """An output stream that asks its daemon to drain on the first reply."""

    def __init__(self, daemon):
        super().__init__()
        self.daemon = daemon

    def write(self, text):
        first = not self.getvalue()
        written = super().write(text)
        if first:
            self.daemon.request_drain()
        return written


class TestDrain:
    def test_request_drain_fails_backlog_as_drained(self):
        config = ServiceConfig(drain_grace=0.0,
                               queue_capacity=16)
        daemon = RoutingDaemon(config)
        lines = [frame(i=f"d{i}",
                       net={"source": [0, 0], "sinks": [[7 + i, 9 + i]]})
                 for i in range(6)]
        # drain on the first reply, whatever routing costs: the backlog
        # behind it can't finish in 0s grace
        out = DrainOnFirstWrite(daemon)
        rc = daemon.serve(io.StringIO("\n".join(lines) + "\n"), out)
        assert rc == 0
        responses = [json.loads(line)
                     for line in out.getvalue().splitlines()]
        assert len(responses) == 6
        statuses = {r["status"] for r in responses}
        for r in responses:
            if r["status"] == "error":
                assert r["error"]["kind"] in ("drained", "draining")
        # with zero grace at least the tail must have been abandoned
        assert "error" in statuses

    def test_offers_after_drain_are_rejected_as_draining(self):
        daemon = RoutingDaemon()
        daemon.request_drain()
        replies = []
        daemon.handle_line(frame(), replies.append)
        (response,) = replies
        assert response["error"]["kind"] == "draining"


class TestPoolMode:
    def test_routes_and_real_worker_kill(self):
        config = ServiceConfig(
            session=SessionConfig(enable_fault_injection=True),
            workers=2)
        lines = [frame(i="k", inject="kill-worker"), frame(i="ok")]
        daemon, responses = serve_lines(lines, config)
        answers = by_id(responses)
        assert answers["ok"]["status"] == "ok"
        assert answers["k"]["error"]["kind"] == "crash"
        assert daemon.stats.worker_crashes == 1

    def test_reply_reports_route_time(self):
        _, responses = serve_lines([frame()], ServiceConfig(workers=1))
        (response,) = responses
        assert response["status"] == "ok"
        assert response["elapsed"] > 0

    def test_drain_grace_serves_backlog(self):
        daemon = RoutingDaemon(ServiceConfig(workers=1, drain_grace=60.0))
        replies = []

        def reply(response):
            replies.append(response)
            if len(replies) == 1:
                daemon.request_drain()

        # The whole backlog is queued before the executor starts, and
        # the drain lands with the first reply.
        for i in range(4):
            daemon.handle_line(
                frame(i=f"g{i}",
                      net={"source": [0, 0], "sinks": [[7 + i, 9 + i]]}),
                reply)
        assert daemon.serve(io.StringIO(""), io.StringIO()) == 0
        assert sorted(r["id"] for r in replies) == ["g0", "g1", "g2", "g3"]
        assert all(r["status"] == "ok" for r in replies), replies

    def test_drain_fails_stragglers_as_drained(self):
        config = ServiceConfig(
            session=SessionConfig(enable_fault_injection=True),
            workers=2, drain_grace=0.5)
        daemon = RoutingDaemon(config)
        replies = []

        def reply(response):
            replies.append(response)
            if len(replies) == 1:
                daemon.request_drain()

        # The hung request is still in flight when the quick one's
        # reply requests the drain; the grace cannot save it.
        daemon.handle_line(frame(i="hang", inject="hang", deadline=120.0),
                           reply)
        daemon.handle_line(frame(i="quick"), reply)
        assert daemon.serve(io.StringIO(""), io.StringIO()) == 0
        answers = by_id(replies)
        assert answers["quick"]["status"] == "ok"
        assert answers["hang"]["error"]["kind"] == "drained"


class TestSocketServe:
    def test_round_trip_and_drain(self):
        daemon = RoutingDaemon()
        address = {}
        ready = threading.Event()

        def on_ready(host, port):
            address["hp"] = (host, port)
            ready.set()

        server = threading.Thread(
            target=daemon.serve_socket,
            kwargs={"port": 0, "ready": on_ready}, daemon=True)
        server.start()
        assert ready.wait(timeout=10.0)
        with socket.create_connection(address["hp"], timeout=10.0) as conn:
            stream = conn.makefile("rw", encoding="utf-8", newline="\n")
            stream.write(frame(i="s1") + "\n")
            stream.write('{"op": "ping", "id": "p1"}\n')
            stream.flush()
            answers = {}
            while len(answers) < 2:
                response = json.loads(stream.readline())
                answers[response["id"]] = response
        assert answers["s1"]["status"] == "ok"
        assert answers["p1"]["status"] == "ok"
        daemon.request_drain()
        server.join(timeout=15.0)
        assert not server.is_alive()
