"""Tests for the fleet-scale batched evaluation backend."""

import numpy as np
import pytest

from repro.core.ldrg import ldrg
from repro.delay.elmore_tree import elmore_delays
from repro.delay.incremental import (
    DelayMemo,
    MemoizedDelayModel,
    NaiveCandidateEvaluator,
    get_candidate_evaluator,
    graph_fingerprint,
    memoize_model,
)
from repro.delay.models import ElmoreGraphModel, SpiceDelayModel
from repro.delay.multinet import (
    FleetEvaluator,
    _batched_spd_inverse,
    route_fleet,
)
from repro.delay.parameters import Technology
from repro.geometry.net import Net
from repro.geometry.point import Point
from repro.graph.mst import prim_mst
from repro.graph.routing_graph import RoutingGraph
from repro.guard.incidents import KIND_FALLBACK, KIND_QUARANTINE
from repro.guard.policy import GuardPolicy, guard_scope
from repro.runtime import provenance

TECH = Technology.cmos08()
RELATIVE_TOLERANCE = 1e-9


def cyclic_graph(num_pins=7, seed=11, extra_edges=2):
    graph = prim_mst(Net.random(num_pins, seed=seed))
    for edge in graph.candidate_edges()[:extra_edges]:
        graph.add_edge(*edge)
    return graph


def assert_scores_match(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=RELATIVE_TOLERANCE)


def fleet_scores(graph, candidates, weights=None):
    """One member's scores from a fleet-of-one generation."""
    return FleetEvaluator(TECH, weights=weights).evaluate_generation(
        [graph], [candidates])[1][0]


class TestFleetEvaluator:
    def test_single_net_matches_naive(self):
        graph = cyclic_graph()
        candidates = graph.candidate_edges()
        naive = NaiveCandidateEvaluator(ElmoreGraphModel(TECH))
        assert_scores_match(fleet_scores(graph, candidates),
                            naive.score_additions(graph, candidates))

    def test_generation_base_delays_match_oracle(self):
        graphs = [cyclic_graph(seed=s) for s in (3, 4, 5)]
        fleet = FleetEvaluator(TECH)
        delays, _ = fleet.evaluate_generation(
            graphs, [g.candidate_edges() for g in graphs])
        oracle = ElmoreGraphModel(TECH)
        for graph, got in zip(graphs, delays):
            want = oracle.delays(graph)
            assert set(got) == set(want)
            for sink in want:
                assert got[sink] == pytest.approx(
                    want[sink], rel=RELATIVE_TOLERANCE)

    def test_batch_composition_invariance(self):
        """A net's numbers are bitwise independent of its batch-mates."""
        graphs = [cyclic_graph(num_pins=5 + (s % 3), seed=s)
                  for s in range(6)]
        batches = [g.candidate_edges() for g in graphs]
        fleet = FleetEvaluator(TECH)
        whole_delays, whole_scores = fleet.evaluate_generation(graphs,
                                                               batches)
        for i, graph in enumerate(graphs):
            alone_delays, alone_scores = FleetEvaluator(
                TECH).evaluate_generation([graph], [batches[i]])
            assert alone_scores[0] == whole_scores[i]
            assert alone_delays[0] == whole_delays[i]

    def test_mixed_shapes_group_without_padding(self):
        graphs = [cyclic_graph(num_pins=p, seed=p) for p in (4, 9, 4, 6)]
        batches = [g.candidate_edges() for g in graphs]
        _, scores = FleetEvaluator(TECH).evaluate_generation(graphs, batches)
        naive = NaiveCandidateEvaluator(ElmoreGraphModel(TECH))
        for graph, batch, got in zip(graphs, batches, scores):
            assert_scores_match(got, naive.score_additions(graph, batch))

    def test_weighted_objective(self):
        graph = cyclic_graph(seed=23)
        weights = {s: 0.5 + (s % 3) for s in graph.sink_indices()}
        candidates = graph.candidate_edges()
        naive = NaiveCandidateEvaluator(ElmoreGraphModel(TECH),
                                        weights=weights)
        assert_scores_match(fleet_scores(graph, candidates, weights),
                            naive.score_additions(graph, candidates))

    def test_empty_candidate_batches(self):
        graph = prim_mst(Net.random(4, seed=2))
        delays, scores = FleetEvaluator(TECH).evaluate_generation(
            [graph], [[]])
        assert scores == [[]]
        assert delays[0]

    def test_fleet_mismatch_rejected(self):
        graph = prim_mst(Net.random(4, seed=2))
        with pytest.raises(ValueError, match="fleet mismatch"):
            FleetEvaluator(TECH).evaluate_generation([graph], [[], []])


class TestMemoIdentity:
    def test_memo_key_is_per_net_fingerprint_not_batch_position(self):
        """The same graph must hit the memo wherever it sits in a batch."""
        a = cyclic_graph(num_pins=5, seed=1, extra_edges=0)
        b = cyclic_graph(num_pins=5, seed=2, extra_edges=0)
        memo = DelayMemo()
        first = FleetEvaluator(TECH, memo=memo)
        first.evaluate_generation([a, b], [[], []])
        assert memo.misses == 2 and memo.hits == 0
        # Reversed batch order: both members must hit, not miss.
        second = FleetEvaluator(TECH, memo=memo)
        second.evaluate_generation([b, a], [[], []])
        assert memo.hits == 2

    def test_memo_shared_with_sequential_path(self):
        graph = cyclic_graph(num_pins=6, seed=3, extra_edges=1)
        memo = DelayMemo()
        model = MemoizedDelayModel(ElmoreGraphModel(TECH), memo=memo)
        sequential = model.delays(graph)
        hits_before = memo.hits
        fleet_delays, _ = FleetEvaluator(TECH, memo=memo).evaluate_generation(
            [graph], [[]])
        assert memo.hits == hits_before + 1
        # The memo replays the sequential numbers verbatim.
        assert fleet_delays[0] == dict(sequential)
        key = (ElmoreGraphModel(TECH).memo_key(), graph_fingerprint(graph))
        assert memo.get(key) is not None


class TestFactorizationFallback:
    def test_singular_stack_falls_back_with_event(self):
        stack = np.zeros((2, 3, 3))  # singular: cholesky must reject
        with provenance.collecting() as events:
            with pytest.raises(Exception):
                _batched_spd_inverse(stack, "multinet-base")
        kinds = [(e.kind, e.target) for e in events]
        assert (KIND_FALLBACK, "guarded-factorization") in kinds


class TestFallbackProvenance:
    """The PR's explicit-fallback sweep: silent detours now leave events."""

    def test_memoize_model_uncacheable_records_event(self):
        model = SpiceDelayModel(TECH)
        model.cacheable = False
        with provenance.collecting() as events:
            wrapped = memoize_model(model)
        assert wrapped is model
        assert any(e.kind == KIND_FALLBACK and e.target == "uncached"
                   for e in events)

    def test_auto_evaluator_non_elmore_records_event(self):
        with provenance.collecting() as events:
            evaluator = get_candidate_evaluator(SpiceDelayModel(TECH),
                                                mode="auto")
        assert isinstance(evaluator, NaiveCandidateEvaluator)
        assert any(e.kind == KIND_FALLBACK and e.target == "naive"
                   for e in events)

    def test_auto_evaluator_elmore_records_nothing(self):
        with provenance.collecting() as events:
            get_candidate_evaluator(ElmoreGraphModel(TECH), mode="auto")
        assert not [e for e in events if e.kind == KIND_FALLBACK]


class TestRouteFleet:
    def test_matches_sequential_ldrg(self):
        nets = [Net.random(3 + (i % 5), seed=200 + i, name=f"n{i}")
                for i in range(8)]
        sequential = [ldrg(net, TECH, delay_model="elmore",
                           candidate_evaluator="naive")
                      for net in nets]
        fleet = route_fleet(nets, TECH)
        for seq, bat in zip(sequential, fleet):
            assert sorted(seq.graph.edges()) == sorted(bat.graph.edges())
            assert seq.num_added_edges == bat.num_added_edges
            for sink, want in seq.delays.items():
                assert bat.delays[sink] == pytest.approx(
                    want, rel=RELATIVE_TOLERANCE)

    def test_fleet_equals_singleton_fleets_bitwise(self):
        nets = [Net.random(4 + (i % 4), seed=300 + i, name=f"s{i}")
                for i in range(6)]
        whole = route_fleet(nets, TECH)
        for net, batched in zip(nets, whole):
            alone = route_fleet([net], TECH)[0]
            assert batched.delays == alone.delays
            assert sorted(batched.graph.edges()) == sorted(
                alone.graph.edges())
            assert batched.history == alone.history

    def test_shuffled_fleet_is_order_invariant(self):
        nets = [Net.random(4 + (i % 3), seed=400 + i, name=f"p{i}")
                for i in range(7)]
        ordered = route_fleet(nets, TECH)
        order = [3, 6, 0, 5, 1, 4, 2]
        shuffled = route_fleet([nets[i] for i in order], TECH)
        for position, index in enumerate(order):
            assert shuffled[position].delays == ordered[index].delays
            assert sorted(shuffled[position].graph.edges()) == sorted(
                ordered[index].graph.edges())

    def test_empty_fleet(self):
        assert route_fleet([], TECH) == []

    def test_max_added_edges_cap(self):
        nets = [Net.random(7, seed=500 + i) for i in range(3)]
        capped = route_fleet(nets, TECH, max_added_edges=1)
        for result in capped:
            assert result.num_added_edges <= 1

    def test_explicit_memo_records_per_net_entries(self):
        nets = [Net.random(5, seed=600 + i) for i in range(3)]
        memo = DelayMemo()
        route_fleet(nets, TECH, memo=memo)
        assert len(memo) > 0

    def test_algorithm_label_stamped(self):
        nets = [Net.random(4, seed=700)]
        result = route_fleet(nets, TECH, algorithm="sldrg")[0]
        assert result.algorithm == "sldrg"

    def test_budget_checked_before_scoring(self, monkeypatch):
        """A member at its edge budget finalizes without its candidate
        batch ever reaching the stacked scorer."""
        nets = [Net.random(7, seed=510 + i) for i in range(3)]
        seen = []
        real = FleetEvaluator.evaluate_generation

        def spy(self, graphs, candidates):
            seen.append([len(batch) for batch in candidates])
            return real(self, graphs, candidates)

        monkeypatch.setattr(FleetEvaluator, "evaluate_generation", spy)
        capped = route_fleet(nets, TECH, max_added_edges=1)
        assert all(r.num_added_edges == 1 for r in capped)
        assert len(seen) == 2 and all(seen[0])
        assert seen[1] == [0, 0, 0]

    def test_audited_fleet_quarantines_members_and_keeps_edges(self):
        """Under a full-rate audit with an injected fast-path error, every
        member is quarantined onto the naive reference and sits out of
        the stacked call, yet chooses the clean run's edges."""
        nets = [Net.random(6, seed=520 + i, name=f"q{i}") for i in range(3)]
        clean = route_fleet(nets, TECH)
        policy = GuardPolicy(mode="audit", audit_rate=1.0, inject_error=1e-3)
        with guard_scope(policy), provenance.collecting() as events:
            audited = route_fleet(nets, TECH)
        quarantined = {e.source for e in events
                       if e.kind == KIND_QUARANTINE}
        assert quarantined == {f"multinet:ldrg:q{i}" for i in range(3)}
        for want, got in zip(clean, audited):
            assert sorted(got.graph.edges()) == sorted(want.graph.edges())
            assert [r.edge for r in got.history] == [
                r.edge for r in want.history]

    def test_long_net_matches_tree_elmore(self):
        """The fleet lane inverts without regularization, so on a very
        long net it keeps the tree Elmore value that the guarded
        single-net lane's regularization loses, by 30x (see ROADMAP).

        The bound is 1e-3, not 1e-9: the zero-length pseudo-short (1e6 S)
        and the 1e8 µm wire (3.3e-7 S) share a diagonal entry of G, whose
        float64 sum keeps the wire's share only to about 1.7e-4.
        """
        length = 1e8
        net = Net.from_points([(0, 0), (length, 0), (length, 1)])
        tree = RoutingGraph(net)
        steiner = tree.add_steiner_point(Point(length, 0))
        tree.add_edge(0, steiner)
        tree.add_edge(steiner, 1)
        tree.add_edge(steiner, 2)
        result = route_fleet([tree], TECH)[0]
        want = elmore_delays(tree, TECH)
        assert result.num_added_edges == 0
        for sink in (1, 2):
            assert result.delays[sink] == pytest.approx(want[sink],
                                                        rel=1e-3)
