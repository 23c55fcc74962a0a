"""Property tests: fleet-batched evaluation equals the reference oracle.

Sampled over the space the greedy loops can present: for any fleet of
nets — mixed sizes, cyclic graphs, Steiner points with zero-length
pseudo-short candidates — the stacked
:class:`~repro.delay.multinet.FleetEvaluator` must reproduce the naive
graph-Elmore scores (one full solve per candidate) to ≤ 1e-9 relative,
:func:`~repro.delay.multinet.route_fleet` must choose the same edges as
the naive sequential loop, and a member's numbers must be bitwise
independent of its batch-mates and of its position in the batch. The
naive oracle is the reference because the single-net incremental engine
shares the fleet's scorer.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ldrg import ldrg
from repro.delay.incremental import NaiveCandidateEvaluator
from repro.delay.models import ElmoreGraphModel
from repro.delay.multinet import FleetEvaluator, route_fleet
from repro.delay.parameters import Technology
from repro.geometry.net import Net
from repro.geometry.point import Point
from repro.graph.mst import prim_mst

TECH = Technology.cmos08()
RELATIVE_TOLERANCE = 1e-9

seeds = st.integers(min_value=0, max_value=100_000)
fleet_specs = st.lists(
    st.tuples(st.integers(min_value=3, max_value=7),   # pins
              st.integers(min_value=0, max_value=2),   # chords
              seeds),
    min_size=1, max_size=6)


def build_graph(size, seed, chords, steiner_mode="none"):
    graph = prim_mst(Net.random(size, seed=seed))
    for edge in graph.candidate_edges()[:chords]:
        graph.add_edge(*edge)
    if steiner_mode == "coincident":
        node = graph.add_steiner_point(graph.position(size - 1))
        graph.add_edge(0, node)
    elif steiner_mode == "offset":
        pivot = graph.position(0)
        node = graph.add_steiner_point(Point(pivot.x + 137.0,
                                             pivot.y + 59.0))
        graph.add_edge(0, node)
    return graph


def assert_scores_match(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=RELATIVE_TOLERANCE)


def naive_scores(graph, batch, weights=None):
    return NaiveCandidateEvaluator(ElmoreGraphModel(TECH),
                                   weights=weights).score_additions(graph,
                                                                    batch)


class TestFleetMatchesIncremental:
    """Fleet scores against the naive reference oracle."""

    @given(fleet_specs,
           st.sampled_from(["none", "coincident", "offset"]))
    @settings(max_examples=30, deadline=None)
    def test_addition_scores(self, specs, steiner_mode):
        graphs = [build_graph(size, seed, chords, steiner_mode)
                  for size, chords, seed in specs]
        batches = [g.candidate_edges() for g in graphs]
        _, scores = FleetEvaluator(TECH).evaluate_generation(graphs,
                                                             batches)
        for graph, batch, got in zip(graphs, batches, scores):
            assert_scores_match(got, naive_scores(graph, batch))

    @given(fleet_specs)
    @settings(max_examples=20, deadline=None)
    def test_weighted_addition_scores(self, specs):
        graphs = [build_graph(size, seed, chords)
                  for size, chords, seed in specs]
        batches = [g.candidate_edges() for g in graphs]
        weights = {}
        for graph in graphs:
            for sink in graph.sink_indices():
                weights.setdefault(sink, 0.5 + (sink % 3))
        _, scores = FleetEvaluator(TECH, weights=weights).\
            evaluate_generation(graphs, batches)
        for graph, batch, got in zip(graphs, batches, scores):
            own = {sink: weights[sink] for sink in graph.sink_indices()}
            assert_scores_match(got, naive_scores(graph, batch, own))


class TestBatchInvariance:
    @given(fleet_specs)
    @settings(max_examples=20, deadline=None)
    def test_member_bits_ignore_batch_mates(self, specs):
        graphs = [build_graph(size, seed, chords)
                  for size, chords, seed in specs]
        batches = [g.candidate_edges() for g in graphs]
        whole_delays, whole_scores = FleetEvaluator(TECH).\
            evaluate_generation(graphs, batches)
        for i, graph in enumerate(graphs):
            alone_delays, alone_scores = FleetEvaluator(
                TECH).evaluate_generation([graph], [batches[i]])
            assert alone_scores[0] == whole_scores[i]
            assert alone_delays[0] == whole_delays[i]


class TestRouteFleetMatchesSequential:
    @given(st.lists(st.tuples(st.integers(min_value=3, max_value=6), seeds),
                    min_size=1, max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_identical_chosen_edges_and_close_delays(self, specs):
        nets = [Net.random(size, seed=seed, name=f"n{i}")
                for i, (size, seed) in enumerate(specs)]
        sequential = [ldrg(net, TECH, delay_model="elmore",
                           candidate_evaluator="naive")
                      for net in nets]
        fleet = route_fleet(nets, TECH)
        for seq, bat in zip(sequential, fleet):
            assert sorted(seq.graph.edges()) == sorted(bat.graph.edges())
            for sink, want in seq.delays.items():
                assert bat.delays[sink] == pytest.approx(
                    want, rel=RELATIVE_TOLERANCE)
