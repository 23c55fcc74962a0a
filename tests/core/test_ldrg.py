"""Unit and invariant tests for the LDRG algorithm."""

import pytest

from repro.core.ldrg import ldrg
from repro.delay.models import ElmoreGraphModel, SpiceDelayModel
from repro.delay.spice_delay import SpiceOptions
from repro.geometry.net import Net
from repro.graph.mst import prim_mst


@pytest.fixture(scope="module")
def fast_model():
    from repro.delay.parameters import Technology

    return SpiceDelayModel(Technology.cmos08(), SpiceOptions(segments=1))


class TestGreedyInvariants:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_never_worse_than_mst(self, seed, tech, fast_model):
        net = Net.random(8, seed=seed)
        result = ldrg(net, tech, delay_model=fast_model)
        assert result.delay <= result.base_delay * (1 + 1e-12)
        assert result.cost >= result.base_cost - 1e-9

    def test_contains_all_mst_edges(self, net10, tech, fast_model):
        mst_edges = set(prim_mst(net10).edges())
        result = ldrg(net10, tech, delay_model=fast_model)
        assert mst_edges <= set(result.graph.edges())

    def test_history_delays_strictly_decrease(self, net10, tech, fast_model):
        result = ldrg(net10, tech, delay_model=fast_model)
        delays = [result.base_delay] + [r.delay for r in result.history]
        for earlier, later in zip(delays, delays[1:]):
            assert later < earlier

    def test_history_costs_strictly_increase(self, net10, tech, fast_model):
        result = ldrg(net10, tech, delay_model=fast_model)
        costs = [result.base_cost] + [r.cost for r in result.history]
        for earlier, later in zip(costs, costs[1:]):
            assert later > earlier

    def test_graph_spans_net(self, net10, tech, fast_model):
        result = ldrg(net10, tech, delay_model=fast_model)
        assert result.graph.spans_net()

    def test_terminates_when_no_edge_helps(self, tech, fast_model):
        # Two pins: the only possible edge already exists; LDRG must
        # return the MST unchanged.
        net = Net.from_points([(0, 0), (3000, 0)])
        result = ldrg(net, tech, delay_model=fast_model)
        assert result.num_added_edges == 0
        assert result.delay_ratio == pytest.approx(1.0)

    def test_deterministic(self, net10, tech, fast_model):
        a = ldrg(net10, tech, delay_model=fast_model)
        b = ldrg(net10, tech, delay_model=fast_model)
        assert [r.edge for r in a.history] == [r.edge for r in b.history]
        assert a.delay == pytest.approx(b.delay)


class TestEdgeBudget:
    def test_max_added_edges_respected(self, net10, tech, fast_model):
        capped = ldrg(net10, tech, delay_model=fast_model, max_added_edges=1)
        assert capped.num_added_edges <= 1

    def test_budget_prefix_matches_full_run(self, net10, tech, fast_model):
        full = ldrg(net10, tech, delay_model=fast_model)
        capped = ldrg(net10, tech, delay_model=fast_model, max_added_edges=1)
        if full.num_added_edges >= 1:
            assert capped.history[0].edge == full.history[0].edge

    def test_zero_budget_returns_baseline(self, net10, tech, fast_model):
        result = ldrg(net10, tech, delay_model=fast_model, max_added_edges=0)
        assert result.num_added_edges == 0
        assert result.graph.is_tree()


class TestOracles:
    def test_elmore_oracle_runs_without_simulation(self, net10, tech):
        result = ldrg(net10, tech, delay_model="elmore")
        assert result.model == "elmore"
        assert result.delay <= result.base_delay * (1 + 1e-12)

    def test_split_search_and_evaluation(self, net10, tech, fast_model):
        result = ldrg(net10, tech, delay_model="elmore",
                      evaluation_model=fast_model)
        # Reported numbers come from the evaluation oracle.
        assert result.model == "spice"
        measured = fast_model.max_delay(result.graph)
        assert result.delay == pytest.approx(measured)

    def test_explicit_initial_graph(self, net10, tech, fast_model):
        from repro.graph.steiner import iterated_one_steiner

        start = iterated_one_steiner(net10)
        result = ldrg(net10, tech, delay_model=fast_model, initial=start)
        assert result.base_cost == pytest.approx(start.cost())

    def test_non_spanning_initial_rejected(self, net10, tech, fast_model):
        from repro.graph.routing_graph import RoutingGraph, RoutingGraphError

        with pytest.raises(RoutingGraphError):
            ldrg(net10, tech, delay_model=fast_model,
                 initial=RoutingGraph(net10))

    def test_initial_graph_not_mutated(self, net10, tech, fast_model):
        start = prim_mst(net10)
        edges_before = sorted(start.edges())
        ldrg(net10, tech, delay_model=fast_model, initial=start)
        assert sorted(start.edges()) == edges_before


class TestPaperBehavior:
    def test_improves_most_10pin_nets(self, tech, fast_model):
        """Table 2: 90% of 10-pin nets improve; demand a majority here."""
        wins = sum(
            ldrg(Net.random(10, seed=s), tech, delay_model=fast_model).improved
            for s in range(8))
        assert wins >= 5

    def test_first_edge_gives_biggest_gain(self, tech, fast_model):
        """Diminishing returns: iteration 1 buys at least as much delay
        as iteration 2 on nets where both happen."""
        for seed in range(12):
            result = ldrg(Net.random(10, seed=seed), tech,
                          delay_model=fast_model)
            if result.num_added_edges >= 2:
                gain1 = result.base_delay - result.history[0].delay
                gain2 = result.history[0].delay - result.history[1].delay
                assert gain1 >= gain2 * 0.999
                return
        pytest.skip("no two-iteration net in the scanned seeds")


class TestCandidateEvaluators:
    def test_incremental_matches_naive_choices(self, net10, tech):
        incremental = ldrg(net10, tech, delay_model="elmore",
                           candidate_evaluator="incremental")
        naive = ldrg(net10, tech, delay_model="elmore",
                     candidate_evaluator="naive")
        assert ([r.edge for r in incremental.history]
                == [r.edge for r in naive.history])
        assert incremental.delay == pytest.approx(naive.delay, rel=1e-9)

    def test_evaluator_instance_accepted(self, net10, tech):
        from repro.delay.incremental import IncrementalElmoreEvaluator

        result = ldrg(net10, tech, delay_model="elmore",
                      candidate_evaluator=IncrementalElmoreEvaluator(tech))
        reference = ldrg(net10, tech, delay_model="elmore")
        assert ([r.edge for r in result.history]
                == [r.edge for r in reference.history])

    def test_incremental_rejected_for_spice(self, net10, tech, fast_model):
        with pytest.raises(ValueError, match="graph-Elmore"):
            ldrg(net10, tech, delay_model=fast_model,
                 candidate_evaluator="incremental")


class TestOracleCallDiscipline:
    def test_evaluation_oracle_called_once_per_point(self, net10, tech):
        """One evaluation per evaluation point: the base topology plus
        each accepted edge — never a redundant objective re-ask."""

        class CountingModel(ElmoreGraphModel):
            cacheable = False  # keep the memo out of the count

            def __init__(self, tech):
                super().__init__(tech)
                self.calls = 0

            def delays(self, graph, widths=None):
                self.calls += 1
                return super().delays(graph, widths)

        counting = CountingModel(tech)
        result = ldrg(net10, tech, delay_model="elmore",
                      evaluation_model=counting)
        assert counting.calls == 1 + result.num_added_edges

    @pytest.mark.parametrize("seed", [0, 1, 2])  # adds 1, 2 and 0 edges
    def test_oracle_call_order_with_split_oracles(self, seed, tech):
        """Each oracle sees exactly the sequence of graphs the greedy loop
        of Figure 4 implies — the order a per-instance fault stream (the
        chaos oracle) is keyed to. The search oracle never sees an
        accepted graph on its own."""
        log = []

        class RecordingModel(ElmoreGraphModel):
            cacheable = False  # every call reaches the recorder

            def __init__(self, tech, label):
                super().__init__(tech)
                self.label = label

            def delays(self, graph, widths=None):
                log.append((self.label, frozenset(graph.edges())))
                return super().delays(graph, widths)

        net = Net.random(8, seed=seed)
        budget = 2
        result = ldrg(net, tech,
                      delay_model=RecordingModel(tech, "search"),
                      evaluation_model=RecordingModel(tech, "evaluate"),
                      max_added_edges=budget, candidate_evaluator="naive")
        graph = prim_mst(net)

        def scored(graph):
            return [("search", frozenset(graph.with_edge(*c).edges()))
                    for c in graph.candidate_edges()]

        expected = [("evaluate", frozenset(graph.edges())),
                    ("search", frozenset(graph.edges()))]
        for record in result.history:
            expected += scored(graph)
            graph.add_edge(*record.edge)
            expected.append(("evaluate", frozenset(graph.edges())))
        if result.num_added_edges < budget:
            expected += scored(graph)  # the round that found no winner
        assert log == expected


class TestAmbiguousStartingGraph:
    def test_graph_plus_initial_rejected(self, net10, tech, fast_model):
        start = prim_mst(net10)
        with pytest.raises(ValueError, match="ambiguous"):
            ldrg(start, tech, delay_model=fast_model, initial=prim_mst(net10))

    def test_graph_alone_still_works(self, net10, tech, fast_model):
        start = prim_mst(net10)
        result = ldrg(start, tech, delay_model=fast_model)
        assert result.base_cost == pytest.approx(start.cost())
