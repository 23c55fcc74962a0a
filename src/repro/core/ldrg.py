"""LDRG — the Low Delay Routing Graph algorithm (Figure 4 of the paper).

Start from the MST; while some extra edge lowers the routing graph's max
source–sink delay, add the best such edge. The delay oracle is pluggable
(:mod:`repro.delay.models`): the paper uses SPICE inside the loop, and the
oracle ablation benchmark quantifies what the cheaper oracles give up.

Candidate scoring goes through the :class:`~repro.delay.models.\
CandidateEvaluator` protocol: with the graph-Elmore search oracle the
greedy loop uses the Sherman–Morrison incremental engine
(:mod:`repro.delay.incremental`) — one factorization per iteration shared
by every candidate — and falls back to naive per-candidate re-evaluation
for oracles without an incremental form.

The loop itself, :func:`greedy_generations`, runs over a fleet of nets in
lockstep: :func:`greedy_edge_addition` is its fleet of one, and
:func:`repro.delay.multinet.route_fleet` its many-net form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.core.result import IterationRecord, RoutingResult, WIN_TOLERANCE
from repro.delay.incremental import get_candidate_evaluator, memoize_model
from repro.delay.models import (
    CandidateEdge,
    CandidateEvaluator,
    DelayModel,
    get_delay_model,
    reduce_delays,
)
from repro.delay.parameters import Technology
from repro.graph.mst import prim_mst
from repro.graph.routing_graph import RoutingGraph
from repro.graph.validation import check_spanning
from repro.guard.sentinels import (
    sentinel_connected,
    sentinel_delay_non_increase,
    sentinel_finite_delays,
    sentinel_monotone_cost,
)


def ldrg(net_or_graph, tech: Technology,
         delay_model: str | DelayModel = "spice",
         initial: RoutingGraph | None = None,
         max_added_edges: int | None = None,
         evaluation_model: str | DelayModel | None = None,
         candidate_evaluator: str | CandidateEvaluator = "auto"
         ) -> RoutingResult:
    """Run the LDRG algorithm.

    Args:
        net_or_graph: the :class:`~repro.geometry.net.Net` to route (an
            MST starting tree is built), or a pre-built starting
            :class:`RoutingGraph` (equivalent to passing ``initial``).
        tech: interconnect technology.
        delay_model: oracle used to *choose* edges ("spice" per the paper).
        initial: optional explicit starting topology (e.g. an ERT for the
            Table 7 variant); must span the net.
        max_added_edges: optional cap on greedy iterations (used for the
            per-iteration table rows; ``None`` = run to convergence).
        evaluation_model: oracle used to *report* delays (defaults to the
            search oracle). H2/H3-style splits — search cheap, report
            SPICE — are expressed this way.
        candidate_evaluator: how candidate edges are scored — a mode for
            :func:`~repro.delay.incremental.get_candidate_evaluator`
            (``"auto"``, ``"incremental"``, ``"naive"``, ``"parallel"``)
            or a ready :class:`CandidateEvaluator` instance. To route
            many nets with one stacked factorization per generation,
            use :func:`repro.delay.multinet.route_fleet`, which runs this
            same greedy loop over the whole fleet.

    Returns:
        A :class:`RoutingResult` whose baseline is the starting topology.
    """
    search = get_delay_model(delay_model, tech)
    evaluate = (search if evaluation_model is None
                else get_delay_model(evaluation_model, tech))
    graph = _starting_graph(net_or_graph, initial)
    check_spanning(graph)
    return greedy_edge_addition(
        graph, search, evaluate,
        algorithm="ldrg",
        max_added_edges=max_added_edges,
        evaluator=candidate_evaluator,
    )


def greedy_edge_addition(graph: RoutingGraph,
                         search: DelayModel,
                         evaluate: DelayModel,
                         algorithm: str,
                         weights: Mapping[int, float] | None = None,
                         max_added_edges: int | None = None,
                         objective_name: str = "max",
                         evaluator: str | CandidateEvaluator = "auto"
                         ) -> RoutingResult:
    """The greedy loop shared by LDRG, SLDRG, and the CSORG variant.

    ``search`` scores candidate graphs (through ``evaluator``);
    ``evaluate`` produces the reported numbers. ``weights`` switches the
    objective from max delay to the weighted sink-delay sum. This is
    :func:`greedy_generations` over a fleet of one: full delays come from
    the two oracles, candidate scores from ``evaluator``.
    """
    same_oracle = search is evaluate
    search = memoize_model(search)
    evaluate = search if same_oracle else memoize_model(evaluate)
    if isinstance(evaluator, str):
        evaluator = get_candidate_evaluator(search, weights=weights,
                                            mode=evaluator)
    return greedy_generations(
        [graph.copy()], search, evaluate, [evaluator],
        algorithm=algorithm, weights=weights,
        max_added_edges=max_added_edges, objective_name=objective_name)[0]


#: A fleet's stacked full evaluation of one generation: given the active
#: members' graphs and candidate batches, each graph's search-oracle
#: delays, or ``None`` where the search oracle itself must be asked.
Prefetch = Callable[[list[RoutingGraph], list[list[CandidateEdge]]],
                    list["dict[int, float] | None"]]


@dataclass
class _Member:
    """One net's greedy state between generations."""

    graph: RoutingGraph
    evaluator: CandidateEvaluator
    base_delay: float = 0.0
    base_cost: float = 0.0
    #: search objective the next accepted edge must beat
    current: float = 0.0
    last_delays: dict[int, float] = field(default_factory=dict)
    last_cost: float = 0.0
    history: list[IterationRecord] = field(default_factory=list)
    #: edge accepted last generation, awaiting its full evaluation
    accepted: CandidateEdge | None = None
    result: RoutingResult | None = None

    @property
    def added(self) -> int:
        """Edges added so far, the one awaiting its evaluation included."""
        return len(self.history) + (self.accepted is not None)


def greedy_generations(graphs: Sequence[RoutingGraph],
                       search: DelayModel,
                       evaluate: DelayModel,
                       evaluators: Sequence[CandidateEvaluator], *,
                       algorithm: str,
                       weights: Mapping[int, float] | None = None,
                       max_added_edges: int | None = None,
                       objective_name: str = "max",
                       prefetch: Prefetch | None = None
                       ) -> list[RoutingResult]:
    """Figure 4's greedy edge addition, run in lockstep over a fleet.

    Each generation, every active member (its graph is mutated in place)

    1. folds in its full evaluation — the baseline in generation 0, then
       the edge it accepted in the previous generation;
    2. finalizes when its edge budget is spent or no candidate remains;
    3. adds its best-scoring candidate when that beats the search
       objective by more than :data:`WIN_TOLERANCE`, else finalizes —
       the termination rule of Figure 4, step 2.

    Search-oracle delays come from ``prefetch`` where it has them (the
    fleet's one stacked factorization per generation) and from
    ``search`` otherwise; candidate scores come from each member's
    evaluator. The evaluation oracle is consulted exactly once per
    evaluation point (the starting topology and each accepted edge), and
    the reported ``delay``, ``delays`` and history rows all derive from
    those per-sink results, so a retrying or degrading oracle can never
    report an objective that disagrees with its own delay map.

    Returns one :class:`RoutingResult` per graph, in input order.
    """
    same_oracle = search is evaluate
    budget = max_added_edges if max_added_edges is not None else math.inf
    members = [_Member(graph, evaluator)
               for graph, evaluator in zip(graphs, evaluators)]
    active = members
    while active:
        batches = [member.graph.candidate_edges()
                   if member.added < budget else []
                   for member in active]
        prefetched: list[dict[int, float] | None] = (
            prefetch([member.graph for member in active], batches)
            if prefetch is not None else [None] * len(active))
        for member, searched in zip(active, prefetched):
            graph = member.graph
            full = (searched if same_oracle and searched is not None
                    else evaluate.delays(graph))
            if member.accepted is None:
                sentinel_finite_delays(full, source=f"{algorithm}:base")
                member.base_delay = reduce_delays(full, weights)
                member.base_cost = member.last_cost = graph.cost()
                member.current = (
                    member.base_delay if same_oracle else reduce_delays(
                        searched if searched is not None
                        else search.delays(graph), weights))
            else:
                where = f"{algorithm}:iter{len(member.history)}"
                sentinel_finite_delays(full, source=where)
                value = reduce_delays(full, weights)
                if same_oracle:
                    # The loop only accepted this edge because it improved
                    # the objective; the full re-evaluation disagreeing
                    # means the candidate scoring path has drifted.
                    sentinel_delay_non_increase(member.current, value,
                                                source=where)
                    # One oracle both searches and reports: its exact
                    # value re-anchors the termination threshold, so
                    # scoring error can never accumulate across rounds.
                    member.current = value
                cost = graph.cost()
                sentinel_monotone_cost(member.last_cost, cost, source=where)
                member.last_cost = cost
                member.history.append(IterationRecord(
                    edge=member.accepted, delay=value, cost=cost))
            member.last_delays = full
        for member, batch in zip(active, batches):
            if batch:
                scores = member.evaluator.score_additions(member.graph, batch)
                best = min(range(len(batch)), key=scores.__getitem__)
                if scores[best] < member.current * (1.0 - WIN_TOLERANCE):
                    member.accepted = batch[best]
                    member.graph.add_edge(*member.accepted)
                    sentinel_connected(
                        member.graph,
                        source=f"{algorithm}:iter{len(member.history)}")
                    if not same_oracle:
                        member.current = scores[best]
                    continue
            member.result = RoutingResult(
                graph=member.graph,
                delay=reduce_delays(member.last_delays, weights),
                cost=member.graph.cost(),
                delays=member.last_delays,
                base_delay=member.base_delay,
                base_cost=member.base_cost,
                algorithm=algorithm,
                model=evaluate.name,
                objective=objective_name,
                history=member.history,
            )
        active = [member for member in active if member.result is None]
    return [member.result for member in members
            if member.result is not None]


def _starting_graph(net_or_graph, initial: RoutingGraph | None) -> RoutingGraph:
    if initial is not None:
        if isinstance(net_or_graph, RoutingGraph):
            raise ValueError(
                "ambiguous starting topology: net_or_graph is already a "
                "RoutingGraph and initial= was passed as well — pass the "
                "starting graph exactly once (drop one of the two)")
        return initial
    if isinstance(net_or_graph, RoutingGraph):
        return net_or_graph
    return prim_mst(net_or_graph)
