"""Fleet-scale routing: many nets, one stacked linear-algebra call.

The Sherman–Morrison engine (:mod:`repro.delay.incremental`) scores all
candidates *within* one net behind a single factorization. Sweeps and the
routing service route many nets, which would pay one factorization and
one round of numpy overhead per net per iteration. This module lifts the
same math one axis higher:

* :class:`FleetEvaluator` keeps each member's reduced RC system
  (assembled by :func:`~repro.delay.rc_builder.build_reduced_rc`, then
  advanced in place by each accepted edge's π-section) and inverts every
  same-shape group as one stacked ``(B, n, n)`` Cholesky. numpy's
  batched ``linalg`` gufuncs process each matrix independently, so every
  net's numbers are bit-for-bit independent of its batch-mates. The
  resulting :class:`~repro.delay.incremental.ElmoreStack` yields each
  member's base delays and, through the one shared scorer, its whole
  candidate batch;
* :func:`route_fleet` runs the one greedy loop,
  :func:`repro.core.ldrg.greedy_generations`, over the fleet with that
  stacked call as its per-generation prefetch.

Only the inverse differs from the single-net engine. The single-net lane
factors through the regularizing
:class:`~repro.guard.numerics.GuardedFactorization` ladder; the fleet lane
uses the unregularized batched Cholesky and drops a group to the guarded
ladder (with a recorded fallback event) only when numpy rejects it. The
two agree to ≤ 1e-9 relative on ordinary nets but not on extremely long
wires, where the regularization swamps the wire conductance (see
ROADMAP), so both lanes stay.

The shadow audit wraps each fleet member (a diverging member is
quarantined onto the naive reference without disturbing the rest of the
fleet), and base delays are memoized under the per-net
``(model key, graph fingerprint)`` identity the sequential
:class:`~repro.delay.incremental.DelayMemo` uses — never a batch position.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.ldrg import greedy_generations
from repro.core.result import RoutingResult
from repro.delay.incremental import (
    DelayMemo,
    ElmoreStack,
    NaiveCandidateEvaluator,
    graph_fingerprint,
    memoize_model,
    node_coordinates,
)
from repro.delay.models import (
    CandidateEdge,
    CandidateEvaluator,
    DelayModel,
    ElmoreGraphModel,
    WidthUpgrade,
    get_delay_model,
)
from repro.delay.parameters import Technology
from repro.delay.rc_builder import build_reduced_rc, pi_section
from repro.geometry.net import Net
from repro.graph.mst import prim_mst
from repro.graph.routing_graph import RoutingGraph
from repro.graph.validation import check_spanning
from repro.guard.audit import ShadowAuditedEvaluator
from repro.guard.incidents import KIND_FALLBACK, record_event
from repro.guard.numerics import GuardedFactorization
from repro.guard.policy import active_guard


def _guarded_inverse_stack(stack: np.ndarray, context: str) -> np.ndarray:
    """Per-net guarded inverses when the batched factorization is rejected.

    The slow lane of the fleet base: each system goes through the full
    conditioned :class:`GuardedFactorization` ladder (regularization,
    rcond floor, structured incidents), exactly as the sequential engine
    would — so a fleet containing one pathological net degrades to the
    sequential path's behavior for *every* net of its group rather than
    returning unconditioned garbage for any of them.
    """
    record_event(
        KIND_FALLBACK, source=context or "multinet-base",
        target="guarded-factorization",
        detail=f"batched Cholesky rejected for {len(stack)} stacked "
               f"systems; per-net guarded factorizations serve this "
               f"generation",
        count=len(stack))
    return np.stack([
        GuardedFactorization(
            matrix, spd=True, context=f"{context}[member={index}]").inverse()
        for index, matrix in enumerate(stack)])


def _batched_spd_inverse(stack: np.ndarray, context: str) -> np.ndarray:
    """Inverse of a ``(B, n, n)`` stack of SPD systems.

    ``G⁻¹ = L⁻ᵀ L⁻¹`` from one batched Cholesky; every batched gufunc
    involved works matrix-by-matrix, so member results do not depend on
    batch composition. Any failure (a non-PD member fails the *whole*
    stacked call, and numpy's batched path performs no conditioning
    check) drops the group to per-net guarded factorizations.
    """
    try:
        chol = np.linalg.cholesky(stack)
        chol_inv = np.linalg.solve(chol, np.eye(stack.shape[-1]))
        inverse = np.matmul(np.swapaxes(chol_inv, -1, -2), chol_inv)
    except np.linalg.LinAlgError:
        # A rejected batched factorization downgrades the group to the
        # per-net GuardedFactorization ladder (recorded as a fallback
        # provenance event); ladder exhaustion still raises a structured
        # NumericalIncident rather than swallowing the fault.
        return _guarded_inverse_stack(stack, context)
    if not np.isfinite(inverse).all():
        return _guarded_inverse_stack(stack, context)
    return inverse


class _MemberSystem:
    """One member's reduced RC system, advanced edge by edge.

    Rebuilding every member's dense conductance system each generation
    would dominate the fleet profile, yet a generation changes a
    member's graph by exactly one accepted edge. The evaluator therefore
    keeps each member's assembled ``(G, c, b)`` arrays alive and
    :meth:`refresh` folds newly added edges' π-sections in place — in
    edge-acceptance order instead of the builder's sorted-edge order, a
    last-ulp accumulation difference. Per-member updates never look at
    the rest of the fleet, preserving batch-composition invariance.
    """

    def __init__(self, graph: RoutingGraph, tech: Technology):
        system = build_reduced_rc(graph, tech, segments=1)
        self.graph = graph
        #: with one π-section per edge the rows are the sorted node ids
        self.nodes = system.labels
        self.row_of = {node: row for row, node in enumerate(self.nodes)}
        self.coords = node_coordinates(graph, self.nodes)
        self.conductance = system.G
        self.capacitance = system.c
        self.drive = system.b
        self.edge_set = set(graph.edges())

    def refresh(self, graph: RoutingGraph, tech: Technology) -> bool:
        """Bring the system up to date with ``graph``; False → rebuild.

        Reusable only for the *same* graph object (greedy loops mutate
        their graph in place, and the identity check also rules out an
        ``id()``-reuse collision) that has gained edges since assembly.
        Any other change (edges removed, a different object) disqualifies
        the cache and the caller assembles afresh.
        """
        if graph is not self.graph:
            return False
        edges = graph.edges()
        added = [edge for edge in edges if edge not in self.edge_set]
        if len(self.edge_set) + len(added) != len(edges):
            return False
        seg_gs, seg_cs = pi_section(
            tech, [graph.edge_length(u, v) for u, v in added])
        G = self.conductance
        for (u, v), seg_g, seg_c in zip(added, seg_gs.tolist(),
                                        seg_cs.tolist()):
            row_u, row_v = self.row_of[u], self.row_of[v]
            G[row_u, row_u] += seg_g
            G[row_v, row_v] += seg_g
            G[row_u, row_v] -= seg_g
            G[row_v, row_u] -= seg_g
            self.capacitance[row_u] += seg_c / 2.0
            self.capacitance[row_v] += seg_c / 2.0
        self.edge_set.update(added)
        return True


def _stacked_base(systems: Sequence[_MemberSystem]) -> ElmoreStack:
    """One generation's stacked factorization of a same-shape group.

    All member systems share node set and pin count (the caller groups
    by that key), so they stack without padding: padding would perturb
    BLAS summation orders and break the per-net bit-independence the
    determinism smoke relies on.
    """
    nodes = systems[0].nodes
    conductance = np.stack([system.conductance for system in systems])
    capacitance = np.stack([system.capacitance for system in systems])
    drive = np.stack([system.drive for system in systems])
    Ginv = _batched_spd_inverse(conductance, f"multinet-base[n={len(nodes)}]")
    v_inf = np.matmul(Ginv, drive[..., None])[..., 0]
    T0 = np.matmul(Ginv, (capacitance * v_inf)[..., None])[..., 0]
    return ElmoreStack(Ginv, v_inf, T0, nodes,
                       systems[0].graph.sink_indices(),
                       np.stack([system.coords for system in systems]))


class FleetEvaluator:
    """Batched multi-net Elmore evaluation of one greedy generation.

    :meth:`evaluate_generation` takes each active net's graph and
    candidate batch and returns every net's base sink delays plus
    candidate scores from one stacked call per same-shape group.

    Args:
        tech: interconnect technology (the evaluator is exact for the
            graph-Elmore oracle over it).
        weights: optional sink criticalities switching the objective to
            the weighted sum, as everywhere else.
        memo: optional :class:`~repro.delay.incremental.DelayMemo` the
            per-net *base* evaluations are read from and recorded into,
            keyed by ``(model key, per-net graph fingerprint)`` — the
            identical identity the sequential memo uses, never a batch
            position.
    """

    def __init__(self, tech: Technology,
                 weights: Mapping[int, float] | None = None,
                 memo: DelayMemo | None = None):
        self.tech = tech
        self.weights = dict(weights) if weights is not None else None
        self.memo = memo
        self._model_key = ElmoreGraphModel(tech).memo_key()
        #: assembled systems of the current fleet, keyed by graph
        #: ``id()`` (validated against the object on reuse) and pruned
        #: to the live fleet each generation so long-lived evaluators
        #: (the service) do not accumulate dead systems.
        self._systems: dict[int, _MemberSystem] = {}

    def evaluate_generation(
            self, graphs: Sequence[RoutingGraph],
            candidates: Sequence[Sequence[CandidateEdge]],
    ) -> tuple[list[dict[int, float]], list[list[float]]]:
        """Base delays and candidate scores for one fleet generation.

        Returns ``(delays, scores)`` aligned with ``graphs``: member
        ``i``'s full per-sink base delays and one score per candidate in
        ``candidates[i]``. Everything comes from one stacked
        factorization per same-shape group.
        """
        if len(graphs) != len(candidates):
            raise ValueError(
                f"fleet mismatch: {len(graphs)} graphs but "
                f"{len(candidates)} candidate batches")
        delays_out: list[dict[int, float]] = [{} for _ in graphs]
        scores_out: list[list[float]] = [[] for _ in graphs]
        systems = [self._system_for(graph) for graph in graphs]
        self._systems = {id(graph): system
                         for graph, system in zip(graphs, systems)}
        for indices in self._shape_groups(graphs):
            stack = _stacked_base([systems[i] for i in indices])
            for slot, i in enumerate(indices):
                delays_out[i] = self._memoized_delays(graphs[i], stack, slot)
            scores = stack.score_additions(
                [candidates[i] for i in indices], self.tech, self.weights)
            for i, member_scores in zip(indices, scores):
                scores_out[i] = member_scores
        return delays_out, scores_out

    def _system_for(self, graph: RoutingGraph) -> _MemberSystem:
        """The member's assembled system — refreshed in place when the
        cached entry is the same graph object grown by some edges, fully
        reassembled otherwise."""
        cached = self._systems.get(id(graph))
        if cached is not None and cached.refresh(graph, self.tech):
            return cached
        return _MemberSystem(graph, self.tech)

    def _shape_groups(self,
                      graphs: Sequence[RoutingGraph]) -> list[list[int]]:
        """Fleet indices grouped by stackable shape, first-seen order.

        Two graphs stack iff they share the node set (hence system size
        and row mapping) and the pin count (hence sink rows).
        """
        groups: dict[tuple, list[int]] = {}
        for index, member in enumerate(graphs):
            key = (member.num_pins, tuple(sorted(member.nodes())))
            groups.setdefault(key, []).append(index)
        return list(groups.values())

    def _memoized_delays(self, graph: RoutingGraph, stack: ElmoreStack,
                         slot: int) -> dict[int, float]:
        """Member base delays, read through / recorded into the memo.

        The key is the member's own electrical fingerprint paired with
        the oracle's model key — identical to what
        :class:`~repro.delay.incremental.MemoizedDelayModel` would use,
        so fleet and sequential evaluations share hits and a net's entry
        never depends on where in the batch it sat.
        """
        if self.memo is None:
            return stack.delays(slot)
        key = (self._model_key, graph_fingerprint(graph))
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        delays = stack.delays(slot)
        self.memo.put(key, delays)
        return dict(delays)


class _FleetPrefetch:
    """The fleet's stacked call, in the shape the greedy loop consumes.

    Each generation, one :meth:`FleetEvaluator.evaluate_generation`
    serves every member its shadow audit has not quarantined: the call
    returns the members' search-oracle delays and keeps their scores for
    :meth:`score_additions`, the fast path of each member's evaluator. A
    quarantined member sits out; its oracle and the naive reference
    serve it from then on.
    """

    def __init__(self, fleet: FleetEvaluator):
        self.fleet = fleet
        self.auditors: dict[int, ShadowAuditedEvaluator] = {}
        self._scores: dict[int, list[float]] = {}

    def evaluator_for(self, graph: RoutingGraph, search: DelayModel,
                      weights: Mapping[int, float] | None,
                      algorithm: str) -> CandidateEvaluator:
        policy = active_guard()
        if not policy.audit_enabled:
            return self
        auditor = ShadowAuditedEvaluator(
            self, NaiveCandidateEvaluator(search, weights=weights), policy,
            source=f"multinet:{algorithm}:{graph.net.name}")
        self.auditors[id(graph)] = auditor
        return auditor

    def __call__(self, graphs: list[RoutingGraph],
                 batches: list[list[CandidateEdge]]
                 ) -> list[dict[int, float] | None]:
        stacked = [i for i, graph in enumerate(graphs)
                   if not getattr(self.auditors.get(id(graph)),
                                  "quarantined", False)]
        delays, scores = self.fleet.evaluate_generation(
            [graphs[i] for i in stacked], [batches[i] for i in stacked])
        self._scores = {id(graphs[i]): member_scores
                        for i, member_scores in zip(stacked, scores)}
        prefetched: list[dict[int, float] | None] = [None] * len(graphs)
        for i, member_delays in zip(stacked, delays):
            prefetched[i] = member_delays
        return prefetched

    def score_additions(self, graph: RoutingGraph,
                        candidates: Sequence[CandidateEdge]) -> list[float]:
        return self._scores[id(graph)]

    def score_width_upgrades(self, graph: RoutingGraph,
                             widths: Mapping[tuple[int, int], float],
                             upgrades: Sequence[WidthUpgrade]) -> list[float]:
        raise TypeError("the fleet scores edge additions only")


def route_fleet(nets_or_graphs: Sequence[Net | RoutingGraph],
                tech: Technology, *,
                algorithm: str = "ldrg",
                delay_model: str | DelayModel = "elmore",
                evaluation_model: str | DelayModel | None = None,
                weights: Mapping[int, float] | None = None,
                max_added_edges: int | None = None,
                memo: DelayMemo | None = None) -> list[RoutingResult]:
    """Route a fleet of nets through lockstep greedy edge addition.

    Each member runs the greedy loop of
    :func:`repro.core.ldrg.greedy_generations` — the one loop
    :func:`~repro.core.ldrg.greedy_edge_addition` runs as a fleet of
    one — but every generation's base factorizations *and* candidate
    scores for all still-active members come from one stacked call.

    Args:
        nets_or_graphs: the fleet — nets (an MST starting tree is built
            per net, the LDRG convention) and/or explicit starting
            graphs (e.g. Steiner trees for the SLDRG variant).
        tech: interconnect technology shared by the fleet.
        algorithm: label stamped on results ("ldrg", "sldrg", ...).
        delay_model: the search oracle; must resolve to the graph-Elmore
            model — the stacked engine is its closed form, and anything
            else has no batched factorization to share. Callers with
            other oracles should fall back to sequential routing (and
            say so: see :data:`~repro.guard.incidents.KIND_FALLBACK`).
        evaluation_model: optional distinct reporting oracle (defaults
            to the search oracle). When it differs, reported delays come
            from per-member evaluations of that oracle, exactly like the
            sequential loop's split-oracle mode.
        weights: optional sink criticalities (weighted-sum objective).
        max_added_edges: per-member cap on greedy iterations.
        memo: optional :class:`~repro.delay.incremental.DelayMemo` the
            per-member base evaluations are read from and recorded into
            (keyed per net fingerprint, so hits are shared with the
            sequential memoized path). Default ``None``: within one
            fleet run every generation changes every fingerprint, so a
            fleet-local memo would only ever miss.

    Returns:
        One :class:`RoutingResult` per input, in input order.
    """
    model = get_delay_model(delay_model, tech)
    if not isinstance(model, ElmoreGraphModel):
        raise ValueError(
            f"fleet routing requires the graph-Elmore search oracle (its "
            f"delays are one stacked linear solve per generation); got "
            f"{model!r} — route such nets sequentially instead")
    search = memoize_model(model)
    evaluate = (search if evaluation_model is None
                or evaluation_model is model
                else memoize_model(get_delay_model(evaluation_model, tech)))
    prefetch = _FleetPrefetch(FleetEvaluator(tech, weights=weights,
                                             memo=memo))
    graphs = [item.copy() if isinstance(item, RoutingGraph)
              else prim_mst(item) for item in nets_or_graphs]
    for graph in graphs:
        check_spanning(graph)
    return greedy_generations(
        graphs, search, evaluate,
        [prefetch.evaluator_for(graph, search, weights, algorithm)
         for graph in graphs],
        algorithm=algorithm, weights=weights,
        max_added_edges=max_added_edges,
        objective_name="max" if weights is None else "weighted-sum",
        prefetch=prefetch)
