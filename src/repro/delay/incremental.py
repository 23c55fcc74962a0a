"""Incremental candidate-delay evaluation for the greedy routing loops.

LDRG's inner question — "what is the delay if I add this one edge?" — is
asked for every absent node pair, every iteration. Answered naively, each
ask copies the graph, re-assembles the reduced RC system, and solves a
fresh dense linear system: O(n³) per candidate, O(n⁵) per iteration. This
module answers it incrementally.

**The math.** With one π-section per edge (exactly what the graph-Elmore
oracle uses), the reduced RC system of the base graph has conductance
matrix ``G`` (SPD), node capacitances ``c``, and first-moment delays
``T = G⁻¹(c ∘ v∞)`` with ``v∞ = G⁻¹b``. Adding candidate edge ``(u, v)``
of conductance ``g`` and capacitance ``γ`` is

* a **rank-1 update** ``G' = G + g·wwᵀ`` with ``w = e_u − e_v``, and
* two **diagonal capacitance bumps** ``c' = c + (γ/2)(e_u + e_v)``.

By Sherman–Morrison, ``G'⁻¹ = G⁻¹ − f·(G⁻¹w)(G⁻¹w)ᵀ`` with
``f = 1/(1/g + wᵀG⁻¹w)`` (the ``1/g`` form stays stable for the 1 µΩ
pseudo-short conductance of zero-length edges, where ``g = 10⁶``).
Since ``G⁻¹w`` is just the difference of two *columns* of a single
precomputed ``G⁻¹``, every candidate's full sink-delay vector costs
O(k) arithmetic — one O(n³) inversion is shared by the whole batch, and
the batch itself is one vectorized numpy expression. A wire-width
upgrade is the same update with ``g`` and ``γ`` replaced by the deltas
between the two width levels, which is how the WSORG loop rides the
same engine.

**One engine for one net and for many.** :class:`ElmoreStack` holds a
``(B, n, n)`` stack of inverses and scores candidates from any member
through per-candidate owner indices. :class:`IncrementalElmoreEvaluator`
is the stack of one, factored by the guarded, regularizing
:class:`~repro.guard.numerics.GuardedFactorization`; the fleet router
(:mod:`repro.delay.multinet`) stacks whole groups of nets behind one
batched Cholesky. Both take every ``(g, c)`` from
:func:`~repro.delay.rc_builder.pi_section`.

Two further layers complete the subsystem:

* a **fingerprint-keyed memo cache** (:class:`DelayMemo` /
  :class:`MemoizedDelayModel`): H2/H3, local search, the exhaustive
  solvers, and wire sizing all re-score graphs some earlier loop already
  visited; a bounded LRU keyed by the routing's electrical fingerprint
  makes those re-asks free;
* an opt-in **parallel fan-out** (:class:`ParallelCandidateEvaluator`)
  that spreads naive candidate evaluations over the
  :mod:`repro.runtime` worker pool — worthwhile only for SPICE-class
  oracles where a single evaluation dwarfs process overhead.

The naive path (:class:`NaiveCandidateEvaluator`) is retained as the
reference semantics; property tests pin the incremental scores to it at
≤ 1e-9 relative everywhere, including pseudo-short edges and Steiner
candidates.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Mapping, Sequence

import numpy as np
from numpy.typing import ArrayLike

from repro.delay.models import (
    CandidateEdge,
    CandidateEvaluator,
    DelayModel,
    ElmoreGraphModel,
    WidthUpgrade,
    reduce_delays,
)
from repro.delay.parameters import Technology
from repro.delay.rc_builder import (
    EdgeWidths,
    build_reduced_rc,
    edge_width,
    pi_section,
)
from repro.graph.routing_graph import RoutingGraph
from repro.guard.audit import ShadowAuditedEvaluator
from repro.guard.incidents import KIND_FALLBACK, record_event
from repro.guard.numerics import GuardedFactorization
from repro.guard.policy import active_guard

#: Default capacity of the process-wide delay memo.
DEFAULT_MEMO_CAPACITY = 8192


class CandidateEvaluationError(RuntimeError):
    """Raised when a fanned-out candidate evaluation fails in a worker."""


# ---------------------------------------------------------------------------
# Fingerprints and the memo cache
# ---------------------------------------------------------------------------


def graph_fingerprint(graph: RoutingGraph,
                      widths: EdgeWidths | None = None) -> tuple:
    """A hashable key capturing the electrical identity of a routing.

    Two routings with equal fingerprints produce identical delays under
    any pure oracle: the key covers pin/Steiner positions, the edge set,
    the pin count (which fixes source/sink roles), and the width
    assignment. Node *numbering* matters only through positions and
    edges, so structurally identical graphs built in different orders
    still collide — which is exactly what the cache wants.
    """
    positions = tuple(sorted(
        (node, point.as_tuple()) for node, point in graph.positions().items()))
    edges = tuple(sorted(graph.edges()))
    if widths is None:
        width_key: tuple = ()
    else:
        width_key = tuple(sorted(
            (edge, float(value)) for edge, value in widths.items()))
    return (graph.num_pins, positions, edges, width_key)


class DelayMemo:
    """A bounded LRU cache of per-sink delay evaluations.

    Keys are ``(model.memo_key(), graph_fingerprint(...))`` pairs, so one
    memo instance can safely serve models of different kinds, options,
    and technologies at once. Stored delay maps are copied on the way in
    and out — callers may mutate what they receive.
    """

    def __init__(self, capacity: int = DEFAULT_MEMO_CAPACITY):
        if capacity < 1:
            raise ValueError("memo capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, dict[int, float]] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> dict[int, float] | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return dict(entry)

    def put(self, key: tuple, delays: Mapping[int, float]) -> None:
        self._entries[key] = dict(delays)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


_DEFAULT_MEMO = DelayMemo()


def default_memo() -> DelayMemo:
    """The process-wide memo shared by all memoized models by default."""
    return _DEFAULT_MEMO


class MemoizedDelayModel(DelayModel):
    """A transparent caching wrapper around a pure delay oracle.

    Reports the inner model's ``name`` so results and tables are
    unaffected; only the cost of repeated evaluations changes.
    """

    def __init__(self, inner: DelayModel, memo: DelayMemo | None = None):
        super().__init__(inner.tech)
        self.inner = inner
        self.memo = memo if memo is not None else default_memo()
        self.name = inner.name
        self._model_key = inner.memo_key()

    def memo_key(self) -> tuple:
        return self._model_key

    def delays(self, graph: RoutingGraph,
               widths: EdgeWidths | None = None) -> dict[int, float]:
        key = (self._model_key, graph_fingerprint(graph, widths))
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        result = self.inner.delays(graph, widths)
        self.memo.put(key, result)
        return dict(result)


def memoize_model(model: DelayModel,
                  memo: DelayMemo | None = None) -> DelayModel:
    """Wrap ``model`` in the delay memo, when that is safe.

    Non-cacheable oracles (subprocess-backed ngspice, the resilient
    ladder with its provenance side effects) and already-memoized models
    pass through unchanged — and the non-cacheable pass-through records
    a fallback provenance event, so a batch silently running without the
    memo shows up in journals instead of just running slower.
    """
    if isinstance(model, MemoizedDelayModel):
        return model
    if not getattr(model, "cacheable", True):
        record_event(
            KIND_FALLBACK, source=model.name, target="uncached",
            detail=f"oracle {model.name!r} is not cacheable; evaluations "
                   f"bypass the delay memo")
        return model
    return MemoizedDelayModel(model, memo=memo)


# ---------------------------------------------------------------------------
# Candidate evaluators
# ---------------------------------------------------------------------------


class NaiveCandidateEvaluator:
    """Reference evaluator: one full oracle evaluation per candidate.

    Exactly the semantics of the original greedy loops — every candidate
    graph is materialized with :meth:`RoutingGraph.with_edge` (or a trial
    width map) and scored from scratch. Kept both as the correctness
    reference for the incremental engine and as the only general path
    for oracles with no incremental form.
    """

    def __init__(self, model: DelayModel,
                 weights: Mapping[int, float] | None = None):
        self.model = model
        self.weights = dict(weights) if weights is not None else None

    def score_additions(self, graph: RoutingGraph,
                        candidates: Sequence[CandidateEdge]) -> list[float]:
        return [reduce_delays(self.model.delays(graph.with_edge(u, v)),
                              self.weights)
                for u, v in candidates]

    def score_width_upgrades(self, graph: RoutingGraph,
                             widths: Mapping[tuple[int, int], float],
                             upgrades: Sequence[WidthUpgrade]) -> list[float]:
        scores = []
        for edge, new_width in upgrades:
            trial = dict(widths)
            trial[edge] = new_width
            scores.append(reduce_delays(self.model.delays(graph, trial),
                                        self.weights))
        return scores


def node_coordinates(graph: RoutingGraph, nodes: Sequence[int]) -> np.ndarray:
    """``(n, 2)`` positions of ``nodes``, in system-row order."""
    return np.array([graph.position(node).as_tuple() for node in nodes],
                    dtype=float)


def addition_deltas(tech: Technology, lengths: ArrayLike
                    ) -> tuple[np.ndarray, np.ndarray]:
    """``(Δg, Δc)`` of adding unit-width edges of these lengths.

    ``Δg`` is the edge's π-section conductance; ``Δc`` the capacitance it
    adds at *each* endpoint (half the edge's total).
    """
    g, c = pi_section(tech, lengths)
    return g, c / 2.0


def width_deltas(tech: Technology, lengths: ArrayLike,
                 old: ArrayLike, new: ArrayLike
                 ) -> tuple[np.ndarray, np.ndarray]:
    """``(Δg, Δc)`` of re-widthing edges from ``old`` to ``new``.

    Zero-length pseudo-shorts come out as exact zeros: their conductance
    and (empty) capacitance do not move with width. ``Δc`` takes the
    per-µm difference before scaling by length, the rounding the sizing
    loop has always scored with.
    """
    g_new, _ = pi_section(tech, lengths, new)
    g_old, _ = pi_section(tech, lengths, old)
    _, per_um_new = pi_section(tech, 1.0, new)
    _, per_um_old = pi_section(tech, 1.0, old)
    return (g_new - g_old,
            (per_um_new - per_um_old) * np.asarray(lengths, dtype=float)
            / 2.0)


class ElmoreStack:
    """Factored reduced RC systems of ``B`` same-shape graphs.

    The base every Sherman–Morrison score is taken against: inverses
    ``Ginv`` ``(B, n, n)``, DC node voltages ``v_inf = G⁻¹b`` and first
    moments ``T0 = G⁻¹(c∘v∞)``, each ``(B, n)``, plus node positions
    ``coords`` ``(B, n, 2)``. The members share node set and pin count,
    so one row mapping (the sorted node ids, as
    :func:`~repro.delay.rc_builder.build_reduced_rc` lays out one
    π-section per edge) and one sink list serve them all. :meth:`guarded`
    builds the single-net stack; :mod:`repro.delay.multinet` builds
    fleet stacks from one batched Cholesky.
    """

    def __init__(self, Ginv: np.ndarray, v_inf: np.ndarray, T0: np.ndarray,
                 nodes: Sequence[int], sinks: Sequence[int],
                 coords: np.ndarray):
        self.Ginv = Ginv
        self.v_inf = v_inf
        self.T0 = T0
        #: node id → system row, for one-step fancy indexing
        self.row_lookup = np.full(max(nodes) + 1, -1, dtype=np.intp)
        self.row_lookup[np.asarray(nodes, dtype=np.intp)] = np.arange(
            len(nodes))
        self.sinks = list(sinks)
        self.sink_rows = self.row_lookup[np.array(self.sinks, dtype=np.intp)]
        self.coords = coords

    @classmethod
    def guarded(cls, graph: RoutingGraph, tech: Technology,
                widths: EdgeWidths | None = None) -> "ElmoreStack":
        """The stack of one: ``graph`` factored by the guarded ladder.

        Conditioned Cholesky (the reduced G is SPD), not np.linalg.inv:
        ill-conditioning is detected and either repaired or raised as a
        structured NumericalIncident, never returned as garbage delays.
        """
        system = build_reduced_rc(graph, tech, segments=1, widths=widths)
        Ginv = GuardedFactorization(
            system.G, spd=True,
            context=f"incremental-elmore-base[n={system.G.shape[0]}]",
        ).inverse()
        v_inf = Ginv @ system.b
        T0 = Ginv @ (system.c * v_inf)
        return cls(Ginv[None], v_inf[None], T0[None], system.labels,
                   graph.sink_indices(),
                   node_coordinates(graph, system.labels)[None])

    def delays(self, slot: int) -> dict[int, float]:
        """Per-sink Elmore delays of member ``slot``: ``T0`` at the sinks."""
        return dict(zip(self.sinks, self.T0[slot, self.sink_rows].tolist()))

    def score(self, owner: np.ndarray, rows_u: np.ndarray,
              rows_v: np.ndarray, delta_g: np.ndarray, delta_c: np.ndarray,
              weights: Mapping[int, float] | None) -> np.ndarray:
        """Objective after each ``(owner, u, v, Δg, Δc)`` low-rank update.

        ``owner[j]`` selects candidate ``j``'s member of the stack;
        ``delta_g`` is the conductance added between rows ``u`` and ``v``
        and ``delta_c`` the capacitance added at *each* endpoint. Every
        operation is elementwise per candidate (plus a fixed-order
        per-column sink reduction), so a score is bitwise independent of
        which other candidates and members share the call.
        """
        Ginv = self.Ginv
        guu = Ginv[owner, rows_u, rows_u]
        gvv = Ginv[owner, rows_v, rows_v]
        guv = Ginv[owner, rows_u, rows_v]
        # f = g / (1 + g·q) computed as 1/(1/g + q): no overflow for the
        # 1e6-conductance pseudo-short, exact zero for Δg = 0 upgrades.
        q = guu + gvv - 2.0 * guv
        factor = np.zeros_like(delta_g)
        nonzero = delta_g != 0.0
        factor[nonzero] = 1.0 / (1.0 / delta_g[nonzero] + q[nonzero])

        v_u = self.v_inf[owner, rows_u]
        v_v = self.v_inf[owner, rows_v]
        # α = wᵀ G⁻¹ (c∘v∞ + Δc∘v∞): base part from T0, bump part from
        # the u/v columns of G⁻¹ (symmetry gives wᵀG⁻¹e_u = G⁻¹uu − G⁻¹uv).
        alpha = (self.T0[owner, rows_u] - self.T0[owner, rows_v]
                 + delta_c * (v_u * (guu - guv) + v_v * (guv - gvv)))

        sinks = self.sink_rows[:, None]
        cols_u = Ginv[owner, sinks, rows_u]
        cols_v = Ginv[owner, sinks, rows_v]
        delays = (self.T0[owner, sinks]
                  + delta_c * (v_u * cols_u + v_v * cols_v)
                  - (factor * alpha) * (cols_u - cols_v))
        if weights is None:
            return delays.max(axis=0)
        weight_vec = np.array([weights.get(sink, 0.0) for sink in self.sinks])
        return weight_vec @ delays

    def score_additions(self, batches: Sequence[Sequence[CandidateEdge]],
                        tech: Technology,
                        weights: Mapping[int, float] | None
                        ) -> list[list[float]]:
        """Scores of each member's candidate-edge batch, in one call."""
        sizes = [len(batch) for batch in batches]
        if not any(sizes):
            return [[] for _ in batches]
        owner = np.repeat(np.arange(len(batches), dtype=np.intp), sizes)
        rows = self.row_lookup[np.concatenate(
            [np.asarray(batch, dtype=np.intp).reshape(-1, 2)
             for batch in batches])]
        ends = self.coords[owner[:, None], rows]
        delta = ends[:, 0] - ends[:, 1]
        lengths = np.abs(delta[:, 0]) + np.abs(delta[:, 1])
        delta_g, delta_c = addition_deltas(tech, lengths)
        flat = self.score(owner, rows[:, 0], rows[:, 1], delta_g, delta_c,
                          weights).tolist()
        bounds = np.cumsum([0] + sizes).tolist()
        return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class IncrementalElmoreEvaluator:
    """Sherman–Morrison–Woodbury candidate scoring on the Elmore oracle.

    Equivalent to ``NaiveCandidateEvaluator(ElmoreGraphModel(tech))`` to
    floating-point noise (≤ 1e-9 relative, property-tested), at O(k) per
    candidate after one shared O(n³) factorization per call instead of
    O(n³) per candidate — no graph copies, no per-candidate RC assembly.
    It is the fleet engine's scorer over a stack of one
    (:meth:`ElmoreStack.guarded`).
    """

    def __init__(self, tech: Technology,
                 weights: Mapping[int, float] | None = None):
        self.tech = tech
        self.weights = dict(weights) if weights is not None else None

    def score_additions(self, graph: RoutingGraph,
                        candidates: Sequence[CandidateEdge]) -> list[float]:
        if not candidates:
            return []
        stack = ElmoreStack.guarded(graph, self.tech)
        return stack.score_additions([candidates], self.tech,
                                     self.weights)[0]

    def score_width_upgrades(self, graph: RoutingGraph,
                             widths: Mapping[tuple[int, int], float],
                             upgrades: Sequence[WidthUpgrade]) -> list[float]:
        if not upgrades:
            return []
        stack = ElmoreStack.guarded(graph, self.tech, widths=widths)
        rows = stack.row_lookup[np.array([edge for edge, _ in upgrades],
                                         dtype=np.intp)]
        lengths = [graph.edge_length(u, v) for (u, v), _ in upgrades]
        old = [edge_width(widths, u, v) for (u, v), _ in upgrades]
        new = [width for _, width in upgrades]
        delta_g, delta_c = width_deltas(self.tech, lengths, old, new)
        return stack.score(np.zeros(len(upgrades), dtype=np.intp),
                           rows[:, 0], rows[:, 1], delta_g, delta_c,
                           self.weights).tolist()


# Module-level task functions: the worker pool pickles them by reference.

def _addition_score(model: DelayModel, weights: dict[int, float] | None,
                    graph: RoutingGraph, edge: CandidateEdge) -> float:
    return reduce_delays(model.delays(graph.with_edge(*edge)), weights)


def _upgrade_score(model: DelayModel, weights: dict[int, float] | None,
                   graph: RoutingGraph, widths: dict[tuple[int, int], float],
                   edge: tuple[int, int], new_width: float) -> float:
    trial = dict(widths)
    trial[edge] = new_width
    return reduce_delays(model.delays(graph, trial), weights)


class ParallelCandidateEvaluator:
    """Naive candidate evaluation fanned out over the runtime worker pool.

    Intra-net parallelism for expensive oracles: each candidate is a
    :class:`~repro.runtime.pool.PoolTask` run in an isolated worker
    process, with the pool's crash/timeout containment intact. Process
    startup is amortized over the batch, so this only pays off when a
    single evaluation is costly (SPICE-class engines) — it is opt-in,
    never chosen by ``mode="auto"``.
    """

    def __init__(self, model: DelayModel,
                 weights: Mapping[int, float] | None = None,
                 workers: int = 2, timeout: float | None = None):
        if workers < 1:
            raise ValueError("parallel evaluation needs workers >= 1")
        self.model = model
        self.weights = dict(weights) if weights is not None else None
        self.workers = workers
        self.timeout = timeout

    def score_additions(self, graph: RoutingGraph,
                        candidates: Sequence[CandidateEdge]) -> list[float]:
        return self._run([(_addition_score,
                           (self.model, self.weights, graph, edge))
                          for edge in candidates])

    def score_width_upgrades(self, graph: RoutingGraph,
                             widths: Mapping[tuple[int, int], float],
                             upgrades: Sequence[WidthUpgrade]) -> list[float]:
        trial_widths = dict(widths)
        return self._run([(_upgrade_score,
                           (self.model, self.weights, graph, trial_widths,
                            edge, new_width))
                          for edge, new_width in upgrades])

    def _run(self, calls: list[tuple]) -> list[float]:
        if not calls:
            return []
        # Imported lazily: repro.runtime imports repro.delay.models for its
        # resilience ladder, and a module-level import here would tie the
        # two packages into an initialization cycle.
        from repro.runtime.pool import PoolTask, run_tasks
        from repro.runtime.trial import TrialFailure

        tasks = [PoolTask(key=(index, 0), fn=fn, args=args)
                 for index, (fn, args) in enumerate(calls)]
        outcomes = run_tasks(tasks, workers=min(self.workers, len(tasks)),
                             timeout=self.timeout)
        scores: list[float] = []
        for index in range(len(calls)):
            outcome = outcomes[(index, 0)]
            if isinstance(outcome, TrialFailure):
                raise CandidateEvaluationError(
                    f"candidate {index} evaluation failed in a worker: "
                    f"{outcome.summary()}")
            scores.append(float(outcome))
        return scores


#: Evaluator modes accepted by :func:`get_candidate_evaluator`.
EVALUATOR_MODES = ("auto", "incremental", "naive", "parallel")


def get_candidate_evaluator(model: DelayModel,
                            weights: Mapping[int, float] | None = None,
                            mode: str = "auto",
                            workers: int = 2,
                            timeout: float | None = None
                            ) -> CandidateEvaluator:
    """Resolve a candidate-evaluation strategy for a delay oracle.

    ``"auto"`` picks the incremental engine whenever the search oracle is
    the graph-Elmore model (where it is exact to floating-point noise)
    and the naive reference path otherwise — recording a fallback
    provenance event when it does, so degraded evaluation is visible in
    journals. ``"parallel"`` fans the naive path out over ``workers``
    pool processes — opt-in, for SPICE-class oracles. Memoized wrappers
    are looked through when deciding.

    When the active :class:`~repro.guard.policy.GuardPolicy` enables
    shadow auditing, the incremental engine is wrapped in a
    :class:`~repro.guard.audit.ShadowAuditedEvaluator` that re-scores a
    sampled fraction of batches through the naive reference and
    quarantines the fast path on divergence.
    """
    inner = model.inner if isinstance(model, MemoizedDelayModel) else model
    if mode == "auto":
        if isinstance(inner, ElmoreGraphModel):
            mode = "incremental"
        else:
            # The silent part of this fallback was the bug: callers asking
            # for "auto" with a non-Elmore oracle got per-candidate naive
            # re-evaluation with nothing in the journal saying so.
            record_event(
                KIND_FALLBACK, source=inner.name, target="naive",
                detail=f"oracle {inner.name!r} has no incremental form; "
                       f"auto candidate evaluation fell back to naive "
                       f"per-candidate re-evaluation")
            mode = "naive"
    if mode == "incremental":
        if not isinstance(inner, ElmoreGraphModel):
            raise ValueError(
                f"incremental candidate evaluation requires the graph-Elmore "
                f"oracle (its delays are linear-solve moments with a "
                f"closed-form low-rank update); got {inner!r} — use "
                f"mode='naive' or 'parallel' for other oracles")
        fast = IncrementalElmoreEvaluator(inner.tech, weights=weights)
        policy = active_guard()
        if policy.audit_enabled:
            return ShadowAuditedEvaluator(
                fast, NaiveCandidateEvaluator(model, weights=weights),
                policy, source="incremental-elmore")
        return fast
    if mode == "naive":
        return NaiveCandidateEvaluator(model, weights=weights)
    if mode == "parallel":
        return ParallelCandidateEvaluator(model, weights=weights,
                                          workers=workers, timeout=timeout)
    raise ValueError(
        f"unknown candidate evaluator mode {mode!r}; "
        f"expected one of {EVALUATOR_MODES}")
